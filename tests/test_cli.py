import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import ddquad
from ddquad.cli import _write_json, main
from ddquad.config import ScenarioConfig, dump_config
from ddquad.errors import FitConvergenceError
from ddquad.estimator import NEWTON_STOPS
from ddquad.sampler import CSV_COLUMNS


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")   # embedded JSON metadata line
    rows = list(csv.DictReader(lines[1:]))
    return rows, json.loads(lines[0][2:])


def small_config(tmp_path, **plan_overrides):
    scen = ScenarioConfig()
    text = dump_config(scen)
    for key, value in plan_overrides.items():
        old = next(l for l in text.splitlines()
                   if l.startswith(f"{key} = "))
        text = text.replace(old, f"{key} = {value}")
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


def test_simulate_rabi_endpoints(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["simulate-rabi", "--out", str(out),
                               "--max-area", repr(math.pi), "--n-areas", "3"])
    assert res.exit_code == 0, res.output
    rows, meta = read_csv(out / "rabi.csv")
    assert "config_hash" in meta
    by_key = {(r["init_state"], float(r["area"])): r for r in rows}
    # area 0 leaves the initial populations untouched
    r0 = by_key[("-5/2", 0.0)]
    assert float(r0["p_m_-5/2"]) == pytest.approx(1.0, abs=1e-12)
    r0 = by_key[("psi_i", 0.0)]
    assert float(r0["p_m_-5/2"]) == pytest.approx(0.5, abs=1e-12)
    assert float(r0["p_m_-1/2"]) == pytest.approx(0.5, abs=1e-12)
    # a pi pulse maps m -> -m exactly
    rpi = by_key[("-5/2", math.pi)]
    assert float(rpi["p_m_+5/2"]) == pytest.approx(1.0, abs=1e-12)
    rpi = by_key[("psi_i", math.pi)]
    assert float(rpi["p_m_+5/2"]) == pytest.approx(0.5, abs=1e-12)
    assert float(rpi["p_m_+1/2"]) == pytest.approx(0.5, abs=1e-12)


def test_simulate_fringe_outputs(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "simulate-fringe", "--out", str(out), "--seed", "5",
        "--set", "noise.kind=none",
        "--set", "plan.shots_per_point=200",
        "--set", "plan.n_phases=12",
    ])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "fringe_fit.json").read_text())
    assert "phi_total" in doc and "analytic_phase" in doc
    for key in ("fit", "reference_fit"):
        assert doc[key]["stop"] in NEWTON_STOPS
        assert doc[key]["iterations"] >= 1
    rows, _ = read_csv(out / "fringe.csv")
    assert {r["is_reference"] for r in rows} == {"0", "1"}


def test_bad_config_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nonexistent]\nfoo = 1\n")
    res = runner.invoke(main, ["simulate-rabi", "--config", str(bad),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["exit_code"] == 2
    assert "error_type" in err


def test_bad_set_value_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["simulate-rabi", "--out", str(tmp_path / "o"),
                               "--set", "trap.dEz_dz=abc"])
    assert res.exit_code == 2


@pytest.mark.parametrize("text, message", [
    ("this,is,not\na,campaign,file\n", "beta_nominal"),
    # the three below have no data rows; they exited 4, "need phases at
    # >= 2 magnetic-field angles"
    ("", "beta_nominal"),
    (",".join(CSV_COLUMNS) + "\n", "no data rows"),
    ("foo,bar\n", "is_reference"),
], ids=["wrong_header", "empty", "header_only", "wrong_header_only"])
def test_fit_garbage_data_exits_2(runner, tmp_path, text, message):
    data = tmp_path / "junk.csv"
    data.write_text(text)
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert message in err["message"]


def small_campaign_csv(poison_field=None, poison="nan"):
    """Two-angle campaign CSV; ``poison_field`` is set to ``poison`` in
    one row, line 9 of the file."""
    lines = ["beta_nominal,dEz_dz,tau_total,n_echo,phi_laser,n_shots,k_D,"
             "is_reference"]
    for beta in (0.0, 0.8):
        for is_ref in (0, 1):
            for i, phi in enumerate((0.0, 2.0, 4.0)):
                row = {"beta_nominal": beta, "dEz_dz": 1e8, "tau_total": 1e-3,
                       "n_echo": 8, "phi_laser": phi, "n_shots": 100,
                       "k_D": 20 + 30 * i, "is_reference": is_ref}
                if poison_field and (beta, is_ref, i) == (0.8, 0, 1):
                    row[poison_field] = poison
                lines.append(",".join(str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field",
                         ["phi_laser", "beta_nominal", "dEz_dz", "tau_total"])
def test_fit_non_finite_csv_value_exits_2(runner, tmp_path, field):
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv(field))
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_type"] == "ConfigError"
    assert field in err["message"]


@pytest.mark.parametrize("field", ["beta_nominal", "dEz_dz", "tau_total",
                                   "n_echo", "phi_laser", "n_shots", "k_D"])
def test_fit_csv_parse_error_names_line_and_column(runner, tmp_path, field):
    # the errors of int() and float() name neither the line nor the column
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv(field, poison="x"))
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert f"line 9, {field}: " in err["message"]


@pytest.mark.parametrize("flag", ["7", "-1", "yes"])
def test_fit_csv_is_reference_other_than_0_or_1_exits_2(runner, tmp_path,
                                                          flag):
    # bool(int(...)) read 7 and -1 as reference rows
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv().replace(",1\n", f",{flag}\n"))
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "is_reference" in err["message"]


@pytest.mark.parametrize("edit", [
    lambda row: row.rsplit(",", 2)[0],      # cut after n_shots
    lambda row: row + ",0",                 # one field more than the header
], ids=["short_row", "long_row"])
def test_fit_csv_row_field_count_other_than_header_exits_2(runner, tmp_path,
                                                           edit):
    lines = small_campaign_csv().splitlines()
    lines[5] = edit(lines[5])
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "line 6" in err["message"]


def test_fit_csv_missing_reference_exits_2(runner, tmp_path):
    data = tmp_path / "campaign.csv"
    lines = small_campaign_csv().splitlines()
    data.write_text("\n".join(lines[:4]) + "\n")   # three signal rows
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_type"] == "ConfigError"
    assert "reference" in err["message"]


def test_fit_csv_zero_shot_row_exits_2(runner, tmp_path):
    # the fringe fit rejected it, and the command exited 4
    lines = small_campaign_csv().splitlines()
    assert lines[1].endswith(",100,20,0")
    lines[1] = lines[1].removesuffix("100,20,0") + "0,0,0"
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "n_shots" in err["message"]
    assert "line 2" in err["message"]


@pytest.mark.parametrize("counts, message", [
    ("300,400", "line 2, k_D: "),       # more detections than shots
    ("100,-1", "line 2, k_D: "),
    ("100,100.5", "line 2, k_D: "),
    ("-3,0", "line 2, n_shots: "),
], ids=["k_above_n", "k_negative", "k_real_above_n", "n_negative"])
def test_fit_csv_count_out_of_range_names_line_and_column(runner, tmp_path,
                                                          counts, message):
    # FringeDataset rejected these without naming the row
    lines = small_campaign_csv().splitlines()
    lines[1] = lines[1].removesuffix("100,20,0") + counts + ",0"
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert message in err["message"]


def test_fit_csv_repeated_phase_names_both_lines(runner, tmp_path):
    # a phase repeated within one fringe gave "phi_laser grid must be
    # strictly increasing" with no line; the same phase in the other
    # fringe of the cell is fine
    lines = small_campaign_csv().splitlines()
    lines[3] = lines[3].replace(",4.0,", ",0.0,")
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "lines 2 and 4, phi_laser: " in err["message"]


def test_fit_csv_repeated_column_exits_2(runner, tmp_path):
    # csv.DictReader kept the last k_D field, here another row's counts,
    # and the fit went on to whatever those gave
    lines = small_campaign_csv().splitlines()
    counts = [line.rsplit(",", 2)[1] for line in lines[1:]]
    lines = [lines[0] + ",k_D"] + [line + "," + k for line, k
                                   in zip(lines[1:], counts[3:] + counts[:3])]
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "header repeats column(s) k_D" in err["message"]


def test_fit_csv_negative_tau_total_exits_2(runner, tmp_path):
    # a negated tau_total was fitted as one more precession time
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv("tau_total", poison="-1e-3"))
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "line 9, tau_total: must be >= 0, got '-1e-3'" in err["message"]


@pytest.mark.parametrize("n_echo", ["-3", "0", "1", "7"])
def test_fit_csv_n_echo_below_2_or_odd_exits_2(runner, tmp_path, n_echo):
    # any integer was taken as part of the cell key and written back, and
    # the fit exited 0 with the same Theta
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv("n_echo", poison=n_echo))
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert (f"line 9, n_echo: must be even and >= 2, got '{n_echo}'"
            in err["message"])


@pytest.fixture(scope="module")
def campaign_table(tmp_path_factory):
    """A small seeded campaign.csv, as (header, rows) of split fields, and
    the fit.json lines ``fit --data`` gives for it, but its input hash."""
    work = tmp_path_factory.mktemp("mutations")
    res = CliRunner().invoke(main, [
        "run-campaign", "--out", str(work / "run"), "--seed", "3",
        "--set", "plan.beta_list=0.0,0.8",
        "--set", "plan.gradient_list=0.2e8,0.4e8",
        "--set", "plan.tau_total_list=0.5e-3,1e-3",
        "--set", "plan.n_phases=6", "--set", "plan.shots_per_point=60"])
    assert res.exit_code == 0, res.output
    header, *rows = (work / "run" / "campaign.csv").read_text().splitlines()
    res, fit = _fit_text(work, (work / "run" / "campaign.csv").read_bytes())
    assert res.exit_code == 0, res.output
    return header.split(","), [row.split(",") for row in rows], fit


def _fit_text(work, data: bytes):
    """``fit --data`` of ``data``: the result and fit.json's lines, but the
    one with the input's hash (None when the fit wrote no fit.json)."""
    (work / "data.csv").write_bytes(data)
    res = CliRunner().invoke(main, ["fit", "--data", str(work / "data.csv"),
                                    "--out", str(work / "fit")])
    fit = work / "fit" / "fit.json"
    return res, None if not fit.exists() else [
        line for line in fit.read_text().splitlines()
        if '"dataset_sha256"' not in line]


# mutations that leave the campaign's meaning alone
SAME_DATA = {"reorder_rows", "reorder_columns", "extra_column", "crlf"}


@given(data=st.data())
def test_fit_csv_mutations_exit_cleanly(campaign_table, tmp_path_factory,
                                        data):
    """Whatever the mutations of campaign.csv, ``fit --data`` exits 0, 2 or
    4 with no traceback, an exit 2 names a line or a column, and a
    mutation that keeps the data's meaning keeps fit.json."""
    header, rows, want = campaign_table
    header, rows = list(header), [list(row) for row in rows]

    def col(name):     # the first column of that name
        return header.index(name)

    def cell(row):
        return [row[col(name)] for name in CSV_COLUMNS[:4]]

    kinds = data.draw(st.permutations(
        data.draw(st.lists(st.sampled_from(sorted(SAME_DATA)), unique=True))
        + data.draw(st.lists(st.sampled_from([
            "drop_rows", "duplicate_row", "bad_field", "bad_count",
            "repeat_phase", "drop_reference", "repeat_column",
            "negative_tau", "bad_n_echo"]), max_size=2))))
    for kind in kinds:
        n = len(rows)

        def pick():
            return data.draw(st.integers(0, n - 1))

        if kind == "reorder_rows":
            rows = data.draw(st.permutations(rows))
        elif kind == "drop_rows":
            for _ in range(data.draw(st.integers(1, min(3, n - 1)))):
                del rows[data.draw(st.integers(0, len(rows) - 1))]
        elif kind == "duplicate_row":
            rows.insert(pick(), list(rows[pick()]))
        elif kind == "bad_field":
            rows[pick()][data.draw(st.integers(0, len(header) - 1))] = \
                data.draw(st.sampled_from(["", "nan", "inf", "-inf"]))
        elif kind == "bad_count":
            row = rows[pick()]
            name, value = data.draw(st.sampled_from([   # 60 -> "601"
                ("k_D", "-1"), ("k_D", f"{row[col('n_shots')]}1"),
                ("n_shots", "0")]))
            row[col(name)] = value
        elif kind == "repeat_phase":
            i, j = pick(), pick()
            rows[i][col("phi_laser")] = rows[j][col("phi_laser")]
        elif kind == "drop_reference":
            key = cell(rows[pick()])
            rows = [row for row in rows if cell(row) != key
                    or row[col("is_reference")] != "1"] or rows
        elif kind == "reorder_columns":
            order = data.draw(st.permutations(range(len(header))))
            header = [header[i] for i in order]
            rows = [[row[i] for i in order] for row in rows]
        elif kind == "extra_column":
            at = data.draw(st.integers(0, len(header)))
            header.insert(at, "note")
            for row in rows:
                row.insert(at, "x")
        elif kind == "repeat_column":
            name = data.draw(st.sampled_from(CSV_COLUMNS))
            shift = data.draw(st.integers(0, n - 1))
            values = [row[col(name)] for row in rows]
            header.append(name)
            for row, value in zip(rows, values[shift:] + values[:shift]):
                row.append(value)
        elif kind == "negative_tau":
            tau = rows[pick()][col("tau_total")]
            for row in rows:
                if row[col("tau_total")] == tau:
                    row[col("tau_total")] = "-" + tau
        elif kind == "bad_n_echo":   # every row of one cell
            key = cell(rows[pick()])
            n_echo = data.draw(st.sampled_from(["-3", "0", "1", "7"]))
            for row in rows:
                if cell(row) == key:
                    row[col("n_echo")] = n_echo
    end = "\r\n" if "crlf" in kinds else "\n"
    text = end.join(",".join(row) for row in [header] + rows) + end
    res, fit = _fit_text(tmp_path_factory.mktemp("mutated"), text.encode())
    assert res.exit_code in (0, 2, 4), (kinds, res.output)
    assert "Traceback" not in res.output, kinds
    if {"repeat_column", "negative_tau", "bad_n_echo"} & set(kinds):
        assert res.exit_code == 2, (kinds, res.output)
    if res.exit_code == 2:
        message = one_json_error(res)["message"]
        assert (re.search(r"\blines? \d", message)
                or any(name in message for name in CSV_COLUMNS)), message
    if set(kinds) <= SAME_DATA:
        assert res.exit_code == 0, (kinds, res.output)
        assert fit == want, kinds


def test_fit_missing_data_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["fit", "--data", str(tmp_path / "nope.csv"),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_run_campaign_and_fit_chain(runner, tmp_path):
    out = tmp_path / "camp"
    args = ["run-campaign", "--out", str(out), "--seed", "3",
            "--set", "plan.beta_list=0.0,0.8",
            "--set", "plan.gradient_list=0.2e8,0.4e8",
            "--set", "plan.tau_total_list=0.5e-3,1e-3",
            "--set", "plan.n_phases=8",
            "--set", "plan.shots_per_point=120"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    fit_doc = json.loads((out / "fit.json").read_text())
    assert 2.0 < fit_doc["theta"] < 4.0
    for name in ("campaign.csv", "campaign.json", "phase_vs_tau.csv",
                 "frequency_vs_gradient.csv", "phase_vs_beta.csv",
                 "resolved_config.ini"):
        assert (out / name).exists()

    # refit the written CSV through the fit command
    out2 = tmp_path / "fit"
    res2 = runner.invoke(main, ["fit", "--data", str(out / "campaign.csv"),
                                "--out", str(out2)])
    assert res2.exit_code == 0, res2.output
    fit2 = json.loads((out2 / "fit.json").read_text())
    assert fit2["theta"] == pytest.approx(fit_doc["theta"], abs=1e-9)
    # 2 angles x 2 gradients x 2 times, a signal and a reference fit each
    for doc in (fit_doc, fit2):
        stops = doc["diagnostics"]["fringe_fit_stops"]
        assert sorted(stops) == sorted(NEWTON_STOPS)
        assert sum(stops.values()) == 16
    assert fit2["diagnostics"] == fit_doc["diagnostics"]


def test_magic_angle_frequency_vanishes(runner, tmp_path):
    magic = math.acos(math.sqrt(1.0 / 3.0))
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "run-campaign", "--out", str(out), "--seed", "1",
        "--set", f"plan.beta_list=0.0,{magic!r}",
        "--set", "plan.gradient_list=0.2e8,0.4e8",
        "--set", "plan.tau_total_list=0.5e-3,1e-3",
        "--set", "plan.n_phases=8",
        "--set", "plan.exact_probabilities=true",
        "--set", "noise.kind=none",
        "--set", "detection.eps_bright=0.0",
        "--set", "detection.eps_dark=0.0",
    ])
    assert res.exit_code == 0, res.output
    rows, _ = read_csv(out / "frequency_vs_gradient.csv")
    freqs = {}
    for r in rows:
        freqs.setdefault(float(r["beta_nominal"]), []).append(
            abs(float(r["frequency_hz"])))
    betas = sorted(freqs)
    # frequencies vanish at the magic angle but not at beta = 0; the
    # floor is set by fringe-fit convergence on boundary-contrast data
    assert max(freqs[betas[1]]) < 5e-3
    assert max(freqs[betas[1]]) < 1e-4 * max(freqs[betas[0]])


def test_byte_identical_rerun(runner, tmp_path):
    args_for = lambda out: [
        "run-campaign", "--out", str(out), "--seed", "17",
        "--set", "plan.beta_list=0.0,0.8",
        "--set", "plan.gradient_list=0.2e8,0.4e8",
        "--set", "plan.tau_total_list=1e-3",
        "--set", "plan.n_phases=6",
        "--set", "plan.shots_per_point=80",
    ]
    assert runner.invoke(main, args_for(tmp_path / "a")).exit_code == 0
    assert runner.invoke(main, args_for(tmp_path / "b")).exit_code == 0
    for name in ("campaign.csv", "campaign.json", "fit.json",
                 "resolved_config.ini"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_workers_equivalent_output(runner, tmp_path):
    base = ["run-campaign", "--seed", "9",
            "--set", "plan.beta_list=0.0,0.8",
            "--set", "plan.gradient_list=0.2e8,0.4e8",
            "--set", "plan.tau_total_list=1e-3",
            "--set", "plan.n_phases=6",
            "--set", "plan.shots_per_point=60"]
    a = tmp_path / "w1"
    b = tmp_path / "w4"
    assert runner.invoke(main, base + ["--out", str(a), "--workers", "1"]).exit_code == 0
    assert runner.invoke(main, base + ["--out", str(b), "--workers", "4"]).exit_code == 0
    assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()


def test_reproduce_paper_no_noise(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "reproduce-paper", "--out", str(out), "--no-noise",
        "--replications", "1",
        "--set", "plan.beta_list=0.0,0.4,0.8,1.2",
        "--set", "plan.gradient_list=0.2e8,0.4e8",
        "--set", "plan.tau_total_list=0.5e-3,1e-3,1.5e-3",
        "--set", "plan.n_phases=8",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["theta"] == pytest.approx(2.973, rel=1e-6)
    assert abs(report["deviation_from_truth"]) < 1e-5
    assert report["coverage_count"] == 1
    assert all("σ away from" in row["text"] for row in report["comparison"])


def test_cli_runs_without_scipy():
    # scipy is a test dependency only; the package must not import it
    env = dict(os.environ, PYTHONPATH=str(Path(ddquad.__file__).parents[1]))
    code = "import sys, ddquad.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


SMALL_PLAN = ["--set", "plan.beta_list=0.0,0.8",
              "--set", "plan.gradient_list=0.2e8,0.4e8",
              "--set", "plan.tau_total_list=1e-3",
              "--set", "plan.n_phases=6",
              "--set", "plan.shots_per_point=60"]


@pytest.mark.parametrize("args", [
    ["run-campaign", "--set", "plan.n_phases=0"],
    ["run-campaign", "--set", "plan.tau_total_list=1e-3,-1e-3"],
    ["run-campaign", "--seed", "4294967296"],
    ["run-campaign", "--set", "run.seed=-1"],
    ["reproduce-paper", "--seed", "-1"],
    # the last replication would run seed 2**32, which the sampler reads as 0
    ["reproduce-paper", "--seed", "4294967295", "--replications", "2"],
    ["simulate-fringe", "--tau-total", "-1"],
    ["simulate-rabi", "--n-areas", "1"],
    # the fringe fit needs 3 distinct laser phases
    ["simulate-fringe", "--set", "plan.n_phases=1"],
    ["run-campaign", "--set", "plan.n_phases=2"],
    # a campaign CSV keys its cells by (beta, gradient, tau_total), so a
    # repeated entry could not be refitted; -0.0 == 0.0
    ["run-campaign", "--set", "plan.beta_list=0.0,0.5,-0.0"],
    ["run-campaign", "--set", "plan.gradient_list=1e8,2e8,1e8"],
    ["run-campaign", "--set", "plan.tau_total_list=1e-3,1e-3,2e-3"],
], ids=["n_phases_0", "negative_tau_total", "seed_2_32", "run_seed_negative",
        "reproduce_seed_negative", "replication_seed_wraps",
        "negative_tau_total_option", "too_few_areas", "n_phases_1",
        "n_phases_2", "repeated_beta", "repeated_gradient", "repeated_tau"])
def test_values_the_simulation_rejects_exit_2_at_load(runner, tmp_path, args):
    out = tmp_path / "o"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_type"] == "ConfigError"
    assert not (out / "resolved_config.ini").exists()


@pytest.mark.parametrize("key", ["ion.mass_u", "ion.charge_e", "trap.omega_z",
                                 "trap.rf_axial_correction",
                                 "field.beta_calibration_sigma"])
def test_removed_key_exits_2(runner, tmp_path, key):
    res = runner.invoke(main, ["simulate-rabi", "--out", str(tmp_path / "o"),
                               "--set", f"{key}=1"])
    assert res.exit_code == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_type"] == "ConfigError"
    if key == "trap.omega_z":
        assert "valid keys: dez_dz, epsilon1, alpha" in err["message"]


@pytest.fixture(scope="module")
def bootstrap_runs(tmp_path_factory):
    """Output directories of run-campaign and of a fit of its
    campaign.csv, both with fit.bootstrap_resamples=100."""
    tmp = tmp_path_factory.mktemp("bootstrap")
    runner = CliRunner()
    args = ["--seed", "5", "--set", "fit.bootstrap_resamples=100"]
    res = runner.invoke(main, ["run-campaign", "--out", str(tmp / "c")]
                        + args + SMALL_PLAN)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["fit", "--out", str(tmp / "f"), "--data",
                               str(tmp / "c" / "campaign.csv")] + args)
    assert res.exit_code == 0, res.output
    return tmp / "c", tmp / "f"


def test_run_campaign_and_fit_write_the_same_bootstrap_ci(bootstrap_runs):
    camp, refit = (json.loads((out / "fit.json").read_text())
                   for out in bootstrap_runs)
    lo, hi = refit["bootstrap_ci95_theta"]
    assert lo < hi
    assert refit["bootstrap_ci95_theta"] == camp["bootstrap_ci95_theta"]


def documented_keys(heading, within=None):
    """Keys of the JSON block in the docs/formats.md section whose heading
    starts with ``heading``: its top-level keys, or with ``within`` the
    keys of the object under that top-level key."""
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    block = doc.split(f"\n## {heading}", 1)[1].split("```json", 1)[1]
    keys, depth, parent = set(), 0, None
    for m in re.finditer(r'[{}\[\]]|"(\w+)"\s*:', block.split("```", 1)[0]):
        if m.group(1) is None:
            depth += 1 if m.group(0) in "{[" else -1
        elif depth == 1:
            parent = m.group(1)
            if within is None:
                keys.add(parent)
        elif depth == 2 and parent == within:
            keys.add(m.group(1))
    return keys


def test_docs_name_exactly_the_registered_commands():
    root = Path(__file__).parents[1]
    # formats.md headings name their commands in parentheses, e.g.
    # "## report.json (`reproduce-paper`)"
    headings = re.findall(r"(?m)^## .*\((.*)\)$",
                          (root / "docs" / "formats.md").read_text())
    documented = {word for paren in headings
                  for word in re.findall(r"`([a-z][a-z-]*)`", paren)}
    assert documented == set(main.commands)
    blocks = re.findall(r"(?s)```\w*\n(.*?)```",
                        (root / "README.md").read_text())
    quick = {word for block in blocks
             for word in re.findall(r"(?m)^ddquad (\S+)", block)}
    assert quick and quick <= set(main.commands)


def test_written_keys_match_the_documented_blocks(runner, tmp_path,
                                                  bootstrap_runs):
    fit_keys = documented_keys("fit.json")
    assert {"bootstrap_ci95_theta", "two_stage"} <= fit_keys
    for out in bootstrap_runs:          # run-campaign, then fit
        assert set(json.loads((out / "fit.json").read_text())) == fit_keys
    fringe_keys = documented_keys("fringe.csv / fringe_fit.json")
    # the fringe fit's own keys; "reference_fit" has the same shape
    fit_keys = documented_keys("fringe.csv / fringe_fit.json", within="fit")
    assert {"phase", "ci95_phase", "stop"} <= fit_keys
    # the section documents that --no-reference omits these two
    omitted = {"reference_fit", "phi_total"}
    assert omitted <= fringe_keys
    for flag, want in (("--reference", fringe_keys),
                       ("--no-reference", fringe_keys - omitted)):
        out = tmp_path / flag
        res = runner.invoke(main, ["simulate-fringe", flag, "--out", str(out),
                                   "--set", "plan.shots_per_point=50",
                                   "--set", "plan.n_phases=6"])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "fringe_fit.json").read_text())
        assert set(doc) == want
        for name in {"fit", "reference_fit"} & want:
            assert set(doc[name]) == fit_keys, name


def test_refit_from_own_artifacts_is_byte_identical(runner, tmp_path):
    run, refit = tmp_path / "run", tmp_path / "refit"
    res = runner.invoke(main, [
        "run-campaign", "--out", str(run), "--seed", "5",
        "--set", "plan.beta_list=0.0,0.75,1.5",
        "--set", "plan.gradient_list=0.2e8",
        "--set", "plan.tau_total_list=0.5e-3,1e-3",
        "--set", "plan.n_phases=6", "--set", "plan.shots_per_point=60",
        "--set", "fit.bootstrap_resamples=100",
        "--set", "fit.float_epsilon1=true", "--set", "trap.alpha=0.3"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["fit", "--out", str(refit),
                               "--config", str(run / "resolved_config.ini"),
                               "--data", str(run / "campaign.csv")])
    assert res.exit_code == 0, res.output
    assert "bootstrap_ci95_theta" in json.loads((run / "fit.json").read_text())
    for name in ("fit.json", "phase_vs_tau.csv", "frequency_vs_gradient.csv",
                 "phase_vs_beta.csv"):
        assert (refit / name).read_bytes() == (run / name).read_bytes(), name


def test_fit_reads_campaign_rows_in_any_order(runner, tmp_path):
    run = tmp_path / "run"
    res = runner.invoke(main, [
        "run-campaign", "--out", str(run), "--seed", "3",
        "--set", "plan.beta_list=0.0,0.8",
        "--set", "plan.gradient_list=0.2e8,0.4e8",
        "--set", "plan.tau_total_list=0.5e-3,1e-3",
        "--set", "plan.n_phases=6", "--set", "plan.shots_per_point=60"])
    assert res.exit_code == 0, res.output
    header, *rows = (run / "campaign.csv").read_text().splitlines()
    shuffled = list(rows)
    np.random.default_rng(5).shuffle(shuffled)
    outputs = []
    for name, order in (("campaign", rows), ("reversed", rows[::-1]),
                        ("shuffled", shuffled)):
        data = tmp_path / f"{name}.csv"
        data.write_text("\n".join([header] + order) + "\n")
        out = tmp_path / name
        res = runner.invoke(main, ["fit", "--data", str(data),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        # every byte but the input's hash, and the tables below their
        # metadata line, which holds it
        outputs.append([[line for line in (out / "fit.json").read_text()
                         .splitlines() if '"dataset_sha256"' not in line]]
                       + [(out / table).read_text().split("\n", 1)[1]
                          for table in ("phase_vs_tau.csv",
                                        "frequency_vs_gradient.csv",
                                        "phase_vs_beta.csv")])
    want, *others = outputs
    for got in others:
        assert got == want
    # a phase repeated within one fringe still exits 2
    data.write_text("\n".join([header, rows[0]] + rows) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "repeated")])
    assert res.exit_code == 2, res.output
    assert "phi_laser" in one_json_error(res)["message"]


def test_reproduce_paper_rejects_bootstrap(runner, tmp_path):
    res = runner.invoke(main, ["reproduce-paper", "--out", str(tmp_path / "o"),
                               "--set", "fit.bootstrap_resamples=100"])
    assert res.exit_code == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "fit.bootstrap_resamples" in err["message"]


def test_two_angles_with_free_epsilon1_exit_4_non_identifiable(runner,
                                                               tmp_path):
    res = runner.invoke(main, [
        "run-campaign", "--out", str(tmp_path / "o"), "--seed", "11",
        "--set", "plan.beta_list=0.0,0.8", "--set", "fit.float_epsilon1=true",
        "--set", "trap.alpha=0.3"])
    assert res.exit_code == 4
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_type"] == "NonIdentifiableError"
    assert ">= 3 angles" in err["message"]


def test_one_cell_per_angle_exit_4_non_identifiable(runner, tmp_path):
    # it said "likelihood is flat in Theta (e.g. all angles at the magic
    # angle)", though no angle was at the magic angle
    res = runner.invoke(main, [
        "reproduce-paper", "--out", str(tmp_path / "o"),
        "--set", "plan.gradient_list=1e8", "--set", "plan.tau_total_list=1e-3"])
    assert res.exit_code == 4, res.output
    err = one_json_error(res)
    assert err["error_type"] == "NonIdentifiableError"
    assert err["message"].endswith("(one phase slope per angle), got 0")


def container_walk(obj):
    """The CLI's former conversion to plain JSON values, which walked
    dicts, lists and tuples itself: the reference for json's traversal."""
    if isinstance(obj, dict):
        return {str(k): container_walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [container_walk(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


JSON_LEAVES = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(),
    st.sampled_from([math.nan, -0.0, math.inf, -math.inf, 0.1, 1e-17,
                     1.0 / 3.0]),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=4).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)))
JSON_DOCS = st.dictionaries(st.text(), st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20))


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS)
def test_write_json_matches_the_container_walk(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    _write_json(path, doc)
    # the walk left np.bool_ to json, which rejected it; the CLI's hook
    # writes it as a bool
    want = json.dumps(container_walk(doc), sort_keys=True, indent=1,
                      default=np.bool_.item) + "\n"
    assert path.read_text() == want


def test_fit_error_diagnostics_are_written_as_plain_values(runner, tmp_path,
                                                           monkeypatch):
    def fail(*args, **kwargs):
        raise FitConvergenceError("x", {"bracket": [np.float64(1.0), 2.0],
                                        "n": np.int64(3)})

    monkeypatch.setattr("ddquad.cli.joint_fit_campaign", fail)
    res = runner.invoke(main, ["run-campaign", "--out", str(tmp_path / "o")]
                        + SMALL_PLAN)
    assert res.exit_code == 4
    assert res.stderr == json.dumps(
        {"diagnostics": {"bracket": [1.0, 2.0], "n": 3},
         "error_type": "FitConvergenceError", "exit_code": 4, "message": "x"},
        sort_keys=True) + "\n"


def one_json_error(res):
    """The one JSON error line a failing command prints on stderr."""
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    return json.loads(lines[0])


@pytest.mark.parametrize("case", ["out_under_file", "undecodable_sequence",
                                  "too_few_areas", "fit_error", "percent_set",
                                  "percent_config", "newline_in_set",
                                  "bracketed_set_key", "default_set",
                                  "default_config", "epsilon1_at_pi_over_4"])
def test_exit_code_table(runner, tmp_path, case):
    regular = tmp_path / "regular.txt"
    regular.write_text("x")
    percent = tmp_path / "percent.ini"
    percent.write_text("[trap]\nalpha = %x\n")
    default = tmp_path / "default.ini"
    default.write_text("[DEFAULT]\nalpha = 0.5\n[trap]\ndez_dz = 1e8\n")
    undecodable = tmp_path / "undecodable.ini"
    undecodable.write_bytes(b"\xff[trap]\nalpha = 0.5\n")
    data = tmp_path / "campaign.csv"
    data.write_text(small_campaign_csv())
    out = str(tmp_path / "o")
    argv, code, error_type = {
        "out_under_file": (["simulate-rabi", "--out", str(regular / "o")],
                           2, "ConfigError"),
        "undecodable_sequence": (["simulate-rabi", "--config",
                                  str(undecodable), "--out", out],
                                 2, "ConfigError"),
        "too_few_areas": (["simulate-rabi", "--n-areas", "1", "--out", out],
                          2, "ConfigError"),
        "fit_error": (["fit", "--data", str(data), "--out", out,
                       "--set", "fit.float_epsilon1=true",
                       "--set", "trap.alpha=0.3"],
                      4, "NonIdentifiableError"),
        # a '%' is a bad value, not configparser interpolation syntax
        "percent_set": (["simulate-rabi", "--set", "trap.alpha=%x",
                         "--out", out], 2, "ConfigError"),
        "percent_config": (["simulate-rabi", "--config", str(percent),
                            "--out", out], 2, "ConfigError"),
        # a --set value or key is never read as INI text: no new line or
        # section header inside it sets another key
        "newline_in_set": (["simulate-rabi", "--out", out, "--set",
                            "trap.alpha=0.5\n[run]\nseed = 3"],
                           2, "ConfigError"),
        "bracketed_set_key": (["simulate-rabi", "--out", out,
                               "--set", "trap.[run]=1",
                               "--set", "trap.seed=5"], 2, "ConfigError"),
        # [DEFAULT] is no section of the schema, in --set or in a file
        "default_set": (["simulate-rabi", "--set", "DEFAULT.alpha=0.3",
                         "--out", out], 2, "ConfigError"),
        "default_config": (["simulate-rabi", "--config", str(default),
                            "--out", out], 2, "ConfigError"),
        # eps1 enters only as eps1 cos(2 alpha), zero at the default alpha
        "epsilon1_at_pi_over_4": (["run-campaign", "--seed", "7", "--out", out,
                                   "--set", "plan.shots_per_point=50",
                                   "--set", "plan.n_phases=6",
                                   "--set", "fit.float_epsilon1=true"],
                                  4, "NonIdentifiableError"),
    }[case]
    res = runner.invoke(main, argv)
    assert res.exit_code == code, res.output
    err = one_json_error(res)
    assert err["exit_code"] == code
    assert err["error_type"] == error_type


@pytest.mark.parametrize("command, workers", [
    ("run-campaign", "-4"), ("run-campaign", "0"),
    ("reproduce-paper", "-4"), ("reproduce-paper", "0")])
def test_workers_below_1_exits_2(runner, tmp_path, command, workers):
    # --workers -4 ran and exited 0
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--workers", workers,
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert err["message"] == f"--workers must be >= 1, got {workers}"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-fringe", "--set", "trap.dez_dz=nan"],
    ["simulate-fringe", "--set", "field.b=nan"],
    ["simulate-fringe", "--set", "run.theta_true=nan"],
    ["simulate-fringe", "--set", "field.beta=inf"],
    ["simulate-fringe", "--tau-total", "nan"],
    ["run-campaign", "--set", "plan.tau_total_list=nan,1e-3"],
    ["simulate-rabi", "--max-area", "inf"],
], ids=["dez_dz", "b", "theta_true", "beta", "tau_total", "tau_total_list",
        "max_area"])
def test_non_finite_value_exits_2(runner, tmp_path, argv):
    out = tmp_path / "o"
    res = runner.invoke(main, argv + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    err = one_json_error(res)
    assert err["error_type"] == "ConfigError"
    assert "finite" in err["message"]
    assert not (out / "fringe.csv").exists()
    assert not (out / "campaign.csv").exists()
