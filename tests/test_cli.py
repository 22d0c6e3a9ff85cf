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


def test_fit_garbage_data_exits_2(runner, tmp_path):
    data = tmp_path / "junk.csv"
    data.write_text("this,is,not\na,campaign,file\n")
    res = runner.invoke(main, ["fit", "--data", str(data),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def small_campaign_csv(poison_field=None):
    """Two-angle campaign CSV; ``poison_field`` is set to nan in one row."""
    lines = ["beta_nominal,dEz_dz,tau_total,n_echo,phi_laser,n_shots,k_D,"
             "is_reference"]
    for beta in (0.0, 0.8):
        for is_ref in (0, 1):
            for i, phi in enumerate((0.0, 2.0, 4.0)):
                row = {"beta_nominal": beta, "dEz_dz": 1e8, "tau_total": 1e-3,
                       "n_echo": 8, "phi_laser": phi, "n_shots": 100,
                       "k_D": 20 + 30 * i, "is_reference": is_ref}
                if poison_field and (beta, is_ref, i) == (0.8, 0, 1):
                    row[poison_field] = "nan"
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


def assert_same_doc(got, want, path="fit.json"):
    """Equal documents, floats to 1e-12 relative: a file whose cells come
    in another order sums over them in another order."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_doc(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_doc(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


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
    reversed_csv = tmp_path / "reversed.csv"
    reversed_csv.write_text("\n".join([header] + rows[::-1]) + "\n")
    docs = []
    for data in (run / "campaign.csv", reversed_csv):
        out = tmp_path / data.stem
        res = runner.invoke(main, ["fit", "--data", str(data),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        docs.append(json.loads((out / "fit.json").read_text()))
    want, got = docs
    assert got.pop("dataset_sha256") != want.pop("dataset_sha256")
    assert_same_doc(got, want)
    # a phase repeated within one fringe still exits 2
    reversed_csv.write_text("\n".join([header, rows[0]] + rows) + "\n")
    res = runner.invoke(main, ["fit", "--data", str(reversed_csv),
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
