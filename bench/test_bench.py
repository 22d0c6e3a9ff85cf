"""Tests of the benchmark itself: scaling, tracing, checks, smoke runs."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from probe import PROBE_REF_MS, Probe, scale_factor  # noqa: E402
from tracing import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, PaperCampaign, Refit  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- probe scaling --------------------------------------------------------------

def test_scale_factor_is_ref_over_mean_probe():
    assert scale_factor(30.0, 36.0, probe_ref_ms=33.0) == pytest.approx(1.0)
    assert scale_factor(66.0, 66.0, probe_ref_ms=33.0) == pytest.approx(0.5)
    assert scale_factor(PROBE_REF_MS, PROBE_REF_MS) == pytest.approx(1.0)
    # a host twice as slow doubles wall and probe alike: the product holds
    assert 2.0 * scale_factor(2 * 33.0, 2 * 33.0, 33.0) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_scale_factor_rejects_nonpositive_probe(bad):
    with pytest.raises(ValueError):
        scale_factor(bad, bad)


def test_probe_is_positive_and_finite():
    assert 0.0 < Probe().run_ms() < 10_000.0


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        tracer.call("leaf", leaf)
        time.sleep(0.02)

    tracer.call("root", lambda: tracer.call("middle", middle))
    s = tracer.summary()
    assert [sp[3] for sp in tracer.spans] == [-1, 0, 1]
    assert s.stats("root").self_time < 0.01
    assert s.stats("middle").self_time == pytest.approx(0.02, abs=0.015)
    assert s.stats("middle").total == pytest.approx(
        s.stats("middle").self_time + s.stats("leaf").total)
    assert tracer.root_coverage() > 0.95


def test_wrappers_install_everywhere_and_restore():
    from ddquad import atommodel, cli, estimator, sampler, sequence

    originals = {
        "sampler.run_campaign": sampler.run_campaign,
        "cli.run_campaign": cli.run_campaign,
        "estimator.fit_fringe_mle": estimator.fit_fringe_mle,
        "cli.fit_fringe_mle": cli.fit_fringe_mle,
        "sampler.run_sequence": sampler.run_sequence,
        "sequence.free_evolve": sequence.free_evolve,
        "integral": atommodel.NoiseTrajectory.__dict__["integral"],
    }
    targets = layers.targets([]) + (
        Target("ddquad.sequence", "no_such_function", "gone.fn"),
        Target("ddquad.no_such_module", "f", "gone.module"),
    )
    with Tracer() as tracer:
        tracer.install(targets)
        # one function, two bindings: both are wrapped, by one wrapper
        assert cli.run_campaign is sampler.run_campaign
        assert sampler.run_campaign is not originals["sampler.run_campaign"]
        assert cli.fit_fringe_mle is estimator.fit_fringe_mle
        assert estimator.fit_fringe_mle is not originals["cli.fit_fringe_mle"]
        assert sampler.run_sequence is not originals["sampler.run_sequence"]
        assert atommodel.NoiseTrajectory.__dict__["integral"] \
            is not originals["integral"]
        assert sorted(tracer.missing) == ["gone.fn", "gone.module"]
        traj = atommodel.zero_trajectory(3)
        traj.integral(0.0, 1.0)
        assert tracer.summary().stats("atommodel.trajectory_integral").count == 1
    assert sampler.run_campaign is originals["sampler.run_campaign"]
    assert cli.run_campaign is originals["cli.run_campaign"]
    assert estimator.fit_fringe_mle is originals["estimator.fit_fringe_mle"]
    assert cli.fit_fringe_mle is originals["cli.fit_fringe_mle"]
    assert sampler.run_sequence is originals["sampler.run_sequence"]
    assert sequence.free_evolve is originals["sequence.free_evolve"]
    assert atommodel.NoiseTrajectory.__dict__["integral"] is originals["integral"]


def test_missing_target_drops_only_its_metric():
    from tracing import Summary

    values = layers.layer_values(Summary(), missing=["sequence.free_evolve"])
    assert values["sequence.free_evolve_calls"] is None
    assert values["sequence.free_evolve_self_s"] is None
    assert values["estimator.fringe_fits"] == 0


# -- checks --------------------------------------------------------------------

def _write_report(out: Path, theta, lo, hi):
    (out / "report.json").write_text(json.dumps(
        {"theta": theta, "ci95_theta": [lo, hi], "theta_true": 2.973}))


def test_paper_check_passes_a_statistical_miss_and_fails_a_wrong_theta(tmp_path):
    check = PaperCampaign().check
    _write_report(tmp_path, 3.05, 3.0, 3.1)     # CI misses 2.973: fine
    check(tmp_path)
    _write_report(tmp_path, 3.5, 3.45, 3.55)    # 10 half-widths away
    with pytest.raises(CheckFailed):
        check(tmp_path)
    _write_report(tmp_path, 3.0, 3.01, 3.1)     # CI does not bracket Theta
    with pytest.raises(CheckFailed):
        check(tmp_path)


def test_refit_check_is_byte_exact_per_dataset(tmp_path):
    wl = Refit()
    wl.seed, wl.theta_true = 10, 2.973
    wl.data = [tmp_path / f"campaign-{j}.csv" for j in range(wl.variants)]
    doc = {"theta": 2.97, "ci95_theta": [2.94, 3.0]}

    def op(i, text):
        out = tmp_path / f"op-{i}"
        out.mkdir()
        argv = wl.argv(out, wl.seed + i)
        (out / "fit.json").write_text(text)
        wl.check(out)
        return argv

    first = op(0, json.dumps(doc))              # reference of dataset 0
    op(1, json.dumps(dict(doc, theta=2.98)))    # dataset 1: its own reference
    again = op(wl.variants, json.dumps(doc))    # dataset 0 again: identical
    assert first[first.index("--data") + 1] == again[again.index("--data") + 1]
    with pytest.raises(CheckFailed):
        op(wl.variants + 1, json.dumps(doc))    # dataset 1, other bytes


# -- smoke runs ------------------------------------------------------------------

def _names(section):
    return sorted(m["name"] for m in SPEC[section])


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    declared = {name: (unit, better) for name, (unit, better, *_)
                in layers.LAYER_METRICS.items()}
    declared.update(layers.EXTRA_METRICS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == declared


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, tmp_path):
    result, info = run.run_benchmark(name, 3, 0.0, trace=False,
                                     work_root=tmp_path / "work", smoke=True)
    assert result["correct"], info["failures"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert result["metrics"]["ok_fraction"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "work").exists()

    traced, info = run.run_benchmark(name, 3, 0.0, trace=True,
                                     work_root=tmp_path / "work", smoke=True)
    assert traced["correct"], info["failures"]
    assert info["missing_spans"] == []
    assert sorted(traced["metrics"]) == _names("per_layer")
    assert traced["metrics"]["trace.span_coverage"]["value"] >= 0.95


def test_failed_check_counts_against_ok_fraction(tmp_path, monkeypatch):
    calls = []

    def flaky(self, out):
        calls.append(out)
        if len(calls) == 2:
            raise CheckFailed("injected")

    monkeypatch.setattr(WORKLOADS["drift_fringe"], "check", flaky)
    result, info = run.run_benchmark("drift_fringe", 3, 0.0, trace=False,
                                     work_root=tmp_path, smoke=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_fraction"]["value"] == pytest.approx(
        (result["attempted"] - 1) / result["attempted"])
    assert "injected" in info["failures"][0]


def test_count_metrics_repeat_for_a_seed(tmp_path):
    runs = [run.run_benchmark("paper_campaign", 5, 0.0, trace=True,
                              work_root=tmp_path, smoke=True)[0]["metrics"]
            for _ in range(2)]
    counts = [{m: r[m]["value"] for m in layers.COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sampler.shots"] == 3 * 2 * 2 * 8 * 100
    assert all(v > 0 for v in counts[0].values())
