"""What the traced run wraps in ddquad, and the per-layer metrics it
derives from the spans.

Span names are ``<layer>.<what>``.  Functions the CLI calls directly
become children of the op's root span, so the root's self time is the
CLI's own work (argument parsing, file writes, report assembly).
"""

from __future__ import annotations

import math

from tracing import Summary, Target

ROOT_SPAN = "op"


def _count_rows(tracer, args, kwargs, result):
    initial = args[0] if args else kwargs["initial"]
    tracer.counters["sequence.rows"] += (initial.shape[0]
                                         if getattr(initial, "ndim", 1) == 2
                                         else 1)


def _count_shots(tracer, args, kwargs, result):
    # exact-probability scans compute n*p and simulate no shots
    if not result.context.get("exact", False):
        tracer.counters["sampler.shots"] += sum(p.n_shots for p in result.points)


def _count_joint(tracer, args, kwargs, result):
    diag = result.fit_diagnostics
    if "iterations" in diag:
        tracer.counters["estimator.joint_iterations"] += diag["iterations"]
    else:
        tracer.missing.append("estimator.joint_iterations")
    if "profile_samples" in diag:
        tracer.counters["estimator.profile_evals"] += len(diag["profile_samples"])
    else:
        tracer.missing.append("estimator.profile_evals")


def targets(fringes: list) -> tuple:
    """The wrapped functions.  Every fringe dataset passed to
    ``fit_fringe_mle`` is appended to ``fringes`` (for the no-CI refit)."""

    def keep_fringe(tracer, args, kwargs, result):
        fringes.append(args[0] if args else kwargs["data"])

    return (
        Target("ddquad.cli", "_load_scenario", "cli.config"),
        Target("ddquad.cli", "_prepare_out", "cli.config"),
        Target("ddquad.cli", "_write_csv", "cli.write"),
        Target("ddquad.cli", "_write_json", "cli.write"),
        Target("ddquad.cli", "_figure_tables", "cli.figure_tables"),
        Target("ddquad.sampler", "run_campaign", "sampler.campaign"),
        Target("ddquad.sampler", "run_fringe_scan", "sampler.fringe_scan",
               _count_shots),
        Target("ddquad.sampler", "campaign_to_csv", "sampler.csv_write"),
        Target("ddquad.sampler", "campaign_from_csv", "sampler.csv_read"),
        Target("ddquad.atommodel", "sample_noise_trajectory",
               "atommodel.trajectory_sample"),
        Target("ddquad.atommodel", "NoiseTrajectory.integral",
               "atommodel.trajectory_integral"),
        Target("ddquad.atommodel", "NoiseTrajectory.square_integral",
               "atommodel.trajectory_integral"),
        Target("ddquad.sequence", "build_quadrupole_dd_sequence",
               "sequence.build"),
        Target("ddquad.sequence", "run_sequence", "sequence.run", _count_rows),
        Target("ddquad.sequence", "free_evolve", "sequence.free_evolve"),
        Target("ddquad.sequence", "apply_rf_pulse", "sequence.pulse"),
        Target("ddquad.sequence", "apply_optical_pulse", "sequence.pulse"),
        Target("ddquad.estimator", "fit_fringe_mle", "estimator.fringe_fit",
               keep_fringe),
        Target("ddquad.estimator", "joint_fit_campaign",
               "estimator.joint_fit_campaign"),
        Target("ddquad.estimator", "joint_fit_quadrupole", "estimator.joint_fit",
               _count_joint),
        Target("ddquad.estimator", "two_stage_theta", "estimator.two_stage"),
        Target("ddquad.estimator", "dataset_digest", "estimator.digest"),
    )


def _per_call_ms(s: Summary, span: str) -> float:
    st = s.stats(span)
    return 1e3 * st.total / st.count if st.count else 0.0


def _us_per_row(s: Summary) -> float:
    rows = s.counters["sequence.rows"]
    return 1e6 * s.total("sequence.run") / rows if rows else 0.0


# metric -> (unit, better, spans it needs, value from a Summary).
# A metric whose span could not be wrapped is reported as missing.
LAYER_METRICS = {
    "sequence.exec_us_per_shot": ("us", "lower", ("sequence.run",), _us_per_row),
    "sequence.free_evolve_calls": ("count", "lower", ("sequence.free_evolve",),
                                   lambda s: s.stats("sequence.free_evolve").count),
    "sequence.free_evolve_self_s": ("s", "lower", ("sequence.free_evolve",),
                                    lambda s: s.stats("sequence.free_evolve").self_time),
    "sequence.pulse_s": ("s", "lower", ("sequence.pulse",),
                         lambda s: s.total("sequence.pulse")),
    "atommodel.trajectory_sample_ms": (
        "ms", "lower", ("atommodel.trajectory_sample",),
        lambda s: 1e3 * s.total("atommodel.trajectory_sample")),
    "atommodel.trajectory_integral_s": (
        "s", "lower", ("atommodel.trajectory_integral",),
        lambda s: s.total("atommodel.trajectory_integral")),
    "sampler.campaign_s": ("s", "lower", ("sampler.campaign",),
                           lambda s: s.total("sampler.campaign")),
    "sampler.fringe_scan_ms": ("ms", "lower", ("sampler.fringe_scan",),
                               lambda s: _per_call_ms(s, "sampler.fringe_scan")),
    "sampler.shots": ("count", "higher", ("sampler.fringe_scan",),
                      lambda s: s.counters["sampler.shots"]),
    "sampler.csv_write_ms": ("ms", "lower", ("sampler.csv_write",),
                             lambda s: 1e3 * s.total("sampler.csv_write")),
    "sampler.csv_read_ms": ("ms", "lower", ("sampler.csv_read",),
                            lambda s: 1e3 * s.total("sampler.csv_read")),
    "estimator.fringe_fits": ("count", "higher", ("estimator.fringe_fit",),
                              lambda s: s.stats("estimator.fringe_fit").count),
    "estimator.fringe_fit_ms": ("ms", "lower", ("estimator.fringe_fit",),
                                lambda s: _per_call_ms(s, "estimator.fringe_fit")),
    "estimator.joint_fit_s": ("s", "lower", ("estimator.joint_fit",),
                              lambda s: s.total("estimator.joint_fit")),
    "estimator.joint_iterations": (
        "count", "lower", ("estimator.joint_fit", "estimator.joint_iterations"),
        lambda s: s.counters["estimator.joint_iterations"]),
    "estimator.profile_evals": (
        "count", "lower", ("estimator.joint_fit", "estimator.profile_evals"),
        lambda s: s.counters["estimator.profile_evals"]),
    "estimator.two_stage_ms": ("ms", "lower", ("estimator.two_stage",),
                               lambda s: 1e3 * s.total("estimator.two_stage")),
    "cli.self_s": ("s", "lower", (), lambda s: s.stats(ROOT_SPAN).self_time),
}

COUNT_METRICS = tuple(m for m, spec in LAYER_METRICS.items()
                      if spec[0] == "count")

# measured by the traced run itself rather than read off the spans
EXTRA_METRICS = {
    "estimator.fringe_fit_noci_ms": ("ms", "lower"),
    "estimator.bootstrap_ms_per_resample": ("ms", "lower"),
    "machine.probe_ms": ("ms", "lower"),
    "machine.op_wall_p50_s": ("s", "lower"),
    "trace.span_coverage": ("fraction", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_values(summary: Summary, missing) -> dict:
    """Every span-derived metric of ``summary``; None where a span it
    needs could not be wrapped."""
    out = {}
    for name, (_, _, needs, fn) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            out[name] = None
        else:
            value = fn(summary)
            out[name] = value if math.isfinite(value) else None
    return out
