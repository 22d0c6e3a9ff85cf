"""Command-line interface.

Every subcommand takes ``--seed``, ``--config`` (INI scenario file) and
``--out`` (output directory), writes back the fully resolved
configuration it ran with, and embeds that config's hash in each output
so any run can be reproduced byte-identically from its own artifacts.

Exit codes: 0 success, 2 configuration/parse error, 3 simulation error,
4 fit error.  The command group's ``invoke`` holds the one table that
maps errors to codes; a failing command prints one JSON line on stderr.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .atommodel import BASIS_LABELS, NoiseModel, arm_phase_rate
from .config import (ScenarioConfig, apply_settings, config_hash, dump_config,
                     load_config, paper_scenario)
from .dsl import parse_sequence_text, serialize_sequence
from .errors import ConfigError, DDQuadError, FitError, SequenceSyntaxError, \
    SequenceSemanticError, SimulationError
from .estimator import (bootstrap_ci, dataset_digest, fit_fringe_mle,
                        fit_phase_vs_time, joint_fit_campaign,
                        phase_difference, theta_comparison_report,
                        two_stage_theta)
from .sampler import (campaign_from_csv, campaign_to_csv, campaign_to_json,
                      default_phi_grid, run_campaign, run_fringe_scan)
from .sequence import analytic_phase, initial_state
from .spincore import rotation_unitary

EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4

D_M_LABELS = [label.split(":")[1] for label in BASIS_LABELS[2:]]


def _fail(exc: DDQuadError, code: int):
    payload = {"error_type": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    if isinstance(exc, SequenceSyntaxError):
        payload["line"] = exc.line
        payload["column"] = exc.column
    if isinstance(exc, FitError) and getattr(exc, "diagnostics", None):
        payload["diagnostics"] = _jsonable(exc.diagnostics)
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _load_scenario(config_path, seed, sets, base: ScenarioConfig | None = None):
    cfg = base or ScenarioConfig()
    if config_path is not None:
        cfg = load_config(Path(config_path).read_text(), base=cfg)
    settings: dict = {}     # section -> [(key, value)], as in a file
    for item in sets:
        key, eq, value = item.partition("=")
        section, dot, name = key.partition(".")
        if not (eq and dot):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        settings.setdefault(section, []).append((name, value))
    cfg = apply_settings(cfg, settings)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _prepare_out(out, cfg: ScenarioConfig) -> tuple:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dump_config(cfg)
    (out_dir / "resolved_config.ini").write_text(resolved)
    return out_dir, config_hash(cfg)


def _write_csv(path: Path, header, rows, meta: dict):
    """CSV with a leading '#' metadata line so the hash travels with it."""
    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    path.write_text(buf.getvalue())


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(_jsonable(doc), sort_keys=True, indent=1) + "\n")


class _Main(click.Group):
    """The command group; its ``invoke`` is the one exit-code table."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise                   # click's main handles a closed stdout
        # file errors; UnicodeError is a ValueError, so it is caught first
        except (OSError, UnicodeError) as exc:
            _fail(ConfigError(str(exc)), EXIT_CONFIG)
        except (ConfigError, SequenceSyntaxError, SequenceSemanticError) as exc:
            _fail(exc, EXIT_CONFIG)
        except FitError as exc:
            _fail(exc, EXIT_FIT)
        except DDQuadError as exc:
            _fail(exc, EXIT_SIMULATION)
        except ValueError as exc:
            _fail(SimulationError(str(exc)), EXIT_SIMULATION)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="ddquad")
def main():
    """Simulate and analyze dynamic-decoupling quadrupole-moment runs."""


def _finite(ctx, param, value):
    """Option callback: a float option must be finite."""
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{param.opts[0]} must be finite, got {value!r}")
    return value


def _common(fn):
    fn = click.option("--seed", type=int, default=None,
                      help="Override the scenario RNG seed.")(fn)
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="Scenario INI file.")(fn)
    fn = click.option("--out", default="ddquad-out", show_default=True,
                      help="Output directory.")(fn)
    fn = click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=V",
                      help="Override a single config value (repeatable; "
                           "wins over --config).")(fn)
    return fn


# ---------------------------------------------------------------------------


@main.command("simulate-rabi")
@_common
@click.option("--max-area", type=float, default=4.0 * math.pi, callback=_finite,
              show_default=True, help="Largest RF pulse area (rad).")
@click.option("--n-areas", type=int, default=201, show_default=True)
def simulate_rabi(seed, config_path, out, sets, max_area, n_areas):
    """Multi-level RF Rabi oscillations in the D manifold.

    Writes populations of all six m sublevels versus pulse area for the
    stretched initial state |D,-5/2> and for the echo superposition
    psi_i = (|D,-5/2> + |D,-1/2>)/sqrt(2).
    """
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    if n_areas < 2 or max_area <= 0:
        raise SimulationError("need n_areas >= 2 and max_area > 0")
    inits = {
        "-5/2": initial_state("D:-5/2")[2:8],
        "psi_i": (initial_state("D:-5/2")[2:8]
                  + initial_state("D:-1/2")[2:8]) / math.sqrt(2.0),
    }
    areas = np.linspace(0.0, max_area, n_areas)
    rows = []
    for label, psi0 in inits.items():
        for area in areas:
            u = rotation_unitary(2.5, float(area), 0.0)
            pops = np.abs(u @ psi0) ** 2
            rows.append([label, repr(float(area))]
                        + [repr(float(p)) for p in pops])
    header = ["init_state", "area"] + [f"p_m_{m}" for m in D_M_LABELS]
    _write_csv(out_dir / "rabi.csv", header, rows, {"config_hash": chash})
    click.echo(f"wrote {out_dir / 'rabi.csv'}")


@main.command("simulate-fringe")
@_common
@click.option("--tau-total", type=float, default=None, callback=_finite,
              help="Total precession time 2*n_echo*tau (s); defaults to the "
                   "first plan value.")
@click.option("--reference/--no-reference", default=True, show_default=True,
              help="Also simulate and fit the tau=0 reference fringe.")
def simulate_fringe(seed, config_path, out, sets, tau_total, reference):
    """One laser-phase fringe scan plus its maximum-likelihood fit."""
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    plan = cfg.plan
    if tau_total is None:
        tau_total = plan.tau_total_list[0]
    if tau_total < 0:
        raise SimulationError("tau_total must be >= 0")
    tau = tau_total / (2.0 * plan.n_echo)
    model = cfg.ion_model()
    phis = default_phi_grid(plan.n_phases)
    data = run_fringe_scan(plan.n_echo, tau, model, cfg.noise, phis,
                           plan.shots_per_point, cfg.seed,
                           detection=cfg.detection,
                           exact=plan.exact_probabilities)
    ref = run_fringe_scan(plan.n_echo, 0.0, model, cfg.noise, phis,
                          plan.shots_per_point, cfg.seed,
                          detection=cfg.detection,
                          exact=plan.exact_probabilities,
                          seed_context=(1,)) if reference else None

    rows = [[repr(p.phi_laser), p.n_shots, repr(p.k_D), 0] for p in data.points]
    if ref is not None:
        rows += [[repr(p.phi_laser), p.n_shots, repr(p.k_D), 1]
                 for p in ref.points]
    _write_csv(out_dir / "fringe.csv",
               ["phi_laser", "n_shots", "k_D", "is_reference"], rows,
               {"config_hash": chash, "tau_total": tau_total,
                "n_echo": plan.n_echo})

    fit = fit_fringe_mle(data)
    doc = {"config_hash": chash, "tau_total": tau_total,
           "n_echo": plan.n_echo,
           "analytic_phase": analytic_phase(plan.n_echo, tau, model),
           "fit": _fringe_fit_doc(fit)}
    if ref is not None:
        rfit = fit_fringe_mle(ref)
        doc["reference_fit"] = _fringe_fit_doc(rfit)
        doc["phi_total"] = phase_difference(fit, rfit)
    _write_json(out_dir / "fringe_fit.json", doc)
    click.echo(f"wrote {out_dir / 'fringe.csv'} and fringe_fit.json")


def _fringe_fit_doc(fit):
    return {"phase": fit.phase, "contrast": fit.contrast, "offset": fit.offset,
            "phase_sigma": fit.phase_sigma, "ci95_phase": list(fit.ci95_phase),
            "ci95_phase_clamped": list(fit.ci95_phase_clamped),
            "neg_log_likelihood": fit.neg_log_likelihood,
            "iterations": fit.iterations, "stop": fit.stop}


# ---------------------------------------------------------------------------


def _figure_tables(out_dir: Path, cell_phases, model, meta: dict):
    """Plot-ready tables: phase vs tau per gradient, frequency vs
    gradient, and phase vs beta per gradient."""
    rows = [[repr(c.beta_nominal), repr(c.dEz_dz), repr(c.tau_total),
             repr(c.phi_total), repr(c.sigma), int(c.ambiguous)]
            for c in sorted(cell_phases,
                            key=lambda c: (c.beta_nominal, c.dEz_dz,
                                           c.tau_total))]
    _write_csv(out_dir / "phase_vs_tau.csv",
               ["beta_nominal", "dEz_dz", "tau_total", "phi_total", "sigma",
                "ambiguous"], rows, meta)

    freq_rows = []
    groups: dict = {}
    for c in cell_phases:
        groups.setdefault((c.beta_nominal, c.dEz_dz), []).append(c)
    for (beta, grad), recs in sorted(groups.items()):
        if len({r.tau_total for r in recs}) < 2:
            continue
        fit = fit_phase_vs_time([(r.tau_total, r.phi_total, r.sigma)
                                 for r in recs])
        freq_rows.append([repr(beta), repr(grad), repr(fit["slope_hz"]),
                          repr(fit["slope_hz_sigma"]),
                          repr(fit["fit"].reduced_chi2)])
    _write_csv(out_dir / "frequency_vs_gradient.csv",
               ["beta_nominal", "dEz_dz", "frequency_hz", "sigma_hz",
                "reduced_chi2"], freq_rows, meta)

    beta_rows = []
    for (beta, grad), recs in sorted(groups.items()):
        r = max(recs, key=lambda c: c.tau_total)
        rate = arm_phase_rate(replace(model.trap, dEz_dz=grad), model.theta,
                              beta + model.field_cfg.beta0)
        pred = r.tau_total * rate  # phi = 2*n*tau*rate, tau_total = 2*n*tau
        beta_rows.append([repr(beta), repr(grad), repr(r.tau_total),
                          repr(r.phi_total), repr(r.sigma), repr(pred)])
    _write_csv(out_dir / "phase_vs_beta.csv",
               ["beta_nominal", "dEz_dz", "tau_total", "phi_total", "sigma",
                "model_phase"], beta_rows, meta)


def _fit_options(cfg: ScenarioConfig, model) -> dict:
    """Keyword options of the joint fit and its bootstrap.  The known
    second-order Zeeman shift C2*B^2 is the model's."""
    return dict(alpha_trap=model.trap.alpha,
                float_epsilon1=cfg.fit.float_epsilon1,
                zeeman2_hz=model.species.c2_quad_zeeman * model.field_cfg.B ** 2)


def _theta_text(result) -> str:
    lo, hi = result.ci95_theta
    return f"theta = {result.theta:.4f}  ci95 = [{lo:.4f}, {hi:.4f}]"


def _fit_outputs(cfg: ScenarioConfig, model, campaign, csv_text: str,
                 out_dir: Path, chash: str):
    """Joint fit of ``campaign`` (whose CSV is ``csv_text``) and every
    output it gives: fit.json, with the bootstrap CI when
    ``fit.bootstrap_resamples`` is set and the two-stage cross-check, and
    the figure tables.  Returns the fit result."""
    meta = {"config_hash": chash, "dataset_sha256": dataset_digest(csv_text)}
    options = _fit_options(cfg, model)
    result, cells = joint_fit_campaign(campaign, **options)
    doc = {
        **meta,
        "theta": result.theta, "theta_sigma": result.theta_sigma,
        "ci95_theta": list(result.ci95_theta),
        "beta0": result.beta0, "epsilon1": result.epsilon1,
        "per_angle_offsets": list(result.per_angle_offsets),
        "chi2": result.chi2, "ndof": result.ndof,
        "reduced_chi2": result.chi2 / result.ndof if result.ndof else None,
        "diagnostics": {k: v for k, v in result.fit_diagnostics.items()
                        if k != "profile_samples"},
        "two_stage": None,
    }
    if cfg.fit.bootstrap_resamples:
        doc["bootstrap_ci95_theta"] = list(bootstrap_ci(
            campaign, cfg.fit.bootstrap_resamples, cfg.seed, **options))
    # optional: needs >= 2 gradients and >= 2 precession times
    with contextlib.suppress(FitError):
        ts = two_stage_theta(cells, alpha_trap=model.trap.alpha)
        doc["two_stage"] = {k: ts[k] for k in ("theta", "beta0", "theta_sigma")}
    _write_json(out_dir / "fit.json", doc)
    _figure_tables(out_dir, cells, model, meta)
    return result


@main.command("run-campaign")
@_common
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; cells always run serially.")
def run_campaign_cmd(seed, config_path, out, sets, workers):
    """Simulate the full (beta, gradient, tau_total) campaign and fit it."""
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    model = cfg.ion_model()
    campaign = run_campaign(cfg.plan, model, cfg.noise, cfg.seed,
                            detection=cfg.detection)
    csv_text = campaign_to_csv(campaign)
    (out_dir / "campaign.csv").write_text(csv_text)
    (out_dir / "campaign.json").write_text(campaign_to_json(campaign))
    result = _fit_outputs(cfg, model, campaign, csv_text, out_dir, chash)
    click.echo(f"wrote campaign + fit + figure tables to {out_dir}")
    click.echo(_theta_text(result))


@main.command("fit")
@_common
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="campaign.csv produced by run-campaign (or hand-made).")
def fit_cmd(seed, config_path, out, sets, data_path):
    """Joint quadrupole-moment fit of an existing campaign CSV."""
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    try:
        csv_text = Path(data_path).read_text()
        campaign = campaign_from_csv(csv_text)
    except (ValueError, KeyError, SimulationError) as exc:
        raise ConfigError(f"bad campaign CSV: {exc}") from None
    click.echo(_theta_text(_fit_outputs(cfg, cfg.ion_model(), campaign,
                                        csv_text, out_dir, chash)))


@main.command("reproduce-paper")
@_common
@click.option("--replications", type=int, default=1, show_default=True,
              help="Number of independently seeded campaign replications.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; cells always run serially.")
@click.option("--no-noise", is_flag=True,
              help="Disable field noise, detection errors and shot noise "
                   "(exact probabilities): deterministic identifiability run.")
def reproduce_paper(seed, config_path, out, sets, replications, workers,
                    no_noise):
    """Run the built-in paper-shaped scenario and report Theta.

    Simulates the dynamic-decoupling campaign at the published operating
    point (Theta_true = 2.973 e*a0^2, B = 3e-4 T, 300 shots per point,
    total precession up to 4 ms), fits it, and reports the estimate
    with its asymmetric 95% CI and a comparison against reference
    values, including the deviation in combined-sigma units.
    """
    base = paper_scenario()
    cfg = _load_scenario(config_path, seed, sets, base=base)
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    if cfg.fit.bootstrap_resamples:
        raise ConfigError("reproduce-paper runs no bootstrap; leave "
                          "fit.bootstrap_resamples at 0")
    if no_noise:
        cfg = replace(cfg, noise=NoiseModel(kind="none"),
                      detection=replace(cfg.detection, eps_bright=0.0,
                                        eps_dark=0.0),
                      plan=replace(cfg.plan, exact_probabilities=True))
    out_dir, chash = _prepare_out(out, cfg)
    model = cfg.ion_model()
    options = _fit_options(cfg, model)

    def replicate(rep_seed):
        """One replication's campaign and its joint fit (result, cells)."""
        plan = cfg.plan
        if plan.per_angle_offsets is None:
            # sub-0.2 rad instrumental offsets at dE-independent level,
            # redrawn per replication, profiled out by the fit
            rng = np.random.default_rng([rep_seed, 0xD0])
            plan = replace(plan, per_angle_offsets=tuple(
                rng.normal(0.0, 0.05, len(plan.beta_list))))
        campaign = run_campaign(plan, model, cfg.noise, rep_seed,
                                detection=cfg.detection)
        return (campaign, *joint_fit_campaign(campaign, **options))

    campaign, primary, cells = replicate(cfg.seed)
    csv_text = campaign_to_csv(campaign)
    (out_dir / "campaign.csv").write_text(csv_text)
    meta = {"config_hash": chash, "dataset_sha256": dataset_digest(csv_text)}
    results = [primary] + [replicate(cfg.seed + rep)[1]
                           for rep in range(1, replications)]

    comparison = theta_comparison_report(primary,
                                         model.species.reference_theta_values)
    reps = [{"seed": cfg.seed + rep, "theta": r.theta,
             "ci95_theta": list(r.ci95_theta), "theta_sigma": r.theta_sigma,
             "covered_truth": bool(r.ci95_theta[0] <= cfg.theta_true
                                   <= r.ci95_theta[1]),
             "chi2": r.chi2, "ndof": r.ndof} for rep, r in enumerate(results)]
    half_widths = [(r.ci95_theta[1] - r.ci95_theta[0]) / 2.0 for r in results]
    report = {
        **meta,
        "theta_true": cfg.theta_true,
        "theta": primary.theta,
        "ci95_theta": list(primary.ci95_theta),
        "theta_sigma": primary.theta_sigma,
        "deviation_from_truth": primary.theta - cfg.theta_true,
        "deviation_from_truth_sigma":
            (primary.theta - cfg.theta_true) / primary.theta_sigma
            if primary.theta_sigma > 0 else None,
        "comparison": [
            dict(row, text=f"{abs(row['deviation_sigma']):.1f}σ away "
                           f"from {row['label']}")
            for row in comparison],
        "replications": reps,
        "coverage_count": sum(r["covered_truth"] for r in reps),
        "median_ci_half_width": float(np.median(half_widths)),
    }
    _write_json(out_dir / "report.json", report)
    _figure_tables(out_dir, cells, model, meta)
    click.echo(f"{_theta_text(primary)}  (truth {cfg.theta_true}, "
               f"{report['coverage_count']}/{replications} covered)")
    for row in report["comparison"]:
        click.echo(f"  {row['text']} ({row['value']} ± {row['sigma']})")


@main.command("parse")
@_common
@click.argument("dsl_file", type=click.Path())
@click.option("--var", "variables", multiple=True, metavar="NAME=VALUE",
              help="Bind a $variable used by the sequence (repeatable).")
def parse_cmd(seed, config_path, out, sets, dsl_file, variables):
    """Validate a pulse-sequence DSL file and echo its canonical form."""
    _ = _load_scenario(config_path, seed, sets)   # config errors still exit 2
    bindings = {}
    for item in variables:
        if "=" not in item:
            raise ConfigError(f"--var expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        try:
            bindings[name] = float(value)
        except ValueError:
            raise ConfigError(f"--var {name}: not a number: {value!r}") from None
    seq = parse_sequence_text(Path(dsl_file).read_text(),
                              variables=bindings)
    canonical = serialize_sequence(seq)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "canonical_sequence.dd").write_text(canonical)
    click.echo(canonical, nl=False)
    click.echo(f"ok: {len(seq.elements)} elements, duration "
               f"{seq.duration():.6g} s")


if __name__ == "__main__":
    main()
