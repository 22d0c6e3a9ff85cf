"""Command-line interface.

Every subcommand takes ``--seed``, ``--config`` (INI scenario file) and
``--out`` (output directory), writes back the fully resolved
configuration it ran with, and embeds that config's hash in each output
so any run can be reproduced byte-identically from its own artifacts.

Exit codes: 0 success, 2 configuration or input error, 3 simulation error,
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
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import click
import numpy as np

from . import __version__
from .atommodel import BASIS_LABELS, NoiseModel, arm_phase_rate
from .config import (ScenarioConfig, apply_settings, config_hash, dump_config,
                     load_config, paper_scenario)
from .errors import ConfigError, DDQuadError, FitError, SimulationError
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
    if isinstance(exc, FitError) and getattr(exc, "diagnostics", None):
        payload["diagnostics"] = exc.diagnostics
    click.echo(json.dumps(payload, sort_keys=True, default=_jsonable),
               err=True)
    sys.exit(code)


def _jsonable(obj):
    """``default`` hook of json.dumps: numpy scalars and arrays as plain
    values.  An np.float64 is a float, so json writes it as ``float(x)``."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load_scenario(config_path, seed, sets, scenario=ScenarioConfig):
    """The configuration a command runs with: ``scenario()`` (the defaults
    or ``paper_scenario``), then ``--config``, ``--set`` and ``--seed``."""
    cfg = scenario()
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


def _csv_table(header, rows, meta: dict) -> str:
    """CSV with a leading '#' metadata line so the hash travels with it."""
    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write_csv(path: Path, text: str):
    """Every CSV output, the tables and campaign.csv alike."""
    path.write_text(text)


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True, indent=1,
                               default=_jsonable) + "\n")


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
        except ConfigError as exc:
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
    # plain strings, not click.Path: an unreadable file then fails where it
    # is read, through the exit-code table, not as a click usage error
    fn = click.option("--config", "config_path", metavar="PATH",
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
    if n_areas < 2 or max_area <= 0:
        raise ConfigError("need n_areas >= 2 and max_area > 0")
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
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
    _write_csv(out_dir / "rabi.csv",
               _csv_table(header, rows, {"config_hash": chash}))
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
    if tau_total is not None and tau_total < 0:
        raise ConfigError("--tau-total must be >= 0")
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    plan = cfg.plan
    if tau_total is None:
        tau_total = plan.tau_total_list[0]
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
    _write_csv(out_dir / "fringe.csv", _csv_table(
        ["phi_laser", "n_shots", "k_D", "is_reference"], rows,
        {"config_hash": chash, "tau_total": tau_total, "n_echo": plan.n_echo}))

    fit = fit_fringe_mle(data)
    doc = {"config_hash": chash, "tau_total": tau_total,
           "n_echo": plan.n_echo,
           "analytic_phase": analytic_phase(plan.n_echo, tau, model),
           "fit": vars(fit)}
    if ref is not None:
        rfit = fit_fringe_mle(ref)
        doc["reference_fit"] = vars(rfit)
        doc["phi_total"] = phase_difference(fit, rfit)
    _write_json(out_dir / "fringe_fit.json", doc)
    click.echo(f"wrote {out_dir / 'fringe.csv'} and fringe_fit.json")


# ---------------------------------------------------------------------------


def _figure_tables(out_dir: Path, cell_phases, model, meta: dict):
    """Plot-ready tables: phase vs tau per gradient, frequency vs
    gradient, and phase vs beta per gradient.  ``cell_phases`` come in
    campaign order: by angle, then gradient, then tau_total."""
    rows = [[repr(c.beta_nominal), repr(c.dEz_dz), repr(c.tau_total),
             repr(c.phi_total), repr(c.sigma), int(c.ambiguous)]
            for c in cell_phases]
    _write_csv(out_dir / "phase_vs_tau.csv", _csv_table(
        ["beta_nominal", "dEz_dz", "tau_total", "phi_total", "sigma",
         "ambiguous"], rows, meta))

    freq_rows, beta_rows = [], []
    for (beta, grad), recs in groupby(cell_phases,
                                      attrgetter("beta_nominal", "dEz_dz")):
        recs = list(recs)
        if len({c.tau_total for c in recs}) >= 2:
            fit = fit_phase_vs_time([(c.tau_total, c.phi_total, c.sigma)
                                     for c in recs])
            freq_rows.append([repr(beta), repr(grad), repr(fit["slope_hz"]),
                              repr(fit["slope_hz_sigma"]),
                              repr(fit["chi2"] / fit["ndof"] if fit["ndof"]
                                   else math.nan)])
        r = recs[-1]    # the longest precession time
        # the scenario's own prediction: its Theta and beta0, no offsets
        rate = arm_phase_rate(replace(model.trap, dEz_dz=grad), model.theta,
                              beta + model.field_cfg.beta0)
        pred = r.tau_total * rate  # phi = 2*n*tau*rate, tau_total = 2*n*tau
        beta_rows.append([repr(beta), repr(grad), repr(r.tau_total),
                          repr(r.phi_total), repr(r.sigma), repr(pred)])
    _write_csv(out_dir / "frequency_vs_gradient.csv", _csv_table(
        ["beta_nominal", "dEz_dz", "frequency_hz", "sigma_hz",
         "reduced_chi2"], freq_rows, meta))
    _write_csv(out_dir / "phase_vs_beta.csv", _csv_table(
        ["beta_nominal", "dEz_dz", "tau_total", "phi_total", "sigma",
         "model_phase"], beta_rows, meta))


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
    # the record's own fields, which json walks; asdict's deep copy took
    # 0.13 ms here, twice json.dumps of the document (2-core x86 host)
    doc = {**meta, **vars(result), "two_stage": None,
           "reduced_chi2": result.chi2 / result.ndof if result.ndof else None}
    doc["diagnostics"] = {k: v for k, v in doc.pop("fit_diagnostics").items()
                          if k != "profile_samples"}
    if cfg.fit.bootstrap_resamples:
        doc["bootstrap_ci95_theta"] = bootstrap_ci(
            campaign, cfg.fit.bootstrap_resamples, cfg.seed, **options)
    # optional: needs >= 2 gradients and >= 2 precession times
    with contextlib.suppress(FitError):
        ts = two_stage_theta(cells, alpha_trap=model.trap.alpha)
        doc["two_stage"] = {k: ts[k] for k in ("theta", "beta0", "theta_sigma")}
    _write_json(out_dir / "fit.json", doc)
    _figure_tables(out_dir, cells, model, meta)
    return result


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


@main.command("run-campaign")
@_common
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; must be >= 1. Cells run "
                   "serially, and a long random-walk scan's points on one "
                   "thread per CPU.")
def run_campaign_cmd(seed, config_path, out, sets, workers):
    """Simulate the full (beta, gradient, tau_total) campaign and fit it."""
    _check_workers(workers)
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    model = cfg.ion_model()
    campaign = run_campaign(cfg.plan, model, cfg.noise, cfg.seed,
                            detection=cfg.detection)
    csv_text = campaign_to_csv(campaign)
    _write_csv(out_dir / "campaign.csv", csv_text)
    (out_dir / "campaign.json").write_text(campaign_to_json(
        campaign, cfg.plan, model, cfg.noise, cfg.seed, cfg.detection))
    result = _fit_outputs(cfg, model, campaign, csv_text, out_dir, chash)
    click.echo(f"wrote campaign + fit + figure tables to {out_dir}")
    click.echo(_theta_text(result))


@main.command("fit")
@_common
@click.option("--data", "data_path", metavar="PATH", required=True,
              help="campaign.csv produced by run-campaign (or hand-made).")
def fit_cmd(seed, config_path, out, sets, data_path):
    """Joint quadrupole-moment fit of an existing campaign CSV."""
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    try:
        csv_text = Path(data_path).read_text()
        campaign = campaign_from_csv(csv_text)
    except ValueError as exc:
        raise ConfigError(f"bad campaign CSV: {exc}") from None
    # the line is ASCII, so print needs none of click.echo's stream set-up
    print(_theta_text(_fit_outputs(cfg, cfg.ion_model(), campaign,
                                   csv_text, out_dir, chash)))


@main.command("reproduce-paper")
@_common
@click.option("--replications", type=int, default=1, show_default=True,
              help="Number of independently seeded campaign replications.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; must be >= 1. Cells run "
                   "serially, and a long random-walk scan's points on one "
                   "thread per CPU.")
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
    _check_workers(workers)
    cfg = _load_scenario(config_path, seed, sets, scenario=paper_scenario)
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    # replication k runs seed + k, and the sampler reads 32 bits of it
    if cfg.seed + replications - 1 >= 2 ** 32:
        raise ConfigError(f"seed + replications - 1 must be < 2**32, got "
                          f"{cfg.seed} + {replications} - 1")
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
    _write_csv(out_dir / "campaign.csv", csv_text)
    meta = {"config_hash": chash, "dataset_sha256": dataset_digest(csv_text)}
    results = [primary] + [replicate(cfg.seed + rep)[1]
                           for rep in range(1, replications)]

    comparison = theta_comparison_report(primary,
                                         model.species.reference_theta_values)
    reps = [{"seed": cfg.seed + rep, "theta": r.theta,
             "ci95_theta": r.ci95_theta, "theta_sigma": r.theta_sigma,
             "covered_truth": bool(r.ci95_theta[0] <= cfg.theta_true
                                   <= r.ci95_theta[1]),
             "chi2": r.chi2, "ndof": r.ndof} for rep, r in enumerate(results)]
    half_widths = [(r.ci95_theta[1] - r.ci95_theta[0]) / 2.0 for r in results]
    report = {
        **meta,
        "theta_true": cfg.theta_true,
        "theta": primary.theta,
        "ci95_theta": primary.ci95_theta,
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


if __name__ == "__main__":
    main()
