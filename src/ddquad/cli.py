"""Command-line interface.

Every subcommand takes ``--seed``, ``--config`` (INI scenario file) and
``--out`` (output directory), writes back the fully resolved
configuration it ran with, and embeds that config's hash in each output
so any run can be reproduced byte-identically from its own artifacts.

Exit codes: 0 success, 2 configuration/parse error, 3 simulation error,
4 fit error.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .atommodel import NoiseModel, arm_phase_rate, quadrupole_geometry
from .config import (ScenarioConfig, config_hash, dump_config, load_config,
                     paper_scenario)
from .dsl import parse_sequence_text, serialize_sequence
from .errors import ConfigError, DDQuadError, FitError, SequenceSyntaxError, \
    SequenceSemanticError, SimulationError
from .estimator import (bootstrap_ci, dataset_digest, fit_fringe_mle,
                        fit_phase_vs_time, joint_fit_campaign,
                        phase_difference, theta_comparison_report,
                        two_stage_theta)
from .sampler import (campaign_from_csv, campaign_to_csv, campaign_to_json,
                      default_phi_grid, run_campaign, run_fringe_scan)
from .sequence import (analytic_phase, build_quadrupole_dd_sequence,
                       initial_state)
from .spincore import rotation_unitary

EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4

D_M_LABELS = ["-5/2", "-3/2", "-1/2", "+1/2", "+3/2", "+5/2"]


def _fail(exc: Exception, code: int):
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
    try:
        if config_path is not None:
            cfg = load_config(Path(config_path).read_text(), base=cfg)
        if sets:
            override = io.StringIO()
            sections: dict = {}
            for item in sets:
                if "=" not in item or "." not in item.split("=", 1)[0]:
                    raise ConfigError(
                        f"--set expects section.key=value, got {item!r}")
                key, value = item.split("=", 1)
                section, name = key.split(".", 1)
                sections.setdefault(section, []).append((name, value))
            for section, pairs in sections.items():
                override.write(f"[{section}]\n")
                for name, value in pairs:
                    override.write(f"{name} = {value}\n")
            cfg = load_config(override.getvalue(), base=cfg)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
    except (ConfigError, OSError) as exc:
        _fail(exc if isinstance(exc, ConfigError) else ConfigError(str(exc)),
              EXIT_CONFIG)
    except ValueError as exc:
        _fail(ConfigError(str(exc)), EXIT_CONFIG)
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


@click.group()
@click.version_option(version=__version__, prog_name="ddquad")
def main():
    """Simulate and analyze dynamic-decoupling quadrupole-moment runs."""


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
@click.option("--max-area", type=float, default=4.0 * math.pi,
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
    try:
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
    except DDQuadError as exc:
        _fail(exc, EXIT_SIMULATION)
    header = ["init_state", "area"] + [f"p_m_{m}" for m in D_M_LABELS]
    _write_csv(out_dir / "rabi.csv", header, rows, {"config_hash": chash})
    click.echo(f"wrote {out_dir / 'rabi.csv'}")


@main.command("simulate-fringe")
@_common
@click.option("--tau-total", type=float, default=None,
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
    try:
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
    except DDQuadError as exc:
        _fail(exc, EXIT_SIMULATION)
    except ValueError as exc:
        _fail(SimulationError(str(exc)), EXIT_SIMULATION)

    rows = [[repr(p.phi_laser), p.n_shots, repr(p.k_D), 0] for p in data.points]
    if ref is not None:
        rows += [[repr(p.phi_laser), p.n_shots, repr(p.k_D), 1]
                 for p in ref.points]
    _write_csv(out_dir / "fringe.csv",
               ["phi_laser", "n_shots", "k_D", "is_reference"], rows,
               {"config_hash": chash, "tau_total": tau_total,
                "n_echo": plan.n_echo})

    try:
        fit = fit_fringe_mle(data)
        doc = {"config_hash": chash, "tau_total": tau_total,
               "n_echo": plan.n_echo,
               "analytic_phase": analytic_phase(plan.n_echo, tau, model),
               "fit": _fringe_fit_doc(fit)}
        if ref is not None:
            rfit = fit_fringe_mle(ref)
            doc["reference_fit"] = _fringe_fit_doc(rfit)
            doc["phi_total"] = phase_difference(fit, rfit)
    except FitError as exc:
        _fail(exc, EXIT_FIT)
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


def _fit_campaign(cfg: ScenarioConfig, campaign, chash, digest, zeeman2_hz):
    """Joint fit and its fit.json document, with the bootstrap CI when
    ``fit.bootstrap_resamples`` is set.  Returns (result, cells, doc)."""
    options = dict(alpha_trap=cfg.trap.alpha,
                   float_epsilon1=cfg.fit.float_epsilon1, zeeman2_hz=zeeman2_hz)
    try:
        result, cells = joint_fit_campaign(campaign, **options)
        doc = {
            "config_hash": chash, "dataset_sha256": digest,
            "theta": result.theta, "theta_sigma": result.theta_sigma,
            "ci95_theta": list(result.ci95_theta),
            "beta0": result.beta0, "epsilon1": result.epsilon1,
            "per_angle_offsets": list(result.per_angle_offsets),
            "chi2": result.chi2, "ndof": result.ndof,
            "reduced_chi2": result.chi2 / result.ndof if result.ndof else None,
            "diagnostics": {k: v for k, v in result.fit_diagnostics.items()
                            if k != "profile_samples"},
        }
        if cfg.fit.bootstrap_resamples:
            doc["bootstrap_ci95_theta"] = list(bootstrap_ci(
                campaign, cfg.fit.bootstrap_resamples, cfg.seed, **options))
    except FitError as exc:
        _fail(exc, EXIT_FIT)
    return result, cells, doc


@main.command("run-campaign")
@_common
@click.option("--sequence-file", type=click.Path(), default=None,
              help="DSL file of the built-in echo sequence; it sets n_echo "
                   "only (tau comes from plan.tau_total_list). Any other "
                   "sequence exits 2.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; cells always run serially.")
def run_campaign_cmd(seed, config_path, out, sets, sequence_file, workers):
    """Simulate the full (beta, gradient, tau_total) campaign and fit it."""
    cfg = _load_scenario(config_path, seed, sets)
    if sequence_file is not None:
        try:
            seq = parse_sequence_text(Path(sequence_file).read_text(),
                                      variables={"phi_laser": 0.0})
            if seq.n_echo is None:
                raise ConfigError(
                    "sequence file has no echo block; cannot set n_echo")
            builtin = build_quadrupole_dd_sequence(seq.n_echo, seq.tau or 0.0)
            for i, (got, want) in enumerate(itertools.zip_longest(
                    seq.elements, builtin.elements), start=1):
                if got != want:
                    raise ConfigError(
                        f"sequence file differs from the built-in echo "
                        f"sequence at element {i}: {got or 'nothing'} where "
                        f"the built-in has {want or 'nothing'}; only its "
                        f"n_echo is used, so it must be that sequence")
            cfg = replace(cfg, plan=replace(cfg.plan, n_echo=seq.n_echo))
        except (SequenceSyntaxError, SequenceSemanticError, ConfigError,
                OSError) as exc:
            _fail(exc if isinstance(exc, DDQuadError) else ConfigError(str(exc)),
                  EXIT_CONFIG)
        except ValueError as exc:
            _fail(ConfigError(str(exc)), EXIT_CONFIG)
    out_dir, chash = _prepare_out(out, cfg)
    model = cfg.ion_model()
    try:
        campaign = run_campaign(cfg.plan, model, cfg.noise, cfg.seed,
                                detection=cfg.detection,
                                phi_grid=default_phi_grid(cfg.plan.n_phases),
                                workers=workers)
    except DDQuadError as exc:
        _fail(exc, EXIT_SIMULATION)
    except ValueError as exc:
        _fail(SimulationError(str(exc)), EXIT_SIMULATION)

    csv_text = campaign_to_csv(campaign)
    (out_dir / "campaign.csv").write_text(csv_text)
    (out_dir / "campaign.json").write_text(campaign_to_json(campaign))
    digest = dataset_digest(csv_text)

    zeeman2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    result, cells, doc = _fit_campaign(cfg, campaign, chash, digest, zeeman2)
    _write_json(out_dir / "fit.json", doc)
    _figure_tables(out_dir, cells, model, {"config_hash": chash,
                                           "dataset_sha256": digest})
    click.echo(f"wrote campaign + fit + figure tables to {out_dir}")
    click.echo(f"theta = {result.theta:.4f}  "
               f"ci95 = [{result.ci95_theta[0]:.4f}, {result.ci95_theta[1]:.4f}]")


@main.command("fit")
@_common
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="campaign.csv produced by run-campaign (or hand-made).")
@click.option("--zeeman2-hz", type=float, default=None,
              help="Known differential second-order Zeeman shift C2*B^2 "
                   "(Hz) to remove; defaults to the configured model's.")
def fit_cmd(seed, config_path, out, sets, data_path, zeeman2_hz):
    """Joint quadrupole-moment fit of an existing campaign CSV."""
    cfg = _load_scenario(config_path, seed, sets)
    out_dir, chash = _prepare_out(out, cfg)
    try:
        csv_text = Path(data_path).read_text()
        campaign = campaign_from_csv(csv_text)
    except OSError as exc:
        _fail(ConfigError(str(exc)), EXIT_CONFIG)
    except (ValueError, KeyError, SimulationError) as exc:
        _fail(ConfigError(f"bad campaign CSV: {exc}"), EXIT_CONFIG)
    model = cfg.ion_model()
    if zeeman2_hz is None:
        zeeman2_hz = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    digest = dataset_digest(csv_text)
    result, cells, doc = _fit_campaign(cfg, campaign, chash, digest,
                                       zeeman2_hz)
    try:
        ts = two_stage_theta(cells, alpha_trap=model.trap.alpha)
        doc["two_stage"] = {k: ts[k] for k in ("theta", "beta0", "theta_sigma")}
    except FitError:
        # needs >= 2 gradients and >= 2 precession times; optional
        doc["two_stage"] = None
    _write_json(out_dir / "fit.json", doc)
    _figure_tables(out_dir, cells, model, {"config_hash": chash,
                                           "dataset_sha256": digest})
    click.echo(f"theta = {result.theta:.4f}  "
               f"ci95 = [{result.ci95_theta[0]:.4f}, {result.ci95_theta[1]:.4f}]")


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
        _fail(ConfigError("replications must be >= 1"), EXIT_CONFIG)
    if cfg.fit.bootstrap_resamples:
        _fail(ConfigError("reproduce-paper runs no bootstrap; leave "
                          "fit.bootstrap_resamples at 0"), EXIT_CONFIG)
    if no_noise:
        cfg = replace(cfg, noise=NoiseModel(kind="none"),
                      detection=replace(cfg.detection, eps_bright=0.0,
                                        eps_dark=0.0),
                      plan=replace(cfg.plan, exact_probabilities=True))
    out_dir, chash = _prepare_out(out, cfg)
    model = cfg.ion_model()
    zeeman2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2

    reps = []
    first_cells = None
    first_digest = None
    try:
        for rep in range(replications):
            rep_seed = cfg.seed + rep
            plan = cfg.plan
            if plan.per_angle_offsets is None:
                # sub-0.2 rad instrumental offsets at dE-independent level,
                # redrawn per replication, profiled out by the fit
                rng = np.random.default_rng([rep_seed, 0xD0])
                plan = replace(plan, per_angle_offsets=tuple(
                    rng.normal(0.0, 0.05, len(plan.beta_list))))
            campaign = run_campaign(plan, model, cfg.noise, rep_seed,
                                    detection=cfg.detection,
                                    phi_grid=default_phi_grid(plan.n_phases),
                                    workers=workers)
            result, cells = joint_fit_campaign(
                campaign, alpha_trap=model.trap.alpha,
                float_epsilon1=cfg.fit.float_epsilon1, zeeman2_hz=zeeman2)
            covered = result.ci95_theta[0] <= cfg.theta_true <= result.ci95_theta[1]
            reps.append({"seed": rep_seed, "theta": result.theta,
                         "ci95_theta": list(result.ci95_theta),
                         "theta_sigma": result.theta_sigma,
                         "covered_truth": bool(covered),
                         "chi2": result.chi2, "ndof": result.ndof,
                         "result": result})
            if rep == 0:
                first_cells = cells
                csv_text = campaign_to_csv(campaign)
                (out_dir / "campaign.csv").write_text(csv_text)
                first_digest = dataset_digest(csv_text)
    except FitError as exc:
        _fail(exc, EXIT_FIT)
    except DDQuadError as exc:
        _fail(exc, EXIT_SIMULATION)
    except ValueError as exc:
        _fail(SimulationError(str(exc)), EXIT_SIMULATION)

    primary = reps[0]["result"]
    comparison = theta_comparison_report(primary,
                                         model.species.reference_theta_values)
    half_widths = [(r["ci95_theta"][1] - r["ci95_theta"][0]) / 2.0
                   for r in reps]
    report = {
        "config_hash": chash,
        "dataset_sha256": first_digest,
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
        "replications": [{k: v for k, v in r.items() if k != "result"}
                         for r in reps],
        "coverage_count": sum(r["covered_truth"] for r in reps),
        "median_ci_half_width": float(np.median(half_widths)),
    }
    _write_json(out_dir / "report.json", report)
    _figure_tables(out_dir, first_cells, model,
                   {"config_hash": chash, "dataset_sha256": first_digest})
    click.echo(f"theta = {primary.theta:.4f}  "
               f"ci95 = [{primary.ci95_theta[0]:.4f}, "
               f"{primary.ci95_theta[1]:.4f}]  "
               f"(truth {cfg.theta_true}, "
               f"{report['coverage_count']}/{replications} covered)")
    for row in report["comparison"]:
        click.echo(f"  {row['text']} ({row['value']} ± {row['sigma']})")


@main.command("parse")
@_common
@click.argument("sequence_file", type=click.Path())
@click.option("--var", "variables", multiple=True, metavar="NAME=VALUE",
              help="Bind a $variable used by the sequence (repeatable).")
def parse_cmd(seed, config_path, out, sets, sequence_file, variables):
    """Validate a pulse-sequence DSL file and echo its canonical form."""
    _ = _load_scenario(config_path, seed, sets)   # config errors still exit 2
    bindings = {}
    for item in variables:
        if "=" not in item:
            _fail(ConfigError(f"--var expects NAME=VALUE, got {item!r}"),
                  EXIT_CONFIG)
        name, value = item.split("=", 1)
        try:
            bindings[name] = float(value)
        except ValueError:
            _fail(ConfigError(f"--var {name}: not a number: {value!r}"),
                  EXIT_CONFIG)
    try:
        text = Path(sequence_file).read_text()
    except OSError as exc:
        _fail(ConfigError(str(exc)), EXIT_CONFIG)
    try:
        seq = parse_sequence_text(text, variables=bindings)
    except (SequenceSyntaxError, SequenceSemanticError) as exc:
        _fail(exc, EXIT_CONFIG)
    canonical = serialize_sequence(seq)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "canonical_sequence.dd").write_text(canonical)
    click.echo(canonical, nl=False)
    click.echo(f"ok: {len(seq.elements)} elements, duration "
               f"{seq.duration():.6g} s, n_echo={seq.n_echo}")


if __name__ == "__main__":
    main()
