"""Stochastic detection: fringe scans and full measurement campaigns.

Determinism contract: each fringe point draws from its own generator,
seeded by ``SeedSequence([seed, *context, point_index])``; a campaign's
context is ``(2 * cell_index + is_reference,)``.  A point draws its noise
trajectories first (one per shot, a vectorized array indexed by shot)
and its detection draws second.  A scan draws its points' trajectories
in point order and runs the sequence on each point's shots in one of two
ways, chosen by the trajectories' segment count.  A time-varying
trajectory (several segments) runs as soon as it is drawn, on its
point's shots alone.  One-segment trajectories are concatenated, and the
sequence runs once on every point's shots stacked.  Each point then
makes its detection draw, in point order.  A scan without a wait (the
tau = 0 reference) runs the sequence on one state, which no trajectory
can change, but still draws each point's trajectories: they are drawn
only so that the detection draws keep their stream positions.  Every
executor step acts row by row, so results are bit-identical for a given
(plan, model, noise, seed) on either path.

An exact-probability mode replaces sampled counts with real-valued
n * p computed on the noise-free trajectory; it separates dynamics bugs
from statistics bugs in oracle tests.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .atommodel import (IonModel, NoiseModel, NoiseTrajectory,
                        sample_noise_trajectory)
from .errors import SimulationError
from .sequence import (D_BLOCK, PulseSequence, apply_pulses,
                       build_quadrupole_dd_sequence, initial_state,
                       run_sequence)


@dataclass(frozen=True)
class DetectionModel:
    """Binary detection with optional misassignment probabilities."""

    eps_bright: float = 0.0   # P(detect D | ion in S)
    eps_dark: float = 0.0     # P(detect S | ion in D)

    def __post_init__(self):
        if not (0.0 <= self.eps_bright <= 0.5 and 0.0 <= self.eps_dark <= 0.5):
            raise ValueError("detection error probabilities must lie in [0, 0.5]")


@dataclass(frozen=True)
class FringePoint:
    phi_laser: float
    n_shots: int
    k_D: float  # integer count, or real-valued n*p in exact mode


@dataclass(frozen=True)
class FringeDataset:
    points: tuple
    context: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        phis = [p.phi_laser for p in self.points]
        if not all(math.isfinite(phi) for phi in phis):
            raise ValueError("phi_laser must be finite")
        if any(p2 <= p1 for p1, p2 in zip(phis, phis[1:])):
            raise ValueError("phi_laser grid must be strictly increasing")
        for p in self.points:
            if not 0.0 <= p.k_D <= p.n_shots:
                raise ValueError("counts must satisfy 0 <= k_D <= n_shots")


@dataclass(frozen=True)
class CampaignCell:
    beta_nominal: float
    dEz_dz: float
    tau_total: float
    fringe: FringeDataset
    reference_fringe: FringeDataset


@dataclass(frozen=True)
class CampaignDataset:
    cells: tuple
    plan_snapshot: dict = field(default_factory=dict, compare=False)
    model_snapshot: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class CampaignPlan:
    """Grids and sampling parameters for one campaign."""

    beta_list: tuple
    gradient_list: tuple
    tau_total_list: tuple
    n_echo: int = 8
    shots_per_point: int = 300
    n_phases: int = 12
    exact_probabilities: bool = False
    per_angle_offsets: tuple | None = None  # extra rad per angle, signal only

    def __post_init__(self):
        for name in ("beta_list", "gradient_list", "tau_total_list"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError("plan grids must be non-empty")
            # a campaign CSV keys its cells by (beta, gradient, tau_total)
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} entries must be distinct")
        if any(t < 0 for t in self.tau_total_list):
            raise ValueError("tau_total_list entries must be >= 0")
        if self.n_echo < 2 or self.n_echo % 2:
            raise ValueError("n_echo must be even and >= 2")
        if self.shots_per_point < 1:
            raise ValueError("shots_per_point must be >= 1")
        if self.n_phases < 3:     # the fringe fit needs 3 distinct phases
            raise ValueError("n_phases must be >= 3")
        if self.per_angle_offsets is not None \
                and len(self.per_angle_offsets) != len(self.beta_list):
            raise ValueError("per_angle_offsets must match beta_list length")


def default_phi_grid(n_phases: int = 12) -> np.ndarray:
    """Equally spaced laser phases over [0, 2pi)."""
    return np.arange(n_phases) * 2.0 * math.pi / n_phases


def measure_population_D(state: np.ndarray,
                         detection: DetectionModel | None = None):
    """Detection probability: total D population through the error map."""
    p = np.sum(np.abs(state[..., D_BLOCK]) ** 2, axis=-1)
    if detection is not None:
        p = detection.eps_bright + p * (1.0 - detection.eps_bright - detection.eps_dark)
    return p


def run_fringe_scan(n_echo: int, tau: float, model: IonModel, noise: NoiseModel,
                    phi_grid, shots_per_point: int, rng_seed,
                    detection: DetectionModel | None = None,
                    exact: bool = False,
                    extra_phase: float = 0.0,
                    seed_context: tuple = ()) -> FringeDataset:
    """Simulate one Ramsey fringe: one noise trajectory per shot, full
    sequence run, Bernoulli detection, counts aggregated per phase.

    Only the closing pi/2 pulse's laser phase differs between points, so
    the sequence is built once and split before that pulse.  How the
    shared prefix runs depends on each point's trajectory:

    - several segments (a random walk): each point runs the prefix on its
      own shots, as soon as its trajectory is drawn, and then its closing
      pulse, so only one point's walk, wait integrals and state are held;
    - one segment (no noise, a quasi-static offset, or a walk shorter
      than one step): the points' offsets are concatenated into one
      trajectory, the prefix runs once on every point's shots stacked,
      and the P closing pulses are one stacked matmul.

    Exact mode and a scan without a wait (tau = 0, the reference fringe)
    run the prefix on one state, since no trajectory can act on it: each
    point's shots share one detection probability.  Such a scan still
    draws every point's trajectories, only to keep the detection draws in
    place.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size == 0:
        raise ValueError("phi grid must be non-empty")
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    duration = 2.0 * n_echo * tau
    *shared, closing, measure = build_quadrupole_dd_sequence(
        n_echo, tau).elements
    prefix = PulseSequence(tuple(shared) + (measure,))
    closings = [replace(closing, laser_phase=phi + extra_phase)
                for phi in phi_grid]
    init = initial_state("S:-1/2")
    rngs = [] if exact else [
        np.random.default_rng(np.random.SeedSequence(
            _entropy(rng_seed, seed_context, point_idx)))
        for point_idx in range(phi_grid.size)]
    p, offsets = [], []
    for rng, pulse in zip(rngs, closings):
        trajectory = sample_noise_trajectory(noise, duration, rng,
                                             n_shots=shots_per_point)
        if tau == 0:
            continue   # drawn only to keep the detection draws in place
        if trajectory.values.shape[-1] == 1:
            offsets.append(trajectory.values)
        else:
            p.append(_probabilities(run_sequence(
                init, prefix, model, trajectory)[None], [pulse], detection)[0])
        del trajectory   # not held while the next point's is drawn
    if offsets:
        states = run_sequence(init, prefix, model, NoiseTrajectory(
            [0.0, np.inf], np.concatenate(offsets)))
        p = _probabilities(states.reshape(phi_grid.size, shots_per_point, 8),
                           closings, detection)
    elif not p:   # exact mode, or no wait: one state serves every shot
        p = _probabilities(np.broadcast_to(run_sequence(init, prefix, model),
                                           (phi_grid.size, 8)),
                           closings, detection)
    if exact:
        counts = [float(shots_per_point * p_point) for p_point in p]
    else:
        counts = [int(np.sum(rng.random(shots_per_point) < p_point))
                  for rng, p_point in zip(rngs, p)]
    points = tuple(FringePoint(phi_laser=float(phi), n_shots=shots_per_point,
                               k_D=k) for phi, k in zip(phi_grid, counts))
    return FringeDataset(points, context={
        "n_echo": n_echo, "tau": tau, "exact": exact,
        "beta": model.field_cfg.beta, "dEz_dz": model.trap.dEz_dz,
        "B": model.field_cfg.B,
    })


def _probabilities(states: np.ndarray, closings, detection) -> np.ndarray:
    """Detection probability of each state after its point's closing
    pulse; ``states`` has shape (P, ..., 8) for the P pulses."""
    return np.clip(measure_population_D(apply_pulses(states, closings),
                                        detection), 0.0, 1.0)


def _entropy(seed, context, point_idx):
    """Flat non-negative entropy words for SeedSequence."""
    words = [int(seed) & 0xFFFFFFFF]
    for c in context:
        words.append(int(c) & 0xFFFFFFFF)
    words.append(int(point_idx) & 0xFFFFFFFF)
    return words


def _cell_model(model: IonModel, beta_nominal: float, gradient: float) -> IonModel:
    """Per-cell model: true angle = nominal + beta0, requested gradient."""
    field_cfg = replace(model.field_cfg, beta=beta_nominal + model.field_cfg.beta0)
    trap = replace(model.trap, dEz_dz=gradient)
    return replace(model, field_cfg=field_cfg, trap=trap)


def run_campaign(plan: CampaignPlan, model: IonModel, noise: NoiseModel,
                 rng_seed, detection: DetectionModel | None = None,
                 phi_grid=None) -> CampaignDataset:
    """Simulate every (beta, gradient, tau_total) cell plus its tau=0
    reference fringe, one cell after another; each cell draws from its
    own seed substream."""
    if phi_grid is None:
        phi_grid = default_phi_grid(plan.n_phases)
    cells = []
    for angle_idx, beta in enumerate(plan.beta_list):
        offset = (plan.per_angle_offsets[angle_idx]
                  if plan.per_angle_offsets is not None else 0.0)
        for gradient in plan.gradient_list:
            cm = _cell_model(model, beta, gradient)
            for tau_total in plan.tau_total_list:
                idx = len(cells)
                fringe = run_fringe_scan(
                    plan.n_echo, tau_total / (2.0 * plan.n_echo), cm, noise,
                    phi_grid, plan.shots_per_point, rng_seed,
                    detection=detection, exact=plan.exact_probabilities,
                    extra_phase=offset, seed_context=(2 * idx,))
                reference = run_fringe_scan(
                    plan.n_echo, 0.0, cm, noise, phi_grid,
                    plan.shots_per_point, rng_seed, detection=detection,
                    exact=plan.exact_probabilities,
                    seed_context=(2 * idx + 1,))
                cells.append(CampaignCell(
                    beta_nominal=beta, dEz_dz=gradient, tau_total=tau_total,
                    fringe=fringe, reference_fringe=reference))
    return CampaignDataset(tuple(cells),
                           plan_snapshot=plan_snapshot(plan, rng_seed),
                           model_snapshot=model_snapshot(model, noise, detection))


def plan_snapshot(plan: CampaignPlan, seed) -> dict:
    d = asdict(plan)
    d["seed"] = int(seed)
    return d


def model_snapshot(model: IonModel, noise: NoiseModel,
                   detection: DetectionModel | None) -> dict:
    return {
        "species": asdict(model.species),
        "trap": asdict(model.trap),
        "field": asdict(model.field_cfg),
        "theta": model.theta,
        "noise": asdict(noise),
        "detection": asdict(detection) if detection else None,
    }


CSV_COLUMNS = ["beta_nominal", "dEz_dz", "tau_total", "n_echo", "phi_laser",
               "n_shots", "k_D", "is_reference"]


def campaign_to_csv(campaign: CampaignDataset) -> str:
    """One row per fringe point; see docs/formats.md."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in campaign.cells:
        n_echo = cell.fringe.context.get("n_echo", 0)
        for is_ref, fringe in ((0, cell.fringe), (1, cell.reference_fringe)):
            for pt in fringe.points:
                writer.writerow([repr(cell.beta_nominal), repr(cell.dEz_dz),
                                 repr(cell.tau_total), n_echo,
                                 repr(pt.phi_laser), pt.n_shots, repr(pt.k_D),
                                 is_ref])
    return buf.getvalue()


def campaign_from_csv(text: str) -> CampaignDataset:
    """Rebuild a CampaignDataset from its CSV serialization.  Rows may
    come in any order: each fringe's points are sorted by laser phase."""
    reader = csv.DictReader(io.StringIO(text))
    groups: dict = {}
    for row in reader:
        # DictReader files extra fields under None and fills missing ones with None
        if None in row or None in row.values():
            raise ValueError(f"line {reader.line_num}: field count differs "
                             f"from the header's {len(reader.fieldnames)}")
        key = tuple(_finite(row, name)
                    for name in ("beta_nominal", "dEz_dz", "tau_total")
                    ) + (int(row["n_echo"]),)
        flag = row["is_reference"].strip()
        if flag not in ("0", "1"):
            raise ValueError(f"is_reference must be 0 or 1, got "
                             f"{row['is_reference']!r}")
        ks = row["k_D"]
        pt = FringePoint(phi_laser=float(row["phi_laser"]),
                         n_shots=int(row["n_shots"]),
                         k_D=int(ks) if ks.isdigit() else float(ks))
        groups.setdefault(key, ([], []))[int(flag)].append(pt)
    cells = []
    for (beta, grad, tau_total, n_echo), (sig, ref) in groups.items():
        if not sig or not ref:
            raise SimulationError(
                f"cell (beta={beta}, dEz_dz={grad}, tau_total={tau_total}) "
                "is missing its signal or reference fringe")
        tau = tau_total / (2.0 * n_echo) if n_echo else 0.0
        ctx = {"n_echo": n_echo, "tau": tau}
        cells.append(CampaignCell(
            beta_nominal=beta, dEz_dz=grad, tau_total=tau_total,
            fringe=FringeDataset(_by_phase(sig), context=dict(ctx)),
            reference_fringe=FringeDataset(_by_phase(ref),
                                           context=dict(ctx, tau=0.0))))
    return CampaignDataset(tuple(cells))


def _by_phase(points: list) -> tuple:
    return tuple(sorted(points, key=lambda pt: pt.phi_laser))


def _finite(row: dict, name: str) -> float:
    value = float(row[name])
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {row[name]!r}")
    return value


def campaign_to_json(campaign: CampaignDataset) -> str:
    """Provenance document: plan, model snapshot, and all counts."""
    doc = {
        "plan": campaign.plan_snapshot,
        "model": campaign.model_snapshot,
        "cells": [{
            "beta_nominal": c.beta_nominal,
            "dEz_dz": c.dEz_dz,
            "tau_total": c.tau_total,
            "fringe": [asdict(p) for p in c.fringe.points],
            "reference_fringe": [asdict(p) for p in c.reference_fringe.points],
        } for c in campaign.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
