"""Stochastic detection: fringe scans and full measurement campaigns.

Determinism contract: each fringe point draws from its own generator,
seeded by ``SeedSequence([seed, *context, point_index])``, given as one
row of 32-bit words; a campaign's context is ``(2 * cell_index +
is_reference,)``, with cells numbered in plan order.  A point draws its
noise trajectories first (one per shot, a vectorized array indexed by
shot) and its detection draws second: all its shots' uniforms in one
call.  A scan runs the sequence on each point's shots in one of two
ways, chosen by the segment count of the noise over the scan's
duration.  A time-varying point (several segments) draws its
trajectories in blocks of ``SQUARE_BLOCK_ROWS`` shots, which are the
draws of one call since numpy fills rows in order, and takes each
block's wait integrals as it is drawn; the sequence then runs on all
its shots from those integrals, up to its detection probabilities.
These points run on a thread pool of one worker per CPU, with their
results kept in point order: each draws only from its own generator, so
nothing depends on the pool.  They run inline on one CPU, and where each
point draws fewer than ``POOL_MIN_NORMALS`` normals (shots x segments):
the pool pays only when a point's draws, which release the GIL, outweigh
its work that holds the GIL.  One-segment
trajectories are drawn in point order and concatenated, and the
sequence runs once on every point's shots stacked.  A scan without a
wait (the tau = 0 reference) runs the sequence on one noise-free row
per point, which no trajectory can change, but still draws each
point's trajectories: they are drawn only so that the detection draws
keep their stream positions.  The closing pulses of the stacked rows
are one rotation with a U^T per point.  Each point then makes its
detection draw, in point order, into its row of one array, and one
comparison gives the counts.  Every executor step acts row by row, the
trajectory integrals by blocks that start at the same rows however
the walk is drawn, and the stacked closing pulse point by point, so
results are bit-identical for a given (plan, model, noise, seed) on
either path and on any pool.

An exact-probability mode replaces sampled counts with real-valued
n * p computed on the noise-free trajectory; it separates dynamics bugs
from statistics bugs in oracle tests.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from .atommodel import (SQUARE_BLOCK_ROWS, IonModel, NoiseModel,
                        NoiseTrajectory, sample_noise_trajectory)
from .sequence import (D_BLOCK, PulseSequence, _apply_pulse, _compile,
                       _optical_op, build_quadrupole_dd_sequence,
                       initial_state, run_sequence, wait_integrals)


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
    # run_fringe_scan's {"exact": ...}; empty for a fringe read from CSV
    context: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        phis = [p.phi_laser for p in self.points]
        if not all(math.isfinite(phi) for phi in phis):
            raise ValueError("phi_laser must be finite")
        if any(p2 <= p1 for p1, p2 in zip(phis, phis[1:])):
            raise ValueError("phi_laser grid must be strictly increasing")
        for p in self.points:
            if p.n_shots < 1:
                raise ValueError("every point needs n_shots >= 1")
            if not 0.0 <= p.k_D <= p.n_shots:
                raise ValueError("counts must satisfy 0 <= k_D <= n_shots")


@dataclass(frozen=True)
class CampaignCell:
    """One cell of a campaign: the key of its campaign.csv rows, its
    n_echo-pulse echo fringe and its tau = 0 reference fringe."""

    beta_nominal: float
    dEz_dz: float
    tau_total: float
    n_echo: int
    fringe: FringeDataset
    reference_fringe: FringeDataset


@dataclass(frozen=True)
class CampaignDataset:
    """A campaign's cells, held in (beta_nominal, dEz_dz, tau_total) order
    whatever order they are given in; cells that tie on that key keep
    theirs.  The estimator sums and draws over cells in this order, so
    two datasets of the same cells fit to the same bytes."""

    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(sorted(
            self.cells, key=lambda c: (c.beta_nominal, c.dEz_dz, c.tau_total))))


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
    the sequence, split before that pulse, is built once per (n_echo,
    tau), and the P closing pulses are one stacked (P, 2, 2) U^T.  How
    the shared prefix runs depends on each point's trajectory:

    - several segments (a random walk): each point draws its walk and
      takes its wait integrals one block of ``SQUARE_BLOCK_ROWS`` shots
      at a time, then runs the prefix on all its shots from those
      integrals, then its own row of the stacked closing pulse, and
      keeps only its detection probabilities.  The points run on a
      thread pool of one worker per CPU, at most one per point, so each
      worker holds one point's wait integrals and state, and one block
      of its walk; they run inline on one CPU, or where each point draws
      fewer than ``POOL_MIN_NORMALS`` normals;
    - one segment (no noise, a quasi-static offset, or a walk shorter
      than one step): the points' offsets are concatenated into one
      trajectory, and the prefix runs once on every point's shots,
      stacked as a (P, shots, 8) array;
    - exact mode, or a scan without a wait (tau = 0, the reference
      fringe): no trajectory can act on the prefix, so it runs on one
      noise-free row per point, a (P, 1, 8) array: each point's shots
      share one detection probability.  Such a scan still draws every
      point's trajectories, only to keep the detection draws in place.

    The stacked closing pulse then rotates the (P, rows, 8) array in one
    call, and the detection probabilities follow in one more.  Each
    point's uniforms, drawn from its own generator in point order, fill
    its row of one (P, shots) array, and one comparison gives every
    count.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size == 0:
        raise ValueError("phi grid must be non-empty")
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    phases = phi_grid + extra_phase
    if not np.isfinite(phases).all():
        raise ValueError("laser phase must be finite")
    prefix, closing, bounds = _scan_sequence(n_echo, tau)
    columns, u_t = _optical_op(closing, phases)
    init = initial_state("S:-1/2")
    rngs = [] if exact else [
        np.random.default_rng(np.random.SeedSequence(words)) for words in
        _entropy(rng_seed, seed_context, np.arange(phi_grid.size))]
    duration = 2.0 * n_echo * tau
    segments = noise.segments(duration)
    if rngs and segments > 1:
        def walk_point(rng, u_point):
            """A time-varying point's detection probabilities, its walk
            drawn and integrated one block of rows at a time."""
            blocks = [min(SQUARE_BLOCK_ROWS, shots_per_point - i)
                      for i in range(0, shots_per_point, SQUARE_BLOCK_ROWS)]
            integrals = np.concatenate([wait_integrals(
                sample_noise_trajectory(noise, duration, rng, n_shots=n),
                *bounds) for n in blocks])
            return _probabilities(_apply_pulse(run_sequence(
                init, prefix, model, integrals=integrals), columns, u_point),
                detection)

        p = _map_points(walk_point, shots_per_point * segments, rngs, u_t)
    else:   # stacked rows, or one noise-free row per point
        # at tau = 0, drawn only to keep the detection draws in place
        offsets = [sample_noise_trajectory(noise, duration, rng,
                                           n_shots=shots_per_point).values
                   for rng in rngs]
        states = run_sequence(init, prefix, model, NoiseTrajectory(
            [0.0, np.inf], np.concatenate(offsets) if offsets and tau
            else np.zeros((phi_grid.size, 1))))
        p = _probabilities(_apply_pulse(states.reshape(
            phi_grid.size, -1, 8), columns, u_t), detection)
    if exact:
        counts = (shots_per_point * p[:, 0]).tolist()
    else:
        uniforms = np.empty((phi_grid.size, shots_per_point))
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        counts = np.count_nonzero(
            uniforms < np.reshape(p, (phi_grid.size, -1)), axis=1).tolist()
    points = tuple(FringePoint(phi_laser=float(phi), n_shots=shots_per_point,
                               k_D=k) for phi, k in zip(phi_grid, counts))
    return FringeDataset(points, context={"exact": exact})


# Fewest normals a random-walk point draws (shots x segments) for its
# scan's points to run on the pool: where the two cost the same.  Single
# 8-point scans on a 2-core x86 host, one BLAS thread: the pool lost at
# 12k (9.8 against 5.9 ms inline) and, in 8 of 26 runs, at 60k; it tied
# at 80k (17.4 against 17.9 ms) and won from 90k on (800k, drift_fringe's:
# 111 against 184 ms).
POOL_MIN_NORMALS = 80_000


def _map_points(fn, normals: int, *args) -> list:
    """``fn`` over the points' arguments, results in point order: on a
    thread pool of one worker per CPU, at most one per point, or inline
    on one CPU or where each point draws fewer than ``POOL_MIN_NORMALS``
    normals.  Each point draws only from its own generator, so no result
    depends on the pool; numpy draws and integrates with the GIL
    released, so the workers overlap."""
    workers = (min(_cpu_count(), len(args[0]))
               if normals >= POOL_MIN_NORMALS else 1)
    if workers < 2:
        return list(map(fn, *args))
    # imported here only: it adds 4-7 ms to every start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, *args))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=16)
def _scan_sequence(n_echo: int, tau: float) -> tuple:
    """A scan's shared prefix, ending in Measure, its closing pi/2 pulse
    and the prefix's merged-wait bounds (starts, ends), built once per
    (n_echo, tau)."""
    *shared, closing, measure = build_quadrupole_dd_sequence(
        n_echo, tau).elements
    prefix = PulseSequence(tuple(shared) + (measure,))
    return prefix, closing, _compile(prefix.elements)[1:]


def _probabilities(states: np.ndarray, detection) -> np.ndarray:
    """Detection probability of states after their closing pulses."""
    return np.clip(measure_population_D(states, detection), 0.0, 1.0)


def _entropy(seed, context, point_idx):
    """Non-negative 32-bit entropy words for SeedSequence, [seed,
    *context, point], one row per entry of ``point_idx``."""
    idx = np.asarray(point_idx)
    words = np.empty(idx.shape + (len(context) + 2,), dtype=np.uint32)
    words[...] = [int(w) & 0xFFFFFFFF for w in (seed, *context, 0)]
    words[..., -1] = idx & 0xFFFFFFFF
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
    reference fringe, one cell after another in plan order; each cell
    draws from its own seed substream, numbered in plan order.  The
    dataset holds the cells in (beta, gradient, tau_total) order."""
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
                    n_echo=plan.n_echo, fringe=fringe,
                    reference_fringe=reference))
    return CampaignDataset(tuple(cells))


CSV_COLUMNS = ["beta_nominal", "dEz_dz", "tau_total", "n_echo", "phi_laser",
               "n_shots", "k_D", "is_reference"]


def campaign_to_csv(campaign: CampaignDataset) -> str:
    """One row per fringe point; see docs/formats.md."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in campaign.cells:
        for is_ref, fringe in ((0, cell.fringe), (1, cell.reference_fringe)):
            for pt in fringe.points:
                writer.writerow([repr(cell.beta_nominal), repr(cell.dEz_dz),
                                 repr(cell.tau_total), cell.n_echo,
                                 repr(pt.phi_laser), pt.n_shots, repr(pt.k_D),
                                 is_ref])
    return buf.getvalue()


def campaign_from_csv(text: str) -> CampaignDataset:
    """Rebuild a CampaignDataset from its CSV serialization.  Rows may
    come in any order: each fringe's points are sorted by laser phase,
    and the dataset sorts the cells."""
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [name for name in CSV_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"header lacks column(s) {', '.join(missing)}")
    # DictReader would keep a repeated column's last field
    repeated = [name for name in CSV_COLUMNS if header.count(name) > 1]
    if repeated:
        raise ValueError(f"header repeats column(s) {', '.join(repeated)}")
    groups: dict = {}
    for row in reader:
        line = reader.line_num
        # DictReader files extra fields under None and fills missing ones with None
        if None in row or None in row.values():
            raise ValueError(f"line {line}: field count differs "
                             f"from the header's {len(reader.fieldnames)}")
        key = tuple(_parse(row, name, line)
                    for name in ("beta_nominal", "dEz_dz", "tau_total")
                    ) + (_parse(row, "n_echo", line, int),)
        if key[2] < 0:
            raise ValueError(f"line {line}, tau_total: must be >= 0, got "
                             f"{row['tau_total']!r}")
        if key[3] < 2 or key[3] % 2:
            raise ValueError(f"line {line}, n_echo: must be even and >= 2, "
                             f"got {row['n_echo']!r}")
        pt = FringePoint(phi_laser=_parse(row, "phi_laser", line),
                         n_shots=_parse(row, "n_shots", line, int),
                         k_D=_parse(row, "k_D", line, _count))
        if pt.n_shots < 1:
            raise ValueError(f"line {line}, n_shots: must be >= 1, got "
                             f"{row['n_shots']!r}")
        if not 0 <= pt.k_D <= pt.n_shots:
            raise ValueError(f"line {line}, k_D: must lie in [0, n_shots] = "
                             f"[0, {pt.n_shots}], got {row['k_D']!r}")
        fringe = groups.setdefault(key, ({}, {}))[
            _parse(row, "is_reference", line, _flag)]
        if pt.phi_laser in fringe:
            raise ValueError(f"lines {fringe[pt.phi_laser][0]} and {line}, "
                             f"phi_laser: {row['phi_laser']!r} repeats "
                             "within one fringe")
        fringe[pt.phi_laser] = (line, pt)
    if not groups:
        raise ValueError("no data rows")
    cells = []
    for (beta, grad, tau_total, n_echo), (sig, ref) in groups.items():
        if not sig or not ref:
            raise ValueError(
                f"cell (beta={beta}, dEz_dz={grad}, tau_total={tau_total}) "
                "is missing its signal or reference fringe")
        cells.append(CampaignCell(
            beta_nominal=beta, dEz_dz=grad, tau_total=tau_total,
            n_echo=n_echo, fringe=FringeDataset(_by_phase(sig)),
            reference_fringe=FringeDataset(_by_phase(ref))))
    return CampaignDataset(tuple(cells))


def _by_phase(fringe: dict) -> tuple:
    """A fringe's points, keyed by laser phase, in phase order."""
    return tuple(pt for _, (_, pt) in sorted(fringe.items()))


def _parse(row: dict, name: str, line: int, parse=float):
    """``parse`` of the row's ``name`` field, which must be finite; a
    bad value's error names its line and column."""
    try:
        value = parse(row[name])
    except ValueError as exc:
        raise ValueError(f"line {line}, {name}: {exc}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line}, {name}: must be finite, got "
                         f"{row[name]!r}")
    return value


def _count(text: str):
    """An integer count, or real-valued n * p in exact mode."""
    return int(text) if text.isdigit() else float(text)


def _flag(text: str) -> int:
    if text.strip() not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {text!r}")
    return int(text)


def campaign_to_json(campaign: CampaignDataset, plan: CampaignPlan,
                     model: IonModel, noise: NoiseModel, rng_seed,
                     detection: DetectionModel | None = None) -> str:
    """Provenance document: the plan, seed and model a campaign was run
    with, and all its counts."""
    doc = {
        "plan": {**asdict(plan), "seed": int(rng_seed)},
        "model": {
            "species": asdict(model.species),
            "trap": asdict(model.trap),
            "field": asdict(model.field_cfg),
            "theta": model.theta,
            "noise": asdict(noise),
            "detection": asdict(detection) if detection else None,
        },
        "cells": [{
            "beta_nominal": c.beta_nominal,
            "dEz_dz": c.dEz_dz,
            "tau_total": c.tau_total,
            "fringe": [asdict(p) for p in c.fringe.points],
            "reference_fringe": [asdict(p) for p in c.reference_fringe.points],
        } for c in campaign.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
