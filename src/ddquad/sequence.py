"""Pulse-sequence representation and unitary execution.

A sequence is an ordered tuple of elements: optical two-level pulses
(|S,-1/2> to one D sublevel), RF rotations of the whole spin-5/2 D
manifold, free-evolution waits, and a terminal Measure.  Pulses are
instantaneous; free evolution applies diagonal phases integrated
exactly over a piecewise-constant field-offset trajectory.

States are 8 complex amplitudes in the ``atommodel.BASIS_LABELS``
ordering.  The batch executor runs many shots at once, one noise
trajectory per row.

``run_sequence`` compiles a sequence before running it, once per
sequence (``_compile``, cached).  A pulse of area exactly pi is built in
closed form: the optical pi with cos = 0 and sin = 1, the RF pi with
U[-m, m] = -i exp(2i phi m) on the anti-diagonal and exact zeros
elsewhere.  Such a pulse is monomial: it moves each level to one other
and multiplies it by a phase.  Each maximal run of waits and monomial
pulses folds into one block.  Slot j of a block is the amplitude at
level j where the block starts; the block records the level each slot
ends at, the phases the pulses give it, and the level it sits in during
each merged wait.  For a given model, each slot's field-free phase and
its coefficients on Int dB dt and Int dB^2 dt are then sums over the
waits of its level's rates, taken in wait order: a slot that spends
equal time in |m> and |-m> sums its linear-Zeeman terms to exactly 0
before they are rounded into anything else.  This is the echo's filter,
which leaves only the m^2 phase (quadrupole and second-order Zeeman).

The run then applies each dense pulse (the pi/2 pulses) in place on its
own columns, and each block as one phase per row and slot.  Which array
the block kernel ``free_evolve`` is given marks the trajectory's kind:
on a one-segment trajectory (no noise, or a quasi-static offset v) the
per-row [v, v^2], giving v A + v^2 B; otherwise each merged wait's
integrals [I1_w, I2_w], from one pair of trajectory-integral calls,
giving I1 @ A_w + I2 @ B_w over the block's waits.  The kernel is called
once per block: one cos/sin, one multiply and one scatter of the slots
to their final levels.  A single initial state stays single until the
first block with a wait, where the trajectory's rows appear (or at
return, when no wait makes the rows differ).  Called on their own,
``apply_rf_pulse`` and ``apply_optical_pulse`` return a new array.

``run_sequence`` takes one trajectory, or the wait integrals of a
time-varying one (``wait_integrals``).  A fringe scan runs everything
before the closing pi/2 pulse either once, on the rows of every scan
point stacked into one one-segment trajectory, or once per point from
the wait integrals of its walk, taken block by block as the walk is
drawn (see ``sampler.run_fringe_scan``).  The closing
pulses differ only in laser phase: ``_optical_op`` builds their U^T,
shape (P, 2, 2), by the one formula ``_pulse_op`` uses for a single
optical pulse, and ``_apply_pulse`` rotates a (P, rows, 8) state with
it in one call, each point's rows by its own U^T.  A time-varying point
takes its own row of that stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import constants as const
from .atommodel import (
    BASIS_LABELS, D_INDEX, D_M_VALUES, S_INDEX, S_M_VALUES,
    IonModel, NoiseTrajectory, arm_phase_rate, quadrupole_shift,
    zero_trajectory,
)
from .errors import SimulationError
from .spincore import rotation_unitary

S_MINUS_HALF = S_INDEX[-0.5]
D_BLOCK = slice(2, 8)
D_M = np.array(D_M_VALUES)


@dataclass(frozen=True)
class OpticalPulse:
    """674 nm rotation on |S,-1/2> <-> |D, target_m>."""
    target_m: float
    area: float
    laser_phase: float = 0.0

    def __post_init__(self):
        if self.target_m not in D_INDEX:
            raise ValueError(f"optical pulse target {self.target_m} is not a D sublevel")
        if not (math.isfinite(self.area) and self.area >= 0):
            raise ValueError("pulse area must be finite and >= 0")
        if not math.isfinite(self.laser_phase):
            raise ValueError("laser phase must be finite")


@dataclass(frozen=True)
class RFPulse:
    """Spin-5/2 rotation of the whole D manifold."""
    area: float
    rf_phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.area) and self.area >= 0):
            raise ValueError("pulse area must be finite and >= 0")
        if not math.isfinite(self.rf_phase):
            raise ValueError("RF phase must be finite")


@dataclass(frozen=True)
class Wait:
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError("wait duration must be finite and >= 0")


@dataclass(frozen=True)
class Measure:
    pass


@dataclass(frozen=True)
class PulseSequence:
    """The elements, run in order."""

    elements: tuple


def build_quadrupole_dd_sequence(n_echo: int, tau: float,
                                 laser_phase: float = 0.0) -> PulseSequence:
    """The echo sequence: prepare (|D,-5/2>+|D,-1/2>)/sqrt(2), run n_echo
    blocks [wait tau; RF pi, phase alternating 0/pi; wait tau], transfer
    D:-5/2 back to S:-1/2, close the Ramsey with a pi/2 of the given
    laser phase, measure.
    """
    if n_echo < 2 or n_echo % 2 != 0:
        raise ValueError(f"n_echo must be even and >= 2, got {n_echo}")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    elements = [
        OpticalPulse(target_m=-2.5, area=math.pi / 2, laser_phase=0.0),
        OpticalPulse(target_m=-0.5, area=math.pi, laser_phase=0.0),
    ]
    for k in range(n_echo):
        elements.append(Wait(tau))
        elements.append(RFPulse(area=math.pi, rf_phase=0.0 if k % 2 == 0 else math.pi))
        elements.append(Wait(tau))
    elements.append(OpticalPulse(target_m=-2.5, area=math.pi, laser_phase=0.0))
    elements.append(OpticalPulse(target_m=-0.5, area=math.pi / 2, laser_phase=laser_phase))
    elements.append(Measure())
    return PulseSequence(tuple(elements))


def initial_state(label: str = "S:-1/2") -> np.ndarray:
    """Basis state by label."""
    if label not in BASIS_LABELS:
        raise ValueError(f"unknown level label {label!r}")
    state = np.zeros(8, dtype=complex)
    state[BASIS_LABELS.index(label)] = 1.0
    return state


def level_coefficients(model: IonModel):
    """Per-level frequency decomposition nu = lin*B + static + b2*B^2 (Hz).

    ``lin`` is the linear Zeeman rate (Hz/T), ``static`` the quadrupole
    shift at the model's true angle, ``b2`` the second-order Zeeman
    coefficient (Hz/T^2); read-only arrays of length 8 in basis order.
    """
    lin = np.zeros(8)
    static = np.zeros(8)
    b2 = np.zeros(8)
    for m in S_M_VALUES:
        lin[S_INDEX[m]] = m * model.species.g_ground * const.MU_B_OVER_H
    for m in D_M_VALUES:
        i = D_INDEX[m]
        lin[i] = m * model.species.g_D * const.MU_B_OVER_H
        static[i] = quadrupole_shift(m, model.trap, model.theta, model.field_cfg.beta)
        b2[i] = model.species.c2_quad_zeeman * m * m / 6.0
    for a in (lin, static, b2):
        a.setflags(write=False)
    return lin, static, b2


@lru_cache(maxsize=256)
def _phase_rates(model: IonModel) -> np.ndarray:
    """Each level's phase rates (rad), shape (4, 8), for the frequency
    nu(B0) + nu'(B0) dB + b2 dB^2 with dB the field offset: per second of
    wait the field-free phase -2pi nu(B0), split into its linear-Zeeman
    part and the rest (quadrupole and second-order Zeeman), then per unit
    of Int dB dt and of Int dB^2 dt.  Levels m and -m have exactly
    opposite linear-Zeeman rates."""
    lin, static, b2 = level_coefficients(model)
    b0 = model.field_cfg.B
    rates = -2.0 * math.pi * np.array([lin * b0, static + b2 * b0 * b0,
                                       lin + 2.0 * b0 * b2, b2])
    rates.setflags(write=False)
    return rates


def _pulse_op(pulse) -> tuple:
    """(columns, U^T) of a pulse: it maps state[..., columns] to
    state[..., columns] @ U^T and leaves the other amplitudes alone.  A
    pulse of area exactly pi is built in closed form, with exact zeros:
    U[-m, m] = -i exp(2i phi m) for RF, cos(area/2) = 0 and sin = 1 for
    an optical pulse."""
    if isinstance(pulse, RFPulse):
        if pulse.area != math.pi:
            return D_BLOCK, rotation_unitary(2.5, pulse.area, pulse.rf_phase).T
        # U[-m, m] sits at row 5 - i, column i of the ascending-m D block;
        # integer powers of exp(i phi) keep it accurate for any phase
        u = np.diag(-1j * np.exp(1j * pulse.rf_phase) ** (2 * D_M))[::-1]
        u.setflags(write=False)
        return D_BLOCK, u.T
    return _optical_op(pulse, pulse.laser_phase)


def _optical_op(pulse: OpticalPulse, laser_phase) -> tuple:
    """(columns, U^T) of the optical pulse at each of the laser phases
    given in place of its own: U^T has shape np.shape(laser_phase) +
    (2, 2), so a fringe scan's closing pulses are one stacked rotation.
    U^T is read-only: ``_compile`` caches it."""
    half = pulse.area / 2.0
    c, s = (0.0, 1.0) if pulse.area == math.pi else (math.cos(half),
                                                       math.sin(half))
    ph = np.asarray(laser_phase, dtype=float)
    u_t = np.empty(ph.shape + (2, 2), dtype=complex)
    u_t[..., 0, 0] = u_t[..., 1, 1] = c
    u_t[..., 0, 1] = -1j * s * np.exp(1j * ph)    # U[1, 0]
    u_t[..., 1, 0] = -1j * s * np.exp(-1j * ph)   # U[0, 1]
    u_t.setflags(write=False)
    d = D_INDEX[pulse.target_m]
    # the columns {S:-1/2, D:m} as a basic slice, so no fancy-index copy
    return slice(S_MINUS_HALF, d + 1, d - S_MINUS_HALF), u_t


def _apply_pulse(state: np.ndarray, columns, u_t: np.ndarray) -> np.ndarray:
    """Rotate ``state[..., columns]`` in place; a stacked U^T of shape
    (P, 2, 2) rotates a (P, rows, 8) state, one U^T per leading index."""
    state[..., columns] = state[..., columns] @ u_t
    return state


def apply_optical_pulse(state: np.ndarray, pulse: OpticalPulse) -> np.ndarray:
    """Two-level rotation on {|S,-1/2>, |D,target_m>}; identity elsewhere."""
    _check_shapes(state)
    return _apply_pulse(state.copy(), *_pulse_op(pulse))


def apply_rf_pulse(state: np.ndarray, pulse: RFPulse) -> np.ndarray:
    """Spin-5/2 rotation on the six D amplitudes; identity on S."""
    _check_shapes(state)
    return _apply_pulse(state.copy(), *_pulse_op(pulse))


def free_evolve(state: np.ndarray, block: _Block, model: IonModel, *,
                offset: np.ndarray | None = None,
                integrals: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Free evolution over a run of waits and monomial pulses, a
    ``_Block`` from ``_compile``.

    Each amplitude picks up exp(-i 2pi Int nu_level(B(t)) dt) in the
    level it sits in during each wait, with the field B(t) = B0 +
    offset(t); the block then leaves each slot at its last level, with
    its pulse phase.  The trajectory's kind is the array given: on a
    one-segment trajectory, ``offset`` holds the offset v and v^2 per
    state row, shape (rows..., 2), which multiply each slot's rates
    summed over the block's waits; otherwise ``integrals`` holds each
    merged wait's Int offset dt and Int offset^2 dt, shape (rows..., 2,
    W) (the block reads its columns ``waits``), which multiply the rates
    of the level the slot sits in during that wait.  A single state's
    zero amplitudes stay zero, so only its other slots get a phase.  The
    phase costs one cos/sin, one multiply and one scatter.  ``out``
    receives the result and may be ``state`` itself.
    """
    rates = _phase_rates(model)
    live = np.flatnonzero(state) if state.ndim == 1 else slice(None)
    levels = block.levels[:, live]
    # summed in wait order, not by a dot product, so that the m-linear
    # terms of an echo (x - 2x + 2x ... + x) cancel exactly
    total = reduce(np.add, (rates[:, levels] * block.lengths).swapaxes(0, 1),
                   np.zeros((4, levels.shape[1])))
    phase = block.theta[live] + total[0] + total[1]
    if len(levels):
        for k in (0, 1):   # Int offset dt, then Int offset^2 dt
            phase = phase + (
                offset[..., k, None] @ total[2 + k, None] if integrals is None
                else integrals[..., k, block.waits] @ rates[2 + k, levels])
    f = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=f.real)
    np.sin(phase, out=f.imag)
    f = f * state[..., live]
    out = np.zeros(f.shape[:-1] + (8,), dtype=complex) if out is None else out
    out[..., block.where[live]] = f
    return out


class _Block(NamedTuple):
    """A run of waits and monomial pulses.  Slot j, the amplitude at level
    j where the block starts, leaves at level ``where[j]`` with the pulse
    phase ``theta[j]``; during merged wait w (of length ``lengths[w]``)
    it sits in level ``levels[w, j]``.  ``waits`` are the columns of its
    merged waits in ``free_evolve``'s integrals.  The arrays are
    read-only: ``_compile`` caches the blocks."""
    where: np.ndarray
    theta: np.ndarray
    levels: np.ndarray
    lengths: np.ndarray
    waits: slice


def _block(run: list, taus: list) -> _Block:
    """Fold a run of merged waits (indices into ``taus``) and monomial
    pulses (``_pulse_op`` pairs with one nonzero entry per row of U^T)
    into one ``_Block``."""
    where, theta, levels = np.arange(8), np.zeros(8), []
    for step in run:
        if isinstance(step, int):
            levels.append(where)
            continue
        # the pulse moves level cols[i] to cols[dst[i]], times U^T[i, dst[i]]
        columns, u_t = step
        src, dst = np.nonzero(u_t)
        cols = np.arange(8)[columns]
        to, angle = np.arange(8), np.zeros(8)
        to[cols], angle[cols] = cols[dst], np.angle(u_t[src, dst])
        theta, where = theta + angle[where], to[where]
    first = next((step for step in run if isinstance(step, int)), 0)
    arrays = (where, theta, np.array(levels, dtype=int).reshape(-1, 8),
              np.array(taus[first:first + len(levels)]).reshape(-1, 1))
    for a in arrays:
        a.setflags(write=False)
    return _Block(*arrays, slice(first, first + len(levels)))


@lru_cache(maxsize=128)
def _compile(elements: tuple) -> tuple:
    """One pass over the elements: adjacent waits merged, empty ones
    dropped, each dense pulse a ``_pulse_op`` and each maximal run of
    waits and monomial pulses one ``_Block``.  Returns the steps and the
    merged waits' [t0, t1] bounds."""
    if not elements or not isinstance(elements[-1], Measure):
        raise SimulationError("sequence must end with Measure")
    steps, taus, starts, ends = [[]], [], [], []   # a list is an open run
    t = 0.0
    for element in elements[:-1]:
        run = steps[-1]
        if isinstance(element, Wait):
            if element.tau == 0:
                continue
            if run and isinstance(run[-1], int):
                taus[-1] += element.tau
            else:
                run.append(len(taus))
                taus.append(element.tau)
                starts.append(t)
                ends.append(t)
            t += element.tau
            ends[-1] = t
        elif isinstance(element, (RFPulse, OpticalPulse)):
            op = _pulse_op(element)
            if np.count_nonzero(op[1]) == len(op[1]):   # monomial
                run.append(op)
            else:
                steps += [op, []]
        elif isinstance(element, Measure):
            raise SimulationError("elements after Measure are not allowed")
        else:
            raise SimulationError(f"unknown sequence element {element!r}")
    return (tuple(_block(s, taus) if isinstance(s, list) else s
                  for s in steps if s), tuple(starts), tuple(ends))


def _check_shapes(state: np.ndarray, values: tuple = (),
                  inner: int = 1) -> None:
    """A state's last axis holds the 8 amplitudes, and a batch of states
    has one row each of trajectory values of shape ``values``, or of
    wait integrals (``inner`` = 2 axes per row)."""
    if state.ndim == 0 or state.shape[-1] != 8:
        raise SimulationError(
            f"state has shape {state.shape}; its last axis must "
            "hold the 8 amplitudes")
    rows = values[:-inner]
    if state.ndim > 1 and rows and state.shape[:-1] != rows:
        what = "trajectory values" if inner == 1 else "wait integrals"
        raise SimulationError(
            f"states of shape {state.shape} need one trajectory row "
            f"each; the {what} have shape {values}")


def run_sequence(initial: np.ndarray, seq: PulseSequence, model: IonModel,
                 trajectory: NoiseTrajectory | None = None, *,
                 integrals: np.ndarray | None = None) -> np.ndarray:
    """Run the sequence on the state; returns the pre-measurement state.

    ``initial`` may be a single state (8,) or a batch (n_shots, 8).  A
    batched ``trajectory`` applies row-wise and needs one row per batch
    row.  A single state run against N > 1 trajectory rows returns a new
    (N, 8) batch, with or without waits: every step before the first
    block with a wait acts on the one state, and the rows appear at that
    block (or at return).  In place of a time-varying trajectory, its
    ``wait_integrals`` may be given, with the same one row per batch
    row.

    The sequence is compiled once (``_compile``) into dense pulses and
    blocks of waits and pi pulses; the model's rates then give each
    block's phase coefficients.  Each dense pulse updates the state in
    place.  Each block is one ``free_evolve`` call on the cached block:
    one phase per row and slot, one cos/sin, one multiply and one
    scatter; a single state's zero amplitudes stay zero, so only its
    other slots get a phase.  The array a block reads marks the
    trajectory's kind: the offset v and v^2 per row of a one-segment
    trajectory (each slot's rates summed over the waits give its phase,
    so the echo cancels exactly), or else each merged wait's integrals.
    """
    steps, starts, ends = _compile(tuple(seq.elements))
    state = np.array(initial, dtype=complex)
    if trajectory is not None and integrals is not None:
        raise SimulationError("give a trajectory or its wait integrals, "
                              "not both")
    if integrals is None:
        if trajectory is None:
            trajectory = zero_trajectory()
        values, inner = trajectory.values.shape, 1   # (rows..., segments)
    else:
        if integrals.shape[-2:] != (2, len(starts)):
            raise SimulationError(
                f"wait integrals of shape {integrals.shape} need last axes "
                f"(2, {len(starts)}), one column per merged wait")
        values, inner = integrals.shape, 2           # (rows..., 2, W)
    _check_shapes(state, values, inner)
    rows = values[:-inner]
    if state.ndim == 1 and rows == (1,):
        rows = ()   # a one-row batched trajectory drives a single state
    shape = np.broadcast_shapes(state.shape, rows + (8,))
    offset = None
    if integrals is None and values[-1] == 1:     # the constant offset v
        v = trajectory.values.reshape(rows)
        offset = np.stack((v, v ** 2), axis=-1)
    else:
        if integrals is None:
            integrals = wait_integrals(trajectory, starts, ends)
        integrals = integrals.reshape(rows + (2, len(starts)))
    for step in steps:
        if isinstance(step, _Block):
            state = free_evolve(state, step, model, offset=offset,
                                integrals=integrals,
                                out=state if state.ndim > 1 else None)
        else:
            _apply_pulse(state, *step)
    return (state if state.shape == shape
            else np.array(np.broadcast_to(state, shape)))


def wait_integrals(trajectory: NoiseTrajectory, starts, ends) -> np.ndarray:
    """Int offset dt and Int offset^2 dt over each merged wait [starts[w],
    ends[w]] (``_compile`` gives the bounds), shape (rows..., 2, W), from
    one call of each trajectory integral for all the waits."""
    return np.stack((trajectory.integral(starts, ends),
                     trajectory.square_integral(starts, ends)), axis=-2)


def analytic_phase(n_echo: int, tau: float, model: IonModel) -> float:
    """Closed-form total quadrupole phase 2 * n_echo * tau * arm rate (rad)."""
    return 2.0 * n_echo * tau * arm_phase_rate(model.trap, model.theta,
                                               model.field_cfg.beta)
