"""Pulse-sequence representation and unitary execution.

A sequence is an ordered tuple of elements: optical two-level pulses
(|S,-1/2> to one D sublevel), RF rotations of the whole spin-5/2 D
manifold, free-evolution waits, and a terminal Measure.  Pulses are
instantaneous; free evolution applies diagonal phases integrated
exactly over a piecewise-constant field-offset trajectory.

States are 8 complex amplitudes in the ``atommodel.BASIS_LABELS``
ordering.  The batch executor runs many shots at once, one noise
trajectory per row.

``run_sequence`` compiles a sequence before running it.  One pass over
the elements merges adjacent waits and drops empty ones (the paper's
16 waits become 9), and one pair of trajectory-integral calls gives the
offset integrals of the waits.  A one-segment trajectory (no noise, or a
quasi-static offset v) needs no such calls: a wait of length L has the
integrals [v L, v^2 L].  The run then updates the state in place,
each pulse on its own columns.  A single initial state stays single
until the first wait: the steps before it act on one state, and the
trajectory's rows appear at the first wait (or at return, when no wait
makes the rows differ).  A wait's phase factors are real cos/sin of the
small per-row offset phase times one field-free factor per level
(``free_evolve``).  On a one-segment trajectory (no noise, or a
quasi-static offset) they depend only on the wait's length, so they are
computed once per distinct length (2 for the paper's signal sequence)
and multiplied into the state at each wait; on a time-varying trajectory
each merged wait is one in-place ``free_evolve``.  Called on their own,
``free_evolve``, ``apply_rf_pulse`` and ``apply_optical_pulse`` return a
new array.

``run_sequence`` takes one trajectory.  A fringe scan runs everything
before the closing pi/2 pulse either once, on the rows of every scan
point stacked into one one-segment trajectory, or once per point on a
time-varying trajectory (see ``sampler.run_fringe_scan``).  The closing
pulses differ only in laser phase; ``apply_pulses`` applies those of a
stacked run in one stacked matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    """The elements, run in order.  ``n_echo`` and ``tau`` are the
    parameters ``build_quadrupole_dd_sequence`` was called with (None for
    any other sequence); the executor does not read them."""

    elements: tuple
    n_echo: int | None = None
    tau: float | None = None

    def duration(self) -> float:
        return sum(e.tau for e in self.elements if isinstance(e, Wait))


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
    return PulseSequence(tuple(elements), n_echo=n_echo, tau=tau)


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
def _phase_rates(model: IonModel) -> tuple:
    """Each level's phase rates, for nu = nu(B0) + nu'(B0) dB + b2 dB^2
    with dB the field offset: -2pi i nu(B0) per second of wait (8,), and
    -2pi [nu'(B0), b2] per unit of [Int dB dt, Int dB^2 dt] (2, 8)."""
    lin, static, b2 = level_coefficients(model)
    b0 = model.field_cfg.B
    field_free = -2j * math.pi * (lin * b0 + static + b2 * b0 * b0)
    offset = -2.0 * math.pi * np.array([lin + 2.0 * b0 * b2, b2])
    for a in (field_free, offset):
        a.setflags(write=False)
    return field_free, offset


def _wait_integrals(starts, ends, trajectory: NoiseTrajectory,
                    single_state: bool) -> np.ndarray:
    """[Int offset dt, Int offset^2 dt] over each [start, end], shape
    (W, ..., 2): two trajectory-integral calls cover all W waits."""
    i1 = trajectory.integral(starts, ends)
    i2 = trajectory.square_integral(starts, ends)
    if single_state and i1.shape[:-1] == (1,):
        # a one-row batched trajectory drives a single state
        i1, i2 = i1[0], i2[0]
    return np.stack([np.moveaxis(i1, -1, 0), np.moveaxis(i2, -1, 0)], axis=-1)


def _constant_integrals(lengths: np.ndarray, v) -> np.ndarray:
    """[v L, v^2 L] for each wait length L, shape (L, ..., 2): the wait
    integrals of a constant offset ``v`` (a float or one per row), which
    do not depend on where the wait starts."""
    return np.stack([np.multiply.outer(lengths, v),
                     np.multiply.outer(lengths, v * v)], axis=-1)


# a sequence's laser phase is new on most scan points, so only the
# repeated pulses are worth keeping
@lru_cache(maxsize=128)
def _pulse_op(pulse) -> tuple:
    """(columns, U^T) of a pulse: it maps state[..., columns] to
    state[..., columns] @ U^T and leaves the other amplitudes alone."""
    if isinstance(pulse, RFPulse):
        return D_BLOCK, rotation_unitary(2.5, pulse.area, pulse.rf_phase).T
    half = pulse.area / 2.0
    c = math.cos(half)
    s = math.sin(half)
    ph = pulse.laser_phase
    u = np.array([
        [c, -1j * s * np.exp(-1j * ph)],
        [-1j * s * np.exp(1j * ph), c],
    ])
    u.setflags(write=False)
    d = D_INDEX[pulse.target_m]
    # the columns {S:-1/2, D:m} as a basic slice, so no fancy-index copy
    return slice(S_MINUS_HALF, d + 1, d - S_MINUS_HALF), u.T


def _apply_pulse(state: np.ndarray, columns, u_t: np.ndarray) -> np.ndarray:
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


def free_evolve(state: np.ndarray, tau: float, model: IonModel,
                trajectory: NoiseTrajectory | None = None,
                t_start: float = 0.0, *, integrals: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Diagonal phase evolution over a wait of length tau starting at t_start.

    Each amplitude picks up exp(-i 2pi Int nu_level(B(t)) dt), with the
    field B(t) = B0 + offset(t) integrated exactly per trajectory segment.
    ``integrals`` gives the wait's [Int offset dt, Int offset^2 dt] (last
    axis) in place of ``trajectory`` and ``t_start``; ``run_sequence``
    computes them for all its waits at once.  ``out`` receives the result
    and may be ``state`` itself.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if integrals is None:
        if trajectory is None:
            trajectory = zero_trajectory()
        _check_shapes(state, *_values_shape(trajectory))
        if tau == 0:
            return state.copy()
        integrals = _wait_integrals([t_start], [t_start + tau], trajectory,
                                    state.ndim == 1)[0]
    field_free, offset = _phase_rates(model)
    # the offset's phase differs per row but stays small; the large
    # field-free phase is one factor per level
    phase = integrals @ offset
    factors = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=factors.real)
    np.sin(phase, out=factors.imag)
    factors *= np.exp(tau * field_free)
    return np.multiply(state, factors, out=out)


def _compile(elements) -> tuple:
    """One pass over the elements: adjacent waits merged, empty ones
    dropped.  Returns the steps (an int indexes a merged wait, a pair is a
    ``_pulse_op``) and the merged waits' durations and [t0, t1] bounds."""
    if not elements or not isinstance(elements[-1], Measure):
        raise SimulationError("sequence must end with Measure")
    steps, taus, starts, ends = [], [], [], []
    t = 0.0
    for element in elements[:-1]:
        if isinstance(element, Wait):
            if element.tau == 0:
                continue
            if steps and isinstance(steps[-1], int):
                taus[-1] += element.tau
            else:
                steps.append(len(taus))
                taus.append(element.tau)
                starts.append(t)
                ends.append(t)
            t += element.tau
            ends[-1] = t
        elif isinstance(element, (RFPulse, OpticalPulse)):
            steps.append(_pulse_op(element))
        elif isinstance(element, Measure):
            raise SimulationError("elements after Measure are not allowed")
        else:
            raise SimulationError(f"unknown sequence element {element!r}")
    return steps, taus, starts, ends


def _check_shapes(state: np.ndarray, rows: tuple = (),
                  trajectory: str = "") -> None:
    """A state's last axis holds the 8 amplitudes, and a batch of states
    has one trajectory row each (``trajectory`` describes the rows)."""
    if state.ndim == 0 or state.shape[-1] != 8:
        raise SimulationError(
            f"state has shape {state.shape}; its last axis must "
            "hold the 8 amplitudes")
    if state.ndim > 1 and rows and state.shape[:-1] != rows:
        raise SimulationError(
            f"states of shape {state.shape} need one trajectory row "
            f"each; {trajectory}")


def _values_shape(trajectory: NoiseTrajectory) -> tuple:
    """Row shape of a trajectory and the words ``_check_shapes`` uses."""
    shape = trajectory.values.shape
    return shape[:-1], f"the trajectory values have shape {shape}"


def _read_trajectory(trajectory: NoiseTrajectory, taus, starts,
                     ends) -> tuple:
    """Whether the trajectory has one segment, and its wait integrals:
    (L, rows..., 2) over the L distinct wait lengths for one segment (in
    the order the lengths first occur), else (W, rows..., 2) over the
    merged waits.  A one-segment trajectory's value v holds at all times,
    so its integrals are the closed form [v L, v^2 L] of each length L
    (``_constant_integrals``) and no overlap of segments with waits is
    formed."""
    if trajectory.values.shape[-1] == 1:
        return True, _constant_integrals(np.array(list(dict.fromkeys(taus))),
                                         trajectory.values[..., 0])
    return False, _wait_integrals(starts, ends, trajectory, False)


def run_sequence(initial: np.ndarray, seq: PulseSequence, model: IonModel,
                 trajectory: NoiseTrajectory | None = None) -> np.ndarray:
    """Run the sequence on the state; returns the pre-measurement state.

    ``initial`` may be a single state (8,) or a batch (n_shots, 8).  A
    batched ``trajectory`` applies row-wise and needs one row per batch
    row.  A single state run against N > 1 trajectory rows returns a new
    (N, 8) batch, with or without waits: every step before the first wait
    acts on the one state, and the rows appear at the first wait (or at
    return).

    The sequence is compiled once (see ``_compile``) and every step then
    updates the state in place.  On a one-segment trajectory the offset is
    constant in time, so each distinct merged-wait length gets one
    ``free_evolve`` of an all-ones state, and every wait of that length
    multiplies the state by those factors; otherwise each merged wait is
    one ``free_evolve``.
    """
    steps, taus, starts, ends = _compile(seq.elements)
    state = np.array(initial, dtype=complex)
    _check_shapes(state)
    if trajectory is None:
        trajectory = zero_trajectory()
    rows, described = _values_shape(trajectory)
    static, integrals = _read_trajectory(trajectory, taus, starts, ends)
    if state.ndim == 1 and rows == (1,):
        # a one-row batched trajectory drives a single state
        rows, integrals = (), integrals[:, 0]
    _check_shapes(state, rows, described)
    shape = np.broadcast_shapes(state.shape, rows + (8,))
    if static:
        ones = np.ones(rows + (8,), dtype=complex)
        factors = {tau: free_evolve(ones, tau, model, integrals=part)
                   for tau, part in zip(dict.fromkeys(taus), integrals)}
        steps = [factors[taus[s]] if isinstance(s, int) else s
                 for s in steps]
    for step in steps:
        if isinstance(step, tuple):
            _apply_pulse(state, *step)
            continue
        # the first wait broadcasts a single state to the trajectory rows
        out = state if state.shape == shape else None
        if isinstance(step, np.ndarray):
            state = np.multiply(state, step, out=out)
        else:
            state = free_evolve(state, taus[step], model,
                                integrals=integrals[step], out=out)
    if state.shape != shape:
        state = np.array(np.broadcast_to(state, shape))
    return state


def apply_pulses(states: np.ndarray, pulses) -> np.ndarray:
    """Pulse p on the states ``states[p]``, for all P pulses in one stacked
    matmul; returns a new array.  ``states`` has shape (P, ..., 8), and the
    pulses must act on the same columns (optical pulses to one D sublevel
    may differ in area and laser phase)."""
    states = np.array(states, dtype=complex)
    ops = [_pulse_op(pulse) for pulse in pulses]
    _check_shapes(states)
    if states.ndim < 2 or states.shape[0] != len(ops):
        raise SimulationError(f"{len(ops)} pulses need states of shape "
                              f"({len(ops)}, ..., 8), got {states.shape}")
    columns = ops[0][0]
    if any(c != columns for c, _ in ops):
        raise SimulationError("stacked pulses must act on the same columns")
    # each U^T keeps the memory layout it has alone, so a block of one
    # state runs the same BLAS call as a lone pulse on one state would
    u_t = np.stack([u.T for _, u in ops]).transpose(0, 2, 1)
    blocks = states.reshape(len(ops), -1, 8)
    blocks[..., columns] = blocks[..., columns] @ u_t
    return states


def analytic_phase(n_echo: int, tau: float, model: IonModel) -> float:
    """Closed-form total quadrupole phase 2 * n_echo * tau * arm rate (rad)."""
    return 2.0 * n_echo * tau * arm_phase_rate(model.trap, model.theta,
                                               model.field_cfg.beta)
