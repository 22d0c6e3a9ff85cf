"""Pulse-sequence representation and unitary execution.

A sequence is an ordered tuple of elements: optical two-level pulses
(|S,-1/2> to one D sublevel), RF rotations of the whole spin-5/2 D
manifold, free-evolution waits, and a terminal Measure.  Pulses are
instantaneous; free evolution applies diagonal phases integrated
exactly over a piecewise-constant field-offset trajectory.

States are 8 complex amplitudes in the ``atommodel.BASIS_LABELS``
ordering.  The batch executor runs many shots at once, one noise
trajectory per row.
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
        if self.area < 0:
            raise ValueError("pulse area must be >= 0")


@dataclass(frozen=True)
class RFPulse:
    """Spin-5/2 rotation of the whole D manifold."""
    area: float
    rf_phase: float = 0.0

    def __post_init__(self):
        if self.area < 0:
            raise ValueError("pulse area must be >= 0")


@dataclass(frozen=True)
class Wait:
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("wait duration must be >= 0")


@dataclass(frozen=True)
class Measure:
    pass


@dataclass(frozen=True)
class PulseSequence:
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


@lru_cache(maxsize=256)
def _level_coefficients_cached(model: IonModel):
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


def level_coefficients(model: IonModel):
    """Per-level frequency decomposition nu = lin*B + static + b2*B^2 (Hz).

    ``lin`` is the linear Zeeman rate (Hz/T), ``static`` the quadrupole
    shift at the model's true angle, ``b2`` the second-order Zeeman
    coefficient (Hz/T^2); read-only arrays of length 8 in basis order.
    """
    return _level_coefficients_cached(model)


@lru_cache(maxsize=1024)
def _optical_block(pulse: OpticalPulse) -> np.ndarray:
    half = pulse.area / 2.0
    c = math.cos(half)
    s = math.sin(half)
    ph = pulse.laser_phase
    return np.array([
        [c, -1j * s * np.exp(-1j * ph)],
        [-1j * s * np.exp(1j * ph), c],
    ])


def apply_optical_pulse(state: np.ndarray, pulse: OpticalPulse) -> np.ndarray:
    """Two-level rotation on {|S,-1/2>, |D,target_m>}; identity elsewhere."""
    u = _optical_block(pulse)
    idx = [S_MINUS_HALF, D_INDEX[pulse.target_m]]
    out = state.copy()
    out[..., idx] = state[..., idx] @ u.T
    return out


def apply_rf_pulse(state: np.ndarray, pulse: RFPulse) -> np.ndarray:
    """Spin-5/2 rotation on the six D amplitudes; identity on S."""
    u = rotation_unitary(2.5, pulse.area, pulse.rf_phase)
    out = state.copy()
    out[..., D_BLOCK] = state[..., D_BLOCK] @ u.T
    return out


def free_evolve(state: np.ndarray, tau: float, model: IonModel,
                trajectory: NoiseTrajectory | None = None,
                t_start: float = 0.0) -> np.ndarray:
    """Diagonal phase evolution over a wait of length tau starting at t_start.

    Each amplitude picks up exp(-i 2pi Int nu_level(B(t)) dt), with the
    field B(t) = B0 + offset(t) integrated exactly per trajectory segment.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0:
        return state.copy()
    if trajectory is None:
        trajectory = zero_trajectory()
    lin, static, b2 = level_coefficients(model)
    b0 = model.field_cfg.B
    i1 = trajectory.integral(t_start, t_start + tau)       # Int offset dt
    i2 = trajectory.square_integral(t_start, t_start + tau)
    i1 = np.asarray(i1)[..., None]
    i2 = np.asarray(i2)[..., None]
    integral_b = b0 * tau + i1
    integral_b2 = b0 * b0 * tau + 2.0 * b0 * i1 + i2
    phase = -2.0 * math.pi * (lin * integral_b + static * tau + b2 * integral_b2)
    if state.ndim == 1 and phase.shape[0] == 1:
        phase = phase[0]
    return state * np.exp(1j * phase)


def run_sequence(initial: np.ndarray, seq: PulseSequence, model: IonModel,
                 trajectory: NoiseTrajectory | None = None) -> np.ndarray:
    """Left-fold the sequence over the state; returns the pre-measurement state.

    ``initial`` may be a single state (8,) or a batch (n_shots, 8); a
    batched trajectory applies row-wise.
    """
    if not seq.elements or not isinstance(seq.elements[-1], Measure):
        raise SimulationError("sequence must end with Measure")
    state = np.array(initial, dtype=complex)
    t = 0.0
    for k, element in enumerate(seq.elements):
        if isinstance(element, Measure):
            if k != len(seq.elements) - 1:
                raise SimulationError("elements after Measure are not allowed")
            break
        if isinstance(element, Wait):
            state = free_evolve(state, element.tau, model, trajectory, t_start=t)
            t += element.tau
        elif isinstance(element, RFPulse):
            state = apply_rf_pulse(state, element)
        elif isinstance(element, OpticalPulse):
            state = apply_optical_pulse(state, element)
        else:
            raise SimulationError(f"unknown sequence element {element!r}")
    return state


def analytic_phase(n_echo: int, tau: float, model: IonModel) -> float:
    """Closed-form total quadrupole phase 2 * n_echo * tau * arm rate (rad)."""
    return 2.0 * n_echo * tau * arm_phase_rate(model.trap, model.theta,
                                               model.field_cfg.beta)
