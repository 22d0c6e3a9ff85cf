"""Physics-to-numbers layer: level shifts, trap geometry and field noise.

All quantities are SI except quadrupole moments, which are expressed in
e*a0^2 at every interface (converted through ``constants.EA0_SQUARED``).

Geometry convention: ``beta`` is the angle between the quantization axis
(set by the magnetic field) and the trap quadrupole (z) axis.  ``alpha``
is the azimuth of the quantization-axis projection in the trap radial
plane, measured from the electrode axis along which the asymmetric part
of the DC potential is *weaker*, i.e. the projection of the field onto
the radial plane is (sin(alpha), cos(alpha)) in trap (x, y) coordinates.
With that convention the asymmetry enters the shift bracket as
``+ epsilon1 * sin^2(beta) * cos(2*alpha)`` and vanishes when the field
lies in the plane spanned by the trap axis and x+y (alpha = pi/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import constants as const

# Basis ordering shared by every module: the two S_1/2 states first,
# then the six D_5/2 states, each block ascending in m.
BASIS_LABELS = (
    "S:-1/2", "S:+1/2",
    "D:-5/2", "D:-3/2", "D:-1/2", "D:+1/2", "D:+3/2", "D:+5/2",
)
S_INDEX = {-0.5: 0, +0.5: 1}
D_INDEX = {-2.5: 2, -1.5: 3, -0.5: 4, +0.5: 5, +1.5: 6, +2.5: 7}
S_M_VALUES = (-0.5, +0.5)
D_M_VALUES = (-2.5, -1.5, -0.5, +0.5, +1.5, +2.5)

# Default reference values for the quadrupole-moment comparison table
# (label, value in e*a0^2, one-sigma uncertainty; 0 = none quoted).
DEFAULT_THETA_REFERENCES = (
    ("previous measurement (2004)", 2.6, 0.3),
    ("many-body calculation (2006a)", 3.048, 0.0),
    ("many-body calculation (2006b)", 2.94, 0.07),
    ("many-body calculation (2009)", 2.973, 0.026),
)


@dataclass(frozen=True)
class IonSpecies:
    """Static atomic parameters of the probe ion (defaults: 88Sr+)."""

    g_ground: float = 2.0025                                  # S_1/2 Lande factor
    g_D: float = 1.2                                          # D_5/2 Lande factor
    c2_quad_zeeman: float = 3.1e6                              # Hz/T^2 differential
    reference_theta_values: tuple = DEFAULT_THETA_REFERENCES


@dataclass(frozen=True)
class TrapConfig:
    """DC trap parameters seen by the ion."""

    dEz_dz: float = 1.0e8            # V/m^2 axial DC field gradient
    epsilon1: float = 0.0            # radial asymmetry of the DC potential
    alpha: float = math.pi / 4       # quantization-axis azimuth, see module doc

    def __post_init__(self):
        if not -1.0 <= self.epsilon1 <= 1.0:
            raise ValueError("epsilon1 must lie in [-1, 1]")


@dataclass(frozen=True)
class FieldConfig:
    """Magnetic field magnitude and orientation."""

    B: float = 3.0e-4                # tesla
    beta: float = math.pi / 4        # angle between quantization and trap axes
    beta0: float = 0.0               # unknown base-angle offset (fit nuisance)

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("field magnitude B must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Magnetic-field offset noise, piecewise constant in time."""

    kind: str = "none"               # none | quasi_static | random_walk
    sigma_B: float = 0.0             # tesla, per-shot static offset std
    drift_rate_sigma: float = 0.0    # tesla/s
    step_dt: float = 1e-4            # seconds, random-walk step

    def __post_init__(self):
        if self.kind not in ("none", "quasi_static", "random_walk"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not all(map(math.isfinite, (self.sigma_B, self.drift_rate_sigma,
                                       self.step_dt))):
            raise ValueError("noise parameters must be finite")
        if self.sigma_B < 0 or self.drift_rate_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.kind == "random_walk" and self.step_dt <= 0:
            raise ValueError("step_dt must be positive for random_walk noise")

    def segments(self, duration: float) -> int:
        """Segments of a trajectory over ``duration``: one per started
        random-walk step, else one."""
        if self.kind != "random_walk" or duration <= 0:
            return 1
        return max(1, int(math.ceil(duration / self.step_dt)))


@dataclass(frozen=True)
class IonModel:
    """Everything the sequence executor needs to turn time into phase."""

    species: IonSpecies = field(default_factory=IonSpecies)
    trap: TrapConfig = field(default_factory=TrapConfig)
    field_cfg: FieldConfig = field(default_factory=FieldConfig)
    theta: float = 2.973             # quadrupole moment, e*a0^2


def quadrupole_geometry(beta: float, epsilon1: float = 0.0, alpha: float = math.pi / 4) -> float:
    """Angular bracket (3 cos^2(beta) - 1) + eps1 sin^2(beta) cos(2 alpha)."""
    c = math.cos(beta)
    s = math.sin(beta)
    return (3.0 * c * c - 1.0) + epsilon1 * s * s * math.cos(2.0 * alpha)


def quadrupole_shift(m: float, trap: TrapConfig, theta_q: float, beta: float) -> float:
    """Quadrupole shift of |D, m> in Hz.

    (1/4h) dEz/dz * Theta * (35 - 12 m^2)/40 * geometry bracket, with
    Theta supplied in e*a0^2.
    """
    if m not in D_INDEX:
        raise ValueError(f"m={m} is not a D_5/2 sublevel")
    theta_si = theta_q * const.EA0_SQUARED
    m_factor = (35.0 - 12.0 * m * m) / 40.0
    bracket = quadrupole_geometry(beta, trap.epsilon1, trap.alpha)
    return trap.dEz_dz * theta_si * m_factor * bracket / (4.0 * const.PLANCK_H)


def arm_phase_rate(trap: TrapConfig, theta_q: float, beta: float) -> float:
    """Per-arm phase accumulation rate in rad/s.

    (9 / 20 hbar) * dEz/dz * Theta * geometry bracket; equals
    2*pi*(quadrupole_shift(1/2) - quadrupole_shift(5/2)) identically.
    """
    theta_si = theta_q * const.EA0_SQUARED
    bracket = quadrupole_geometry(beta, trap.epsilon1, trap.alpha)
    return 9.0 * trap.dEz_dz * theta_si * bracket / (20.0 * const.HBAR)


ARM_RATE_PER_GRADIENT_THETA = 9.0 * const.EA0_SQUARED / (20.0 * const.HBAR)
"""rad/s of arm phase per (V/m^2 of gradient) per (e*a0^2 of Theta),
before the geometry bracket; the constant the joint fit inverts."""


SQUARE_BLOCK_ROWS = 256


class NoiseTrajectory:
    """Piecewise-constant magnetic-field offset(s), tesla vs time.

    ``edges`` has K+1 entries starting at 0; the last edge may be inf.
    ``values`` has shape (..., K): a single trajectory, or one per shot.
    The value of the final segment extends beyond the last edge.
    """

    def __init__(self, edges, values):
        edges = np.asarray(edges, dtype=float)
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if edges.ndim != 1 or len(edges) != values.shape[-1] + 1:
            raise ValueError("edges must have one more entry than segments")
        if not np.all(np.diff(edges) > 0):    # NaN fails this, too
            raise ValueError("edges must be strictly increasing")
        if edges[0] != 0.0:
            # the executor takes a one-segment trajectory's value as
            # holding from t = 0, while the overlaps would start it later
            raise ValueError(f"edges must start at 0, got {edges[0]!r}")
        self.edges = edges
        self.values = values

    def _overlap(self, t0, t1) -> np.ndarray:
        """Time each segment spends inside [t0, t1]: shape (K,) for scalar
        bounds, (K, W) for arrays of W bounds.  The last matrix formed is
        kept, read-only, so ``integral`` and ``square_integral`` of one
        trajectory, and of every block of a walk drawn in blocks, share
        it."""
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        return _overlap_matrix(self.edges.tobytes(), t0.tobytes(),
                               t1.tobytes(), t0.shape)

    def integral(self, t0, t1):
        """Integral of the offset over [t0, t1] (tesla*seconds).

        ``t0`` and ``t1`` are scalars, or equal-length 1-D arrays of W
        intervals; the result has shape ``values.shape[:-1]``, with a
        trailing W axis for array bounds.
        """
        return self._by_row_blocks(lambda v: v, t0, t1)

    def square_integral(self, t0, t1):
        """Integral of the squared offset over [t0, t1]; bounds and result
        shaped as in ``integral``.  A large batch is never held squared
        in full."""
        return self._by_row_blocks(np.square, t0, t1)

    def _by_row_blocks(self, f, t0, t1):
        """``f(values) @ overlaps``, one block of ``SQUARE_BLOCK_ROWS``
        trajectories at a time.

        How BLAS sums a row of a product depends on how many rows it
        multiplies at once (numpy takes a matrix-vector product for one
        row, and OpenBLAS a small-matrix kernel for a small product).
        The blocks start at multiples of ``SQUARE_BLOCK_ROWS``, so a walk
        drawn and integrated in such blocks gets, bit for bit, the
        integrals of the whole walk.
        """
        w = self._overlap(t0, t1)
        if self.values.ndim == 1:
            return f(self.values) @ w
        out = np.empty(self.values.shape[:-1] + w.shape[1:])
        for i in range(0, len(self.values), SQUARE_BLOCK_ROWS):
            block = slice(i, i + SQUARE_BLOCK_ROWS)
            out[block] = f(self.values[block]) @ w
        return out


@lru_cache(maxsize=1)
def _overlap_matrix(edges: bytes, t0: bytes, t1: bytes,
                    shape: tuple) -> np.ndarray:
    """``NoiseTrajectory._overlap`` from the float64 bytes of the edges
    and of bounds of shape ``shape``."""
    edges = np.frombuffer(edges)
    t0 = np.frombuffer(t0).reshape(shape)
    t1 = np.frombuffer(t1).reshape(shape)
    lo = np.maximum.outer(edges[:-1], t0)
    hi = np.minimum.outer(edges[1:], t1)
    w = np.clip(hi - lo, 0.0, None)
    # extend the last segment beyond the final edge
    last = edges[-1]
    if np.isfinite(last):
        w[-1] += np.clip(t1 - np.maximum(last, t0), 0.0, None)
    w.setflags(write=False)
    return w


def zero_trajectory(n_shots: int | None = None) -> NoiseTrajectory:
    shape = (1,) if n_shots is None else (n_shots, 1)
    return NoiseTrajectory([0.0, np.inf], np.zeros(shape))


def sample_noise_trajectory(model: NoiseModel, duration: float, rng_seed,
                            n_shots: int | None = None) -> NoiseTrajectory:
    """Draw offset trajectories; deterministic for a given seed/generator.

    ``rng_seed`` may be an int or a ``numpy.random.Generator``.  With
    ``n_shots`` set, one independent trajectory per shot is drawn in a
    single vectorized pass (shot index = row index).
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    lead = () if n_shots is None else (n_shots,)
    if model.kind == "none":
        return zero_trajectory(n_shots)
    if model.kind == "quasi_static":
        offsets = rng.normal(0.0, model.sigma_B, size=lead + (1,))
        return NoiseTrajectory([0.0, np.inf], offsets)
    # random walk: cumulative Gaussian increments, first segment at zero
    n_steps = model.segments(duration)
    sigma_step = model.drift_rate_sigma * math.sqrt(model.step_dt)
    increments = rng.normal(0.0, sigma_step, size=lead + (n_steps,))
    increments[..., 0] = 0.0
    values = np.cumsum(increments, axis=-1, out=increments)
    edges = np.arange(n_steps + 1) * model.step_dt
    edges[-1] = np.inf
    return NoiseTrajectory(edges, values)
