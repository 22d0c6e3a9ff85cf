"""Finite-dimensional angular-momentum algebra for half-integer spins.

Conventions used throughout the package:

* basis states are ordered by magnetic quantum number m = -j .. +j,
* rotations are active, U = exp(-i * angle * J_axis),
* a "pi pulse" means rotation area pi.

Everything here is a pure function of its arguments; matrices are
freshly allocated (or cached immutable) numpy arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _two_j(j) -> int:
    """Validate j and return 2j as an int."""
    two_j = 2 * j
    if abs(two_j - round(two_j)) > 1e-9 or round(two_j) < 0:
        raise ValueError(f"j must be a non-negative half-integer, got {j!r}")
    return int(round(two_j))


def m_values(j) -> np.ndarray:
    """Magnetic quantum numbers m = -j .. +j in ascending order."""
    two_j = _two_j(j)
    return np.arange(-two_j, two_j + 1, 2) / 2.0


def spin_operators(j) -> dict[str, np.ndarray]:
    """Matrix representations of Jx, Jy, Jz, J+ and J- for spin j.

    Entries follow the standard ladder convention
    <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) in the ascending-m basis.
    """
    two_j = _two_j(j)
    dim = two_j + 1
    m = m_values(j)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        mk = m[k]
        jplus[k + 1, k] = math.sqrt(j * (j + 1) - mk * (mk + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return {"Jx": jx, "Jy": jy, "Jz": jz, "Jplus": jplus, "Jminus": jminus}


def unitary_from_generator(generator: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i * angle * G) for Hermitian G, via eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


@lru_cache(maxsize=1024)
def _rotation_unitary_cached(two_j: int, area: float, axis_phase: float):
    ops = spin_operators(two_j / 2.0)
    generator = math.cos(axis_phase) * ops["Jx"] + math.sin(axis_phase) * ops["Jy"]
    u = unitary_from_generator(generator, area)
    u.setflags(write=False)
    return u


def rotation_unitary(j, area: float, axis_phase: float = 0.0) -> np.ndarray:
    """U = exp(-i * area * (Jx cos(phi) + Jy sin(phi))).

    Returns a read-only cached array; callers must not mutate it.
    """
    two_j = _two_j(j)
    return _rotation_unitary_cached(two_j, float(area), float(axis_phase))
