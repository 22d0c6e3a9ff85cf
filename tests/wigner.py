"""Closed-form Wigner small-d matrices: an oracle for the package's
rotation unitaries and RF pulses, independent of their eigendecomposition.
"""

import math

import numpy as np

from ddquad.spincore import m_values


def wigner_d_element(j, m_to, m_from, theta: float) -> float:
    """Closed-form d^j_{m',m}(theta) = <j m'|exp(-i theta Jy)|j m>.

    Factorials are exact integers; the sum is the standard one over the
    single free summation index.
    """
    jpm = int(round(j + m_from))
    jmm = int(round(j - m_from))
    jpmp = int(round(j + m_to))
    jmmp = int(round(j - m_to))
    if min(jpm, jmm, jpmp, jmmp) < 0:
        raise ValueError(f"invalid magnetic quantum numbers for j={j}")
    dm = int(round(m_to - m_from))
    pref = math.sqrt(
        math.factorial(jpm) * math.factorial(jmm)
        * math.factorial(jpmp) * math.factorial(jmmp)
    )
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    total = 0.0
    for k in range(max(0, -dm), min(jpm, jmmp) + 1):
        denom = (
            math.factorial(jpm - k) * math.factorial(k)
            * math.factorial(dm + k) * math.factorial(jmmp - k)
        )
        total += (-1) ** (dm + k) / denom * c ** (jpm + jmmp - 2 * k) * s ** (dm + 2 * k)
    return pref * total


def wigner_d_matrix(j, theta: float) -> np.ndarray:
    """Full rotation matrix d^j(theta) about y, ascending-m basis."""
    m = m_values(j)
    dim = len(m)
    d = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            d[a, b] = wigner_d_element(j, m[a], m[b], theta)
    return d
