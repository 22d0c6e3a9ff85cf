"""The Cramer-Rao bound on a fringe's phase: the yardstick the fringe fit
is held to (criterion 8), kept beside the tests that read it.
"""

import math


def cramer_rao_phase_bound(n_total_shots: int, contrast: float) -> float:
    """Lower bound on the fringe-phase std for a uniform phase grid."""
    return math.sqrt(2.0 / (n_total_shots * contrast ** 2))
