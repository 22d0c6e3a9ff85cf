"""Machine-speed probe and the scaling of timings by it.

The probe is a fixed pure-numpy kernel shaped like the executor's inner
loop (a complex exp and a small matmul on a (300, 8) batch).  It is not
ddquad code, so no change to the program can move it; only the host
can.  A timing taken between two probes is reported as

    wall * PROBE_REF_MS / probe_now_ms

so that a host that is slower for a while (shared cores, frequency
changes) inflates the probe and the op alike and the ratio cancels.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference host (2-core x86-64 VM, Python
# 3.11, numpy 2.4, BLAS pinned to one thread).  It only fixes the unit
# of the scaled timings; it must never be re-measured between commits.
PROBE_REF_MS = 33.0

_ROWS, _LEVELS = 300, 8
_REPS = 400


class Probe:
    """Owns the probe's fixed inputs; ``run_ms`` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._phase = rng.uniform(0.0, 2.0 * np.pi, (_ROWS, _LEVELS))
        self._state = (rng.normal(size=(_ROWS, _LEVELS))
                       + 1j * rng.normal(size=(_ROWS, _LEVELS)))
        q, _ = np.linalg.qr(rng.normal(size=(_LEVELS, _LEVELS))
                            + 1j * rng.normal(size=(_LEVELS, _LEVELS)))
        self._unitary_t = np.ascontiguousarray(q.T)

    def run_ms(self) -> float:
        state = self._state
        t0 = time.perf_counter()
        for _ in range(_REPS):
            state = (state * np.exp(1j * self._phase)) @ self._unitary_t
        return (time.perf_counter() - t0) * 1e3


def scale_factor(probe_before_ms: float, probe_after_ms: float,
                 probe_ref_ms: float = PROBE_REF_MS) -> float:
    """Factor that maps a wall time measured between two probes onto the
    reference host: probe_ref / mean(probe_before, probe_after)."""
    probe_now = 0.5 * (probe_before_ms + probe_after_ms)
    if not probe_now > 0.0:
        raise ValueError(f"probe time must be positive, got {probe_now}")
    return probe_ref_ms / probe_now
