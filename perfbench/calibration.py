"""Host speed probe: a fixed numpy + interpreter workload, timed in between
solves.  It uses no thermosdp code, so a change to the program cannot move
it; only the machine's speed can.

On a shared 2-vCPU host the same solve can take 1.7x longer in one minute
than in the next.  Solve times are therefore also reported scaled to a
nominal host speed: wall time x ``NOMINAL_S`` / (median probe time of the
run).
"""

from __future__ import annotations

import time

import numpy as np

# probe time that defines the nominal host speed; the scale of the
# calibrated figures, not a measurement of any particular machine
NOMINAL_S = 0.0125

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(16, 16)) + 1j * _RNG.normal(size=(16, 16))
_H = (_A + _A.conj().T) / 2.0
_SHIFTS = [k * 1e-3 * np.eye(16) for k in range(100)]


def reference_seconds() -> float:
    """Wall time of one fixed pass of small Hermitian eigh, matrix products,
    tiny-array numpy calls and Python arithmetic: the mix the solvers spend
    their time in."""
    start = time.perf_counter()
    acc = 0.0
    for shift in _SHIFTS:
        vals, vecs = np.linalg.eigh(_H + shift)
        rho = (vecs * np.exp(-vals)) @ vecs.conj().T
        acc += float(np.trace(rho @ _H).real)
        ends = np.array([vals[0], vals[-1]])
        acc += float(np.sum(np.exp(-np.abs(ends)))) + float(np.clip(ends, -1.0, 1.0).mean())
        acc += sum(0.5 * j for j in range(60))
    if not np.isfinite(acc):
        raise ArithmeticError("reference workload produced a non-finite value")
    return time.perf_counter() - start
