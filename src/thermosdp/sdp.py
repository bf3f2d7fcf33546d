"""Standard-form semi-definite programs reduced to energy minimization.

A standard-form SDP

    alpha = min_{X >= 0} { Tr[C X] : Tr[A_i X] = b_i }

with a trace guess R > 0 becomes the trace-bounded variant alpha_R
(alpha_R >= alpha, saturating as R grows), which equals R times an energy
minimization over density matrices.  Two equivalent embeddings realize the
reduction: a direct sum with one extra dimension (d + 1, suited to dense
exact/Newton solves) and a tensor product with one extra qubit (2d, suited
to Pauli-sum stochastic solves).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .operators import PauliSum, RepresentationError, SpectralHermitian, materialize
from .optimize import (
    SolveReport,
    gradient_ascent,
    natural_gradient_ascent,
    sga,
)
from .thermal import EnergyProblem

SDP_MODES = ("exact", "sga", "newton")


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form data (C, (A_i, b_i)_i) with trace guess R.

    ``objective`` and each constraint matrix may be PauliSum or dense; all
    must share one dimension.  ``senses`` optionally marks constraints
    "eq"/"ge" ("ge" meaning Tr[A_i X] >= b_i, handled by restricting the
    dual variable to be non-negative).
    """

    objective: object
    constraints: Tuple[Tuple[object, float], ...]
    trace_bound: float
    senses: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.trace_bound <= 0 or not np.isfinite(self.trace_bound):
            raise ValueError("trace guess R must be finite and positive")
        object.__setattr__(self, "constraints", tuple(
            (A, float(b)) for A, b in self.constraints
        ))
        if self.senses is not None and len(self.senses) != len(self.constraints):
            raise ValueError("senses length must match constraint count")

    @property
    def c(self) -> int:
        return len(self.constraints)

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.objective, PauliSum) and all(
            isinstance(A, PauliSum) for A, _ in self.constraints
        )


def _dense(obs) -> np.ndarray:
    if isinstance(obs, PauliSum):
        return materialize(obs).entries
    if isinstance(obs, SpectralHermitian):
        return obs.entries
    return SpectralHermitian(np.asarray(obs)).entries


def _pad_corner(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    out = np.zeros((d + 1, d + 1), dtype=mat.dtype)
    out[:d, :d] = mat
    return out


def reduce_direct_sum(sdp: SdpProblem) -> Tuple[EnergyProblem, float]:
    """Append one zero row/column: C' = C (+) [0], targets b_i / R.

    The reduced minimum energy times R equals alpha_R.
    """
    C = _pad_corner(_dense(sdp.objective))
    charges = [_pad_corner(_dense(A)) for A, _ in sdp.constraints]
    targets = [b / sdp.trace_bound for _, b in sdp.constraints]
    problem = EnergyProblem(
        SpectralHermitian(C),
        [SpectralHermitian(A) for A in charges],
        targets,
        senses=sdp.senses,
    )
    return problem, sdp.trace_bound


def _embed_term(index: str, coeff: float):
    """sigma -> sigma (x) |0><0| = (sigma (x) I + sigma (x) Z)/2 on one new qubit."""
    return [(index + "I", coeff / 2.0), (index + "Z", coeff / 2.0)]


def _embed_sum(psum: PauliSum) -> PauliSum:
    terms = []
    for index, coeff in psum.terms:
        terms.extend(_embed_term(index, coeff))
    return PauliSum(psum.n + 1, terms)


def reduce_qubit_embed(sdp: SdpProblem) -> Tuple[EnergyProblem, float]:
    """Append one qubit: C' = C (x) |0><0|, targets b_i / R.

    Requires Pauli-sum data; each term splits into two half-weight terms
    with suffixes I and Z.  Agrees in value with the direct-sum reduction.
    """
    if not sdp.is_pauli:
        raise RepresentationError(
            "the qubit embedding needs Pauli-sum observables"
        )
    problem = EnergyProblem(
        _embed_sum(sdp.objective),
        [_embed_sum(A) for A, _ in sdp.constraints],
        [b / sdp.trace_bound for _, b in sdp.constraints],
        senses=sdp.senses,
    )
    return problem, sdp.trace_bound


def solve_sdp(
    sdp: SdpProblem,
    epsilon: float,
    radius: float,
    mode: str = "exact",
    delta: float = 0.05,
    seed: Optional[int] = None,
    newton_iterations: int = 50,
    ridge: Optional[float] = None,
) -> SolveReport:
    """Estimate alpha_R by solving the reduced energy problem at eps/R.

    Dense modes (exact, newton) use the direct-sum reduction; the
    stochastic mode uses the qubit embedding.  The reduced solve runs at
    accuracy epsilon/R so the rescaled output R * E carries error epsilon.
    """
    if mode not in SDP_MODES:
        raise ValueError(f"mode must be one of {SDP_MODES}, got {mode!r}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if mode == "sga":
        problem, scale = reduce_qubit_embed(sdp)
    else:
        problem, scale = reduce_direct_sum(sdp)
    inner_eps = epsilon / scale
    if mode == "exact":
        report = gradient_ascent(problem, inner_eps, radius)
    elif mode == "newton":
        report = natural_gradient_ascent(
            problem, inner_eps, radius, iterations=newton_iterations, ridge=ridge
        )
    else:
        report = sga(problem, inner_eps, delta, radius, seed=seed)
    reduction = "qubit_embed" if mode == "sga" else "direct_sum"
    return replace(report, estimate=float(scale * report.estimate), reduction=reduction)
