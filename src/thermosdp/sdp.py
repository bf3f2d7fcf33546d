"""Standard-form semi-definite programs reduced to energy minimization.

A standard-form SDP

    alpha = min_{X >= 0} { Tr[C X] : Tr[A_i X] = b_i }

with a trace guess R > 0 becomes the trace-bounded variant alpha_R
(alpha_R >= alpha, saturating as R grows), which equals R times an energy
minimization over density matrices.  Two equivalent embeddings realize the
reduction: a direct sum with one extra dimension (d + 1, suited to dense
exact/Newton solves) and a tensor product with one extra qubit (2d, suited
to Pauli-sum stochastic solves).  Each returns the energy problem alone;
a "ge" constraint stays a "ge" row, whose dual is mu_i >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .operators import PauliSum, SpectralHermitian
from .optimize import SolveReport, _solve
from .thermal import EnergyProblem, _as_dense


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
    def is_pauli(self) -> bool:
        return isinstance(self.objective, PauliSum) and all(
            isinstance(A, PauliSum) for A, _ in self.constraints
        )


def _reduce(sdp: SdpProblem, embed) -> EnergyProblem:
    """The energy problem of ``sdp`` at trace guess R: C' = embed(C),
    charges embed(A_i), targets b_i / R; its minimum energy times R is alpha_R."""
    return EnergyProblem(
        embed(sdp.objective),
        [embed(A) for A, _ in sdp.constraints],
        [b / sdp.trace_bound for _, b in sdp.constraints],
        senses=sdp.senses,
    )


def _pad_corner(obs) -> SpectralHermitian:
    mat = _as_dense(obs).entries
    d = mat.shape[0]
    out = np.zeros((d + 1, d + 1), dtype=mat.dtype)
    out[:d, :d] = mat
    return SpectralHermitian(out)


def reduce_direct_sum(sdp: SdpProblem) -> EnergyProblem:
    """Append one zero row/column: C' = C (+) [0], targets b_i / R."""
    return _reduce(sdp, _pad_corner)


def _embed_sum(psum: PauliSum) -> PauliSum:
    """sigma -> sigma (x) |0><0| = (sigma (x) I + sigma (x) Z)/2 on one new qubit."""
    return PauliSum(psum.n + 1, [
        (index + suffix, coeff / 2.0) for index, coeff in psum.terms for suffix in "IZ"
    ])


def reduce_qubit_embed(sdp: SdpProblem) -> EnergyProblem:
    """Append one qubit: C' = C (x) |0><0|, targets b_i / R.

    Requires Pauli-sum data (a ValueError otherwise); each term splits into
    two half-weight terms with suffixes I and Z.  Agrees in value with the
    direct-sum reduction.
    """
    if not sdp.is_pauli:
        raise ValueError("the qubit embedding needs Pauli-sum observables")
    return _reduce(sdp, _embed_sum)


def solve_sdp(
    sdp: SdpProblem,
    epsilon: float,
    radius: float,
    mode: str = "exact",
    delta: float = 0.05,
    seed: Optional[int] = None,
) -> SolveReport:
    """Estimate alpha_R by solving the reduced energy problem at eps/R.

    The mode picks the reduction, the qubit embedding for ``sga`` (whose
    estimators need Pauli sums) or else the direct sum; the reduced problem
    then runs the solver an energy problem runs in that mode.  It solves at
    accuracy eps/R, with R = ``sdp.trace_bound``, so the estimate R * E
    carries error epsilon (its schedule rejects a bad eps/R); the report's
    other fields are those of the reduced problem.
    """
    if mode == "sga":
        problem, reduction = reduce_qubit_embed(sdp), "qubit_embed"
    else:
        problem, reduction = reduce_direct_sum(sdp), "direct_sum"
    report = _solve(problem, mode, epsilon / sdp.trace_bound, delta, radius, seed)
    return replace(report, estimate=float(sdp.trace_bound * report.estimate),
                   reduction=reduction)
