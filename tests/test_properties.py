"""Property tests over generated diagonal and dense instances.

Every property runs derandomized and with no example database, so each
run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosdp import (
    EnergyProblem,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    materialize,
)
from thermosdp import optimize
from thermosdp.oracle import (
    dual_objective,
    km_quadrature,
    lp_diagonal_energy,
    lp_diagonal_sdp_value,
)
from thermosdp.sdp import SdpProblem, reduce_direct_sum, reduce_qubit_embed

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# quarter-integer entries in [-1, 1] make ties and degenerate supports common
quarters = st.integers(-4, 4).map(lambda k: k / 4.0)
senses_of = st.sampled_from(["eq", "ge"])


@st.composite
def diagonal_problems(draw):
    """(h, charge rows, targets, senses) of a feasible diagonal problem: the
    targets are <Q_i> at a drawn probability vector, lowered by a drawn
    slack on each "ge" row."""
    d = draw(st.integers(2, 4))
    c = draw(st.integers(0, 2))
    h = draw(st.lists(quarters, min_size=d, max_size=d))
    rows = [draw(st.lists(quarters, min_size=d, max_size=d)) for _ in range(c)]
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any)))
    p = weights / weights.sum()
    senses = [draw(senses_of) for _ in range(c)]
    q = [float(np.dot(row, p)) - (draw(quarters) ** 2 if sense == "ge" else 0.0)
         for row, sense in zip(rows, senses)]
    return h, rows, q, senses


@PROPERTY
@given(diagonal_problems())
def test_lp_enumeration_matches_linprog(case):
    # the support enumeration, surplus columns included, against HiGHS with
    # sum(p) = 1 as one more "eq" row
    h, rows, q, senses = case
    problem = EnergyProblem(
        SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(r)) for r in rows], q,
        senses=senses,
    )
    expected = lp_diagonal_sdp_value(h, [*rows, np.ones(len(h))], [*q, 1.0],
                                     senses=[*senses, "eq"])
    assert lp_diagonal_energy(problem) == pytest.approx(expected, abs=1e-9)


@st.composite
def iz_sdps(draw):
    """A diagonal SDP on n <= 2 qubits with {I, Z} Pauli-sum data and targets
    read off a drawn witness X = diag(w), Tr X <= R ("ge" rows slackened)."""
    n = draw(st.integers(1, 2))
    strings = st.lists(st.text("IZ", min_size=n, max_size=n), min_size=1, max_size=3,
                       unique=True)

    def pauli_sum():
        return PauliSum(n, [(s, draw(quarters.filter(bool))) for s in draw(strings)])

    R = draw(st.sampled_from([1.0, 2.0, 4.0]))
    # one weight more than the dimension: the trace R leaves unused
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=2 ** n + 1,
                                     max_size=2 ** n + 1).filter(any)))
    witness = R * weights[:-1] / weights.sum()
    constraints, senses = [], []
    for _ in range(draw(st.integers(0, 2))):
        A = pauli_sum()
        senses.append(draw(senses_of))
        b = float(np.diagonal(materialize(A).entries).real @ witness)
        constraints.append((A, b - (draw(quarters) ** 2 if senses[-1] == "ge" else 0.0)))
    return SdpProblem(pauli_sum(), tuple(constraints), R, senses=tuple(senses))


@PROPERTY
@given(iz_sdps())
def test_both_reductions_have_one_energy(sdp):
    assert lp_diagonal_energy(reduce_qubit_embed(sdp)) == pytest.approx(
        lp_diagonal_energy(reduce_direct_sum(sdp)), abs=1e-9
    )


@st.composite
def shifted_duals(draw):
    """(problem, shifted problem, mu, T, a): a dense real-symmetric H and
    charges, and the same problem with H + a I."""
    d = draw(st.integers(2, 4))
    c = draw(st.integers(0, 2))
    entries = st.floats(-1.0, 1.0, allow_nan=False)

    def symmetric():
        a = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
        return (a + a.T) / 2.0

    H = symmetric()
    charges = [SpectralHermitian(symmetric()) for _ in range(c)]
    q = draw(st.lists(entries, min_size=c, max_size=c))
    a = draw(st.floats(-5.0, 5.0, allow_nan=False))
    mu = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=c, max_size=c))
    T = draw(st.floats(0.05, 2.0))
    return (EnergyProblem(SpectralHermitian(H), charges, q),
            EnergyProblem(SpectralHermitian(H + a * np.eye(d)), charges, q), mu, T, a)


@PROPERTY
@given(shifted_duals())
def test_energy_shift_shifts_the_dual(case):
    # -T ln Tr exp(-(G + a I)/T) = -T ln Tr exp(-G/T) + a
    problem, shifted, mu, T, a = case
    assert dual_objective(shifted, mu, T) == pytest.approx(
        dual_objective(problem, mu, T) + a, abs=1e-9
    )


@settings(PROPERTY, max_examples=300)
@given(diagonal_problems(), st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
       st.floats(1e-3, 2.0))
def test_weak_duality_against_the_lp(case, mu, T):
    # f(mu) <= F*_T <= E* for every mu with mu_i >= 0 on "ge" rows: the
    # lower bound a certified gap would rest on
    h, rows, q, senses = case
    problem = EnergyProblem(
        SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(r)) for r in rows], q,
        senses=senses,
    )
    mu = [abs(m) if sense == "ge" else m for m, sense in zip(mu, senses)]
    assert dual_objective(problem, mu, T) <= lp_diagonal_energy(problem) + 1e-9


@st.composite
def diagonal_models(draw):
    """(problem, mu, T) of a ``diagonal_problems`` draw, with mu >= 0 on "ge"
    rows, as the projection keeps it."""
    h, rows, q, senses = draw(diagonal_problems())
    problem = EnergyProblem(
        SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(r)) for r in rows], q,
        senses=senses,
    )
    mu = draw(st.lists(st.floats(-4.0, 4.0), min_size=len(q), max_size=len(q)))
    mu = [abs(m) if sense == "ge" else m for m, sense in zip(mu, senses)]
    return problem, mu, draw(st.floats(1e-3, 2.0))


def zero_temperature_bound(model):
    """l(mu) = mu.q + lam_min(G(mu)), the Lagrangian at T = 0."""
    return float(model.mu @ model.problem.q + model.eigenvalues[0])


@settings(PROPERTY, max_examples=300)
@given(diagonal_models())
def test_zero_temperature_bound_is_below_the_lp(case):
    # l(mu) = min over states of <H - mu.Q> + mu.q, which is at most E* for
    # every mu with mu_i >= 0 on "ge" rows
    problem, mu, T = case
    bound = zero_temperature_bound(ThermalModel(problem, mu, T))
    assert bound <= lp_diagonal_energy(problem) + 1e-9


@st.composite
def hermitian_models(draw):
    """(problem, mu, T): complex Hermitian H and 1-2 charges with quarter-
    integer entries (so tied and near-tied thermal weights are common)."""
    d = draw(st.integers(2, 4))
    c = draw(st.integers(1, 2))

    def hermitian():
        re, im = (np.array(draw(st.lists(quarters, min_size=d * d, max_size=d * d)))
                  .reshape(d, d) for _ in range(2))
        a = re + 1j * im
        return SpectralHermitian((a + a.conj().T) / 2.0)

    H = hermitian()
    charges = [hermitian() for _ in range(c)]
    mu = draw(st.lists(st.floats(-2.0, 2.0), min_size=c, max_size=c))
    return EnergyProblem(H, charges, [0.0] * c), mu, draw(st.floats(0.2, 2.0))


@PROPERTY
@given(hermitian_models())
def test_kubo_mori_is_symmetric_psd_and_matches_quadrature(case):
    # the Newton decrement grad.delta = grad.(I_KM + ridge)^-1 grad reads this
    # matrix and needs it PSD
    problem, mu, T = case
    km = ThermalModel(problem, mu, T).kubo_mori()
    scale = max(1.0, float(np.abs(km).max()))
    assert np.array_equal(km, km.T)
    assert np.linalg.eigvalsh(km).min() >= -1e-12 * scale
    assert np.abs(km - km_quadrature(problem, mu, T)).max() <= 1e-8 * scale


@settings(PROPERTY, max_examples=300)
@given(st.one_of(hermitian_models(), diagonal_models()))
def test_zero_temperature_bound_brackets_the_dual(case):
    # f = l - T ln sum_k exp(-(lam_k - lam_min)/T), and the sum lies in
    # [1, d]: f <= l <= f + T ln d
    problem, mu, T = case
    model = ThermalModel(problem, mu, T)
    f, bound = model.dual_objective(), zero_temperature_bound(model)
    rounding = 1e-12 * max(1.0, abs(f), abs(bound))
    assert f - rounding <= bound <= f + T * math.log(problem.d) + rounding


@st.composite
def line_search_trials(draw):
    """(problem, mu, cand, T): Pauli-sum data with quarter coefficients on
    strings over "IZ" (diagonal), "IXZ" (real dense) or "IXYZ" (complex
    dense); their few terms make exactly degenerate spectra common.  cand is
    mu plus an arbitrary step, projected onto a drawn ball and clamped at 0
    on "ge" rows, as Newton's trials are."""
    n = draw(st.integers(1, 3))
    strings = st.lists(st.text(draw(st.sampled_from(["IZ", "IXZ", "IXYZ"])),
                               min_size=n, max_size=n), min_size=1, max_size=3, unique=True)

    def pauli_sum():
        return PauliSum(n, [(s, draw(quarters.filter(bool))) for s in draw(strings)])

    c = draw(st.integers(1, 3))
    senses = [draw(senses_of) for _ in range(c)]
    problem = EnergyProblem(pauli_sum(), [pauli_sum() for _ in range(c)],
                            [draw(quarters) for _ in range(c)], senses=senses)
    mu = np.array(draw(st.lists(quarters, min_size=c, max_size=c))) * 4.0
    step = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=c, max_size=c)))
    radius = draw(st.sampled_from([0.5, 2.0, 8.0]))
    cand = optimize._project_feasible(mu + step, radius, problem._ge_rows)
    return problem, mu, cand, draw(st.floats(1e-3, 2.0))


@settings(PROPERTY, max_examples=300)
@given(line_search_trials())
def test_dephased_bound_is_above_the_dual(case):
    # Peierls: the free energy of rho(cand) dephased in mu's eigenbasis is
    # at least f(cand), whatever the step; on a diagonal problem the
    # eigenbasis is cand's too, and the two are equal
    problem, mu, cand, T = case
    model = ThermalModel(problem, mu, T)
    diagonals = np.array([R.diagonal().real for R in model.rotated_charges()])
    bound = optimize._dephased_bound(model, diagonals, cand)
    f = dual_objective(problem, cand, T)
    lam = model.eigenvalues
    norms = np.array([np.linalg.norm(Q) for Q in problem._charge_entries])
    rounding = 2.0 ** -40 * (abs(f) + max(abs(lam[0]), abs(lam[-1]))
                             + np.abs(cand - mu) @ norms)
    assert bound >= f - rounding
    if problem._diagonals is not None:
        assert abs(bound - f) <= rounding


@st.composite
def ray_bounds(draw):
    """(problem, mu, T, delta, t): a complex dense or diagonal model and a
    ray mu + t delta from it."""
    problem, mu, T = draw(st.one_of(hermitian_models(), diagonal_models()))
    c = len(problem.q)
    delta = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=c, max_size=c)))
    return problem, np.array(mu, dtype=float), T, delta, draw(st.floats(0.0, 4.0))


@settings(PROPERTY, max_examples=300)
@given(ray_bounds())
def test_dephased_bound_is_a_concave_model_of_the_dual_on_a_ray(case):
    # b(t), the dephased bound at mu + t delta, has b(0) = f(mu),
    # b'(0) = grad f.delta and b'' <= 0: Newton's first trial maximizes a
    # concave upper model of f exact to first order at mu.  By Peierls
    # b(t) >= f(mu + t delta), with equality on a diagonal problem, and
    # concavity puts b below its tangents at 0 and at t
    problem, mu, T, delta, t = case
    model = ThermalModel(problem, mu, T)
    diagonals = np.array([R.diagonal().real for R in model.rotated_charges()])
    diagonals = diagonals.reshape(len(delta), problem.d)
    a, dq = delta @ diagonals, float(delta @ problem.q)
    lam = model.eigenvalues
    norms = np.array([np.linalg.norm(Q) for Q in problem._charge_entries])
    f0, f = model.dual_objective(), dual_objective(problem, mu + t * delta, T)
    b0 = optimize._dephased_bound(model, diagonals, mu)
    b = optimize._dephased_bound(model, diagonals, mu + t * delta)
    slope0, curvature0 = optimize._bound_slope(model, a, dq, 0.0)
    slope, curvature = optimize._bound_slope(model, a, dq, t)
    scale = abs(f0) + max(abs(lam[0]), abs(lam[-1]))
    rounding = 2.0 ** -40 * (scale + abs(f) + t * np.abs(delta) @ (np.abs(problem.q) + norms))
    assert abs(b0 - f0) <= 2.0 ** -40 * scale
    assert abs(slope0 - model.gradient() @ delta) <= 2.0 ** -40 * (
        1.0 + np.abs(delta) @ (np.abs(problem.q) + norms))
    assert curvature0 <= 0.0 and curvature <= 0.0
    assert b <= b0 + t * slope0 + rounding
    assert b0 <= b - t * slope + rounding
    assert b >= f - rounding
    if problem._diagonals is not None:
        assert abs(b - f) <= rounding
