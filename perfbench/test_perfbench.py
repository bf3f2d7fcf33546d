"""Tests of the benchmark's own arithmetic, oracle checks and determinism."""

import json

import numpy as np
import pytest

import run
import tracer
import workloads

thermosdp = run.load_program()

from thermosdp import EnergyProblem, ThermalModel, materialize, replicate_sga  # noqa: E402
from thermosdp.oracle import bloch_energy_problem  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a1", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b1", 6.0, 7.0, 3),
        span("b2", 6.5, 8.0, 3),  # overlaps b1: the union counts once
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    spans.append(span("a", 9.5, 9.75, 0))
    totals = tracer.layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(2.25)
    assert totals["root"]["self_s"] == pytest.approx(2.75)


def test_tail_is_the_value_with_ten_solves_beyond_it():
    value, percentile = run.tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0
    assert percentile == pytest.approx(200.0 / 3.0)


def test_oracle_check_catches_a_wrong_estimate(monkeypatch):
    rng = np.random.default_rng(7)
    case = workloads.energy_case(rng, 8, 1, 0.3, 1.0, "exact", False)
    problem = workloads.build(workloads.raw(case.spec))
    report = workloads.solve(case, problem, 0, 0)
    assert workloads.gap_over_eps(case, report.estimate) <= 1.0
    assert workloads.gap_over_eps(case, report.estimate + 2.0 * case.eps) > 1.0

    class Wrong:
        estimate = case.oracle + 1.5 * case.eps

    monkeypatch.setattr(workloads, "solve", lambda *args: Wrong())
    tally = run.Tally((thermosdp.NumericError, ValueError))
    tally.run(case, problem, 0, 0)
    assert (tally.attempted, tally.passed, tally.failed) == (1, 0, 1)
    assert "misses oracle" in tally.failures[0]


def test_raised_solve_counts_as_failed(monkeypatch):
    def boom(*args):
        raise thermosdp.NumericError("non-finite objective", iteration=3)

    monkeypatch.setattr(workloads, "solve", boom)
    tally = run.Tally((thermosdp.NumericError, ValueError))
    case = workloads.sga_case()
    tally.run(case, None, 0, 0)
    assert tally.failed == 1 and len(tally.times) == 1 and tally.worst_gap(case) is None


def test_generated_oracles_agree_with_independent_forms():
    case = workloads.sga_case()
    problem = workloads.build(workloads.raw(case.spec))
    assert case.oracle == pytest.approx(bloch_energy_problem(problem), abs=1e-12)

    rng = np.random.default_rng(11)
    sdp_case = workloads.sdp_case(rng, 8, 1, 2.0, 0.4, 1.0, "exact", True)
    sdp = workloads.build(workloads.raw(sdp_case.spec))
    diag = np.diagonal(materialize(sdp.objective).entries).real
    expected = sum(a * workloads.zstring_diagonal(s) for s, a in sdp_case.spec["C"])
    assert np.allclose(diag, expected)
    report = workloads.solve(sdp_case, sdp, 0, 0)
    assert workloads.gap_over_eps(sdp_case, report.estimate) <= 1.0


def test_sga_solve_k_is_replicate_k():
    case = workloads.sga_case(eps=0.8, delta=0.4, radius=1.0)
    problem = workloads.build(workloads.raw(case.spec))
    reps = replicate_sga(problem, case.eps, case.delta, case.radius, seed=5, replicates=2)
    assert workloads.solve(case, problem, 5, 1) == reps[1]


def small_workload(seed):
    rng = np.random.default_rng(seed)
    cases = (
        workloads.sga_case(eps=0.8, delta=0.4, radius=1.0),
        workloads.energy_case(rng, 8, 1, 0.3, 1.0, "exact", False),
        workloads.sdp_case(rng, 8, 1, 2.0, 0.6, 1.0, "exact", True),
    )
    return workloads.Workload(cases, trace_cycle=3)


def traced_counts(seed):
    workload = small_workload(seed)
    raws = [workloads.raw(c.spec) for c in workload.cases]
    problems = [workloads.build(r) for r in raws]
    tally = run.Tally((thermosdp.NumericError, ValueError))
    metrics, extra = run.traced_run(workload, raws, problems, seed, 1e-3, tally)
    assert tally.failed == 0 and extra["missing_layers"] == []
    return metrics


def test_same_seed_gives_identical_counts():
    original = (np.linalg.eigh, ThermalModel.__init__, vars(thermosdp.Density).get("__init__"),
                thermosdp.sampling.estimate_obs)
    first, second = traced_counts(3), traced_counts(3)
    for name in ("optimize.iterations", "sampling.shots", "thermal.ThermalModel.calls",
                 "operators.eigh.calls"):
        assert first[name] == second[name] > 0
    assert first["sampling.shots"] > 0 and first["thermal.kubo_mori.calls"] == 0
    # every wrapper is gone once the traced cycle ends
    assert original == (np.linalg.eigh, ThermalModel.__init__,
                        vars(thermosdp.Density).get("__init__"), thermosdp.sampling.estimate_obs)


def test_missing_wrap_target_is_reported_not_raised():
    spans = tracer.Tracer()
    targets = (
        ("thermal.gone", "thermosdp.thermal", "no_such_function"),
        ("nowhere.gone", "no_such_module_xyz", "f"),
        ("thermal.ThermalModel", "thermosdp.thermal:ThermalModel", "__init__"),
    )
    original = ThermalModel.__init__
    with spans.installed(targets) as missing:
        ThermalModel(EnergyProblem(np.diag([1.0, -1.0]), [np.diag([1.0, 0.0])], [0.5]),
                     [0.0], 1.0)
    assert missing == ["thermosdp.thermal.no_such_function", "no_such_module_xyz.f"]
    assert [s[tracer.NAME] for s in spans.spans] == ["thermal.ThermalModel"]
    assert ThermalModel.__init__ is original
    assert run._missing_layers({"thermosdp.sampling.estimate_obs"}) == {"sampling.estimate_obs"}
    assert run._missing_layers({"thermosdp.sdp.materialize"}) == set()


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
