#!/usr/bin/env python3
"""thermosdp benchmark: one seeded workload, solved in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-diag --seed 1 --seconds 30 --trace 0

One process solves one problem after another (no thread pool; BLAS keeps
its default thread count) through the public API, and checks every estimate
against an oracle value computed before timing starts.  ``--trace 0``
measures the end-to-end metrics, with solve figures scaled to a nominal host
speed by ``calibration``; ``--trace 1`` alternates an untraced and a
traced pass over the workload's trace cycle and reports per-layer costs and
the tracing overhead.  The next-to-last stdout line is a full report with
provenance; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibration
import provenance
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SOLVES = 11  # the tail percentile needs 10 solves beyond it
HARD_LIMIT_S = 120.0  # stop starting solves, whatever --seconds says
SETUP_PROBES = 5
REFERENCE_EVERY_S = 1.0  # host speed probe between solves, at most this often

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "peak_rss_mb": "MB",
}
# printed in the report: failed_frac is 0 on a correct run, and the oracle
# gap is gated absolutely (a gap above 1 fails the solve) rather than by a
# relative bound
REPORTED_END_TO_END = {"gap_over_eps.max": "ratio", "failed_frac": "frac"}

# per-layer metrics of layers every workload runs; the result object carries
# these, the report carries every layer
PER_LAYER = {
    "operators.eigh.calls": "count",
    "operators.eigh.self_s": "s",
    "operators.eigh.complex_share": "frac",
    "operators.SpectralHermitian.calls": "count",
    "operators.SpectralHermitian.self_s": "s",
    "operators.Density.calls": "count",
    "operators.Density.self_s": "s",
    "thermal.ThermalModel.calls": "count",
    "thermal.ThermalModel.self_s": "s",
    "thermal.effective_hamiltonian.self_s": "s",
    "optimize.iterations": "count",
    "optimize.models_per_iteration": "ratio",
    "optimize.improving_frac": "frac",
    "optimize.self_s": "s",
    "trace.overhead_frac": "frac",
}
WORKLOAD_LAYERS = {
    "operators.expectation.calls": "count",
    "operators.expectation.self_s": "s",
    "operators.materialize.self_s": "s",
    "thermal.charge_expectations.self_s": "s",
    "thermal.kubo_mori.calls": "count",
    "thermal.kubo_mori.self_s": "s",
    "sampling.estimate_obs.calls": "count",
    "sampling.estimate_obs.self_s": "s",
    "sampling.shots": "count",
    "sampling.shots_per_s": "1/s",
    "sdp.reduce_direct_sum.self_s": "s",
    "sdp.solve_sdp.self_s": "s",
    "trace.solves_per_s": "1/s",
    "trace.untraced_solves_per_s": "1/s",
}


def load_program():
    """Import thermosdp from this checkout's src/, or exit non-zero."""
    init = SRC / "thermosdp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import thermosdp

    if Path(thermosdp.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported thermosdp from {thermosdp.__file__}, not {init}")
    return thermosdp


class Tally:
    """Oracle check and wall time of every solve."""

    def __init__(self, errors):
        self.errors = errors
        self.attempted = 0
        self.passed = 0
        self.times = []
        self.estimates = []
        self.gaps = []
        self.failures = []

    def run(self, case, problem, seed, k):
        """Solve, time and check; returns (report or None, wall seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = workloads.solve(case, problem, seed, k)
        except self.errors as exc:
            self.times.append(time.perf_counter() - start)
            self.failures.append(f"solve {k}: {type(exc).__name__}: {exc}")
            return None, self.times[-1]
        self.times.append(time.perf_counter() - start)
        gap = workloads.gap_over_eps(case, report.estimate)
        self.estimates.append(float(report.estimate))
        self.gaps.append(gap)
        if gap <= 1.0:
            self.passed += 1
        else:
            self.failures.append(
                f"solve {k}: estimate {report.estimate!r} misses oracle {case.oracle!r} "
                f"by {gap:.3f} eps"
            )
        return report, self.times[-1]

    @property
    def failed(self):
        return self.attempted - self.passed

    def worst_gap(self, case):
        """Worst gap over eps (for SGA the replicate mean's); None if no
        solve returned."""
        if not self.estimates:
            return None
        if case.solver == "sga":
            return workloads.gap_over_eps(case, statistics.fmean(self.estimates))
        return max(self.gaps)


def tail(times):
    """(value, percentile) of the highest percentile with at least 10 solves
    beyond it: the (n-10)-th smallest of n times."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure_setup(workload):
    """Median over fresh processes of import thermosdp + problem building."""
    payload = json.dumps({"src": str(SRC), "specs": [c.spec for c in workload.cases]})
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], input=payload,
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        values.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(values), values


def timed_run(workload, problems, seed, seconds, tally):
    references = [calibration.reference_seconds() for _ in range(3)]
    setup_s, probes = measure_setup(workload)
    cases = workload.cases
    start = last_reference = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and tally.attempted >= MIN_SOLVES):
            break
        tally.run(cases[k % len(cases)], problems[k % len(cases)], seed, k)
        k += 1
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(calibration.reference_seconds())
            last_reference = time.perf_counter()
    elapsed = time.perf_counter() - start - sum(references[3:])
    tail_s, tail_pct = tail(tally.times)
    wall = {
        "solves_per_s": tally.passed / elapsed,
        "solve_s.p50": statistics.median(tally.times),
        "solve_s.tail": tail_s,
    }
    # solve figures at the nominal host speed; set-up and memory stay raw
    slowness = statistics.median(references) / calibration.NOMINAL_S
    metrics = {
        "setup_s": setup_s,
        "solves_per_s": wall["solves_per_s"] * slowness,
        "solve_s.p50": wall["solve_s.p50"] / slowness,
        "solve_s.tail": wall["solve_s.tail"] / slowness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gap_over_eps.max": tally.worst_gap(cases[0]),
        "failed_frac": tally.failed / tally.attempted,
    }
    extra = {
        "solve_s.tail.percentile": tail_pct,
        "solve_s.samples": len(tally.times),
        "solve_times_s": tally.times,
        "timed_s": elapsed,
        "setup_probes_s": probes,
        "wall": wall,
        "host_slowness": slowness,
        "reference_s": statistics.median(references),
        "reference_samples": len(references),
    }
    return metrics, extra


def traced_run(workload, raws, problems, seed, seconds, tally):
    """Alternate an untraced and a traced pass over the trace cycle until
    ``seconds`` have passed; layer figures are per traced cycle."""
    cycle = range(workload.trace_cycle)
    cases = workload.cases
    totals = defaultdict(lambda: defaultdict(float))
    per_cycle_counts = set()
    missing = set()
    untraced_s = traced_s = 0.0
    iterations = improving = shots = 0
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for k in cycle:
            untraced_s += tally.run(cases[k], problems[k], seed, k)[1]
        spans = tracer.Tracer()
        with spans.installed() as gone:
            with spans.span("setup", -1):
                fresh = [workloads.build(raws[k]) for k in cycle]
            for k in cycle:
                with spans.span("solve", k):
                    report, elapsed = tally.run(cases[k], fresh[k], seed, k)
                traced_s += elapsed
                if report is not None:
                    iterations += len(report.objective_trace) - 1
                    improving += workloads.improving_steps(report.objective_trace)
                    shots += report.sample_count
        missing.update(gone)
        layers = tracer.layer_totals(spans.spans)
        per_cycle_counts.add(tuple(sorted((k, v["calls"]) for k, v in layers.items())))
        for layer, entry in layers.items():
            for key, value in entry.items():
                totals[layer][key] += value
        cycles += 1

    def per_cycle(layer, key):
        return totals[layer][key] / cycles

    solves = cycles * workload.trace_cycle
    metrics = {}
    present = {layer for layer, _, _ in tracer.TARGETS} - _missing_layers(missing)
    for layer in present:
        metrics[f"{layer}.calls"] = per_cycle(layer, "calls")
        metrics[f"{layer}.self_s"] = per_cycle(layer, "self_s")
    if "operators.eigh" in present:
        eigh = totals["operators.eigh"]
        metrics["operators.eigh.complex_share"] = (
            eigh["complex_self_s"] / eigh["self_s"] if eigh["self_s"] else 0.0
        )
    metrics["optimize.iterations"] = iterations / cycles
    if "thermal.ThermalModel" in present and iterations:
        metrics["optimize.models_per_iteration"] = (
            totals["thermal.ThermalModel"]["calls"] / iterations
        )
    metrics["optimize.improving_frac"] = improving / iterations if iterations else 0.0
    metrics["sampling.shots"] = shots / cycles
    if "sampling.estimate_obs" in present:
        busy = totals["sampling.estimate_obs"]["self_s"]
        metrics["sampling.shots_per_s"] = shots / busy if busy else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.solves_per_s"] = solves / traced_s
    metrics["trace.untraced_solves_per_s"] = solves / untraced_s
    extra = {
        "traced_cycles": cycles,
        "solves_per_cycle": workload.trace_cycle,
        "counts_identical_across_cycles": len(per_cycle_counts) == 1,
        "missing_sites": sorted(missing),
        "missing_layers": sorted(_missing_layers(missing)),
    }
    return metrics, extra


def _missing_layers(missing_sites):
    """Layers none of whose sites could be wrapped."""
    sites = defaultdict(set)
    for layer, owner, attr in tracer.TARGETS:
        sites[layer].add(f"{owner}.{attr}")
    return {layer for layer, names in sites.items() if names <= missing_sites}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    thermosdp = load_program()
    workload = workloads.make_workload(args.workload, args.seed)
    raws = [workloads.raw(case.spec) for case in workload.cases]
    problems = [workloads.build(item) for item in raws]
    tally = Tally((thermosdp.NumericError, ValueError))
    if args.trace:
        metrics, extra = traced_run(workload, raws, problems, args.seed, args.seconds, tally)
        units, emitted = {**PER_LAYER, **WORKLOAD_LAYERS}, PER_LAYER
    else:
        metrics, extra = timed_run(workload, problems, args.seed, args.seconds, tally)
        units, emitted = {**END_TO_END, **REPORTED_END_TO_END}, END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance.provenance(ROOT, args.seed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        **extra,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in emitted.items() if name in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
