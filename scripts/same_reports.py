#!/usr/bin/env python3
"""Check that two checkouts give bit-identical solver reports.

Run from anywhere:

    python3 scripts/same_reports.py ../other-checkout

It solves fixed seeded pools of every benchmark workload, built by this
repository's ``perfbench/workloads.py`` (read, never edited), once with
this repository's library and once with the other checkout's, each in its
own subprocess:

* ``exact-diag`` seeds 3 and 17, all 32 solves of each pool;
* ``newton-dense`` seed 3, all 150 solves;
* ``sga-qubit`` seed 5, replicates 0, 1 and 2.

Every ``SolveReport`` field is compared, floats by their bits (the
schedule dataclass field by field).

It then runs a fixed list of ``thermosdp solve`` and ``thermosdp verify``
routes (``CLI_ROUTES``, on the problem files in ``PROBLEMS`` or verify's
bundled corpus) under each checkout's library and compares their stdout,
with the ``wall_time_s`` line removed, their stderr and their exit code.

Every workload and every route is checked, whatever differs first.  For
each workload it prints how many reports differ, the first differing
solve and field, and the largest |estimate difference|; then it names
each differing route and its first differing stream.  Exit status 0 means
every report and every route is identical, 1 that something differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (workload, seed, solves): the first ``solves`` solves of the seeded pool,
# cycling through its cases as the benchmark does
RUNS = (
    ("exact-diag", 3, 32),
    ("exact-diag", 17, 32),
    ("newton-dense", 3, 150),
    ("sga-qubit", 5, 3),
)

# problem files of the CLI routes, written once and read by both checkouts
PROBLEMS = {
    "bloch": {
        "kind": "energy", "qubits": 1,
        "H": [{"pauli": "Z", "coeff": 1.0}],
        "charges": [[{"pauli": "X", "coeff": 1.0}]],
        "q": [0.6],
        "solver": {"mode": "exact", "epsilon": 0.1, "radius_r": 2, "seed": 7},
    },
    "pauli-eq-ge": {
        "kind": "energy", "qubits": 2,
        "H": [{"pauli": "ZI", "coeff": 1.0}, {"pauli": "IZ", "coeff": 0.5},
              {"pauli": "XX", "coeff": 0.3}],
        "charges": [[{"pauli": "XI", "coeff": 1.0}],
                    [{"pauli": "IX", "coeff": 0.5}, {"pauli": "ZZ", "coeff": 0.5}]],
        "q": [0.2, -0.3],
        "senses": ["eq", "ge"],
        "solver": {"mode": "exact", "epsilon": 0.2, "radius_r": 2, "seed": 3},
    },
    "dense-complex": {
        "kind": "energy", "dimension": 3,
        "H": [[[1.0, 0.0], [0.2, 0.3], [0.0, -0.1]],
              [[0.2, -0.3], [-0.5, 0.0], [0.4, 0.0]],
              [[0.0, 0.1], [0.4, 0.0], [0.1, 0.0]]],
        "charges": [[[[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]],
                     [[0.0, -0.5], [-0.5, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]]]],
        "q": [0.1],
        "solver": {"mode": "exact", "epsilon": 0.1, "radius_r": 2},
    },
    "diagonal-ge": {
        "kind": "energy", "dimension": 3,
        "H": [[[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        "charges": [[[[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]],
        "q": [0.2],
        "senses": ["ge"],
        "solver": {"mode": "exact", "epsilon": 0.1, "radius_r": 2},
    },
    "pauli-sdp": {
        "kind": "sdp", "qubits": 1,
        "C": [{"pauli": "I", "coeff": 0.55}, {"pauli": "Z", "coeff": 0.45}],
        "A": [[{"pauli": "I", "coeff": 0.6}, {"pauli": "Z", "coeff": 0.4}]],
        "b": [1.2],
        "R": 2.0,
        "solver": {"mode": "exact", "epsilon": 0.2, "radius_r": 1.3, "seed": 5},
    },
    "dense-sdp": {
        "kind": "sdp", "dimension": 1,
        "C": [[[2.0, 0.0]]],
        "A": [[[[1.0, 0.0]]]],
        "b": [3.0],
        "R": 5.0,
        "solver": {"mode": "exact", "epsilon": 0.1, "radius_r": 1.0},
    },
    "bloch-overrides": {
        "kind": "energy", "qubits": 1,
        "H": [{"pauli": "Z", "coeff": 1.0}],
        "charges": [[{"pauli": "X", "coeff": 1.0}]],
        "q": [0.6],
        "solver": {"mode": "newton", "epsilon": 0.1, "radius_r": 2,
                   "overrides": {"ridge": 0.1, "M": 7, "eta": 0.5}},
    },
    "slack-ge": {
        "kind": "energy", "dimension": 2,
        "H": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "charges": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
        "q": [-0.5],
        "senses": ["ge"],
    },
    "over-cap": {
        "kind": "energy", "qubits": 11,
        "H": [{"pauli": "Z" * 11, "coeff": 1.0}],
        "charges": [],
        "q": [],
    },
    # f(0) = -T ln Z overflows at epsilon 1e-10: every backend exits 3
    "overflow": {
        "kind": "energy", "qubits": 1,
        "H": [{"pauli": "Z", "coeff": 1e300}],
        "charges": [[{"pauli": "X", "coeff": 1.0}]],
        "q": [0.1],
    },
}

# (subcommand, problem file or None, arguments after it): ``thermosdp solve
# FILE ...``, or ``thermosdp verify [FILE]``, on the bundled corpus for None;
# slack-ge's ``ge`` row is slack
CLI_ROUTES = (
    ("solve", "bloch", ["--mode", "exact"]),
    ("solve", "bloch", ["--mode", "newton"]),
    ("solve", "bloch", ["--mode", "sga"]),
    ("solve", "bloch", ["--mode", "sga", "--replicates", "3"]),
    ("solve", "pauli-eq-ge", ["--mode", "exact"]),
    ("solve", "pauli-eq-ge", ["--mode", "newton"]),
    ("solve", "pauli-eq-ge", ["--mode", "sga"]),
    ("solve", "dense-complex", ["--mode", "exact"]),
    ("solve", "dense-complex", ["--mode", "newton"]),
    ("solve", "diagonal-ge", ["--mode", "exact"]),
    ("solve", "diagonal-ge", ["--mode", "newton"]),
    ("solve", "pauli-sdp", ["--mode", "exact"]),
    ("solve", "pauli-sdp", ["--mode", "newton"]),
    ("solve", "pauli-sdp", ["--mode", "sga"]),
    ("solve", "dense-sdp", ["--mode", "newton", "--double-radius", "--radius", "0.1"]),
    # escalation: r 0.1 -> 0.8 on bloch; R 2 -> 8 on pauli-sdp
    ("solve", "bloch", ["--epsilon", "0.05", "--double-radius", "--radius", "0.1"]),
    ("solve", "bloch", ["--mode", "newton", "--epsilon", "0.05", "--double-radius",
                        "--radius", "0.1"]),
    ("solve", "bloch", ["--mode", "sga", "--epsilon", "0.2", "--delta", "0.1",
                        "--replicates", "2", "--double-radius", "--radius", "0.1"]),
    ("solve", "pauli-sdp", ["--double-trace"]),
    ("solve", "pauli-sdp", ["--mode", "newton", "--double-trace", "--double-radius",
                            "--radius", "0.05"]),
    ("solve", "pauli-sdp", ["--mode", "exact", "--double-trace", "--double-radius",
                            "--radius", "0.3"]),
    ("solve", "pauli-sdp", ["--mode", "sga", "--double-radius", "--radius", "0.05"]),
    ("solve", "bloch-overrides", []),
    ("solve", "over-cap", []),
    ("verify", None, []),
    # a dense SDP in sga mode: the qubit embedding rejects it, exit 2
    ("solve", "dense-sdp", ["--mode", "sga"]),
    ("verify", "diagonal-ge", []),
    ("verify", "slack-ge", []),
    ("solve", "overflow", ["--mode", "exact", "--epsilon", "1e-10"]),
    ("solve", "overflow", ["--mode", "newton", "--epsilon", "1e-10"]),
    ("solve", "overflow", ["--mode", "sga", "--epsilon", "1e-10"]),
)


def route_argv(command: str, problem, args) -> list:
    """The ``thermosdp`` arguments of one CLI route."""
    return [command, *([f"{problem}.json"] if problem else []), *args]


_WALL_TIME = re.compile(r'^ *"wall_time_s": [^\n]*\n?', re.MULTILINE)


def strip_wall_time(stdout: str) -> str:
    """``stdout`` without the report's ``wall_time_s`` line, the one field
    of a ``thermosdp solve`` report that differs from run to run."""
    return _WALL_TIME.sub("", stdout)


def cli_outputs(checkout: Path, workdir: Path):
    """[(route, stdout without wall time, stderr, exit code)] of every CLI
    route, run under the library in ``checkout/src`` from ``workdir``."""
    env = {k: v for k, v in os.environ.items() if k != "THERMOSDP_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    out = []
    for route in CLI_ROUTES:
        argv = route_argv(*route)
        done = subprocess.run(
            [sys.executable, "-m", "thermosdp.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        out.append((" ".join(argv), strip_wall_time(done.stdout),
                    done.stderr, done.returncode))
    return out


def first_cli_difference(ours, theirs):
    """(route, "stdout" | "stderr" | "exit code") of the first difference,
    or None."""
    for (route, *streams), (_, *other) in zip(ours, theirs):
        for label, a, b in zip(("stdout", "stderr", "exit code"), streams, other):
            if a != b:
                return route, label
    return None


def cli_differences(ours, theirs):
    """[(route, its first differing stream)] of every route that differs."""
    found = (first_cli_difference([a], [b]) for a, b in zip(ours, theirs))
    return [diff for diff in found if diff]


def canonical(value):
    """JSON-safe form of a report field in which equal means bit-equal:
    floats as hex strings, dataclasses as {field: value} with their type."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"type": type(value).__name__, **fields}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value).hex()


def emit(checkout: Path):
    """Print one JSON line per solve, ``[workload, seed, k, {field: value}]``,
    solving with the library under ``checkout/src``."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    import thermosdp
    import workloads

    if Path(thermosdp.__file__).resolve().parent != (checkout / "src" / "thermosdp").resolve():
        raise SystemExit(f"imported {thermosdp.__file__}, not the library of {checkout}")
    for name, seed, solves in RUNS:
        pool = workloads.make_workload(name, seed).cases
        problems = [workloads.build(workloads.raw(case.spec)) for case in pool]
        for k in range(solves):
            report = workloads.solve(pool[k % len(pool)], problems[k % len(pool)], seed, k)
            fields = {f.name: canonical(getattr(report, f.name))
                      for f in dataclasses.fields(report)}
            print(json.dumps([name, seed, k, fields]), flush=True)


def reports(checkout: Path):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout)],
        capture_output=True, text=True,
    )
    if out.returncode:
        raise SystemExit(f"{checkout}: exited with code {out.returncode}\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def first_difference(ours, theirs):
    """(workload, seed, solve, field) of the first difference, or None."""
    for (name, seed, k, fields), (*_, other) in zip(ours, theirs):
        for field in sorted(set(fields) | set(other)):
            if fields.get(field) != other.get(field):
                return name, seed, k, field
    return None


def workload_differences(ours, theirs):
    """[(workload, seed, reports, differing reports, first (workload, seed,
    solve, field) or None, largest |estimate difference|)], one entry per
    workload run, in the order of ``ours``."""
    runs = {}
    for row, other in zip(ours, theirs):
        runs.setdefault(tuple(row[:2]), []).append((row, other))
    out = []
    for (name, seed), pairs in runs.items():
        firsts = [first_difference([a], [b]) for a, b in pairs]
        shift = max(abs(float.fromhex(a[3]["estimate"]) - float.fromhex(b[3]["estimate"]))
                    for a, b in pairs)
        out.append((name, seed, len(pairs), len(firsts) - firsts.count(None),
                    next(filter(None, firsts), None), shift))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="checkout to compare this one with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.other)
        return 0
    ours, theirs = reports(ROOT), reports(args.other)
    differing = 0
    for name, seed, solves, count, first, shift in workload_differences(ours, theirs):
        line = f"{name} seed {seed}: {count} of {solves} reports differ"
        if first:
            line += f"; first solve {first[2]}, field {first[3]!r}; max |d estimate| {shift:.3g}"
        print(line)
        differing += count
    if not differing:
        print(f"{len(ours)} reports identical")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, doc in PROBLEMS.items():
            (workdir / f"{name}.json").write_text(json.dumps(doc))
        ours = cli_outputs(ROOT, workdir)
        theirs = cli_outputs(args.other.resolve(), workdir)
    routes = cli_differences(ours, theirs)
    for route, stream in routes:
        print(f"thermosdp {route}: {stream} differs")
    print(f"{len(ours) - len(routes)} of {len(ours)} CLI routes identical")
    return 1 if differing or routes else 0


if __name__ == "__main__":
    sys.exit(main())
