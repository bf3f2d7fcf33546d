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
schedule dataclass field by field).  Exit status 0 means every report is
identical; 1 names the first workload, solve and field that differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import subprocess
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="checkout to compare this one with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.other)
        return 0
    ours, theirs = reports(ROOT), reports(args.other)
    diff = first_difference(ours, theirs)
    if diff:
        name, seed, k, field = diff
        print(f"{name} seed {seed} solve {k}: field {field!r} differs")
        return 1
    print(f"{len(ours)} reports identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
