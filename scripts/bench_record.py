#!/usr/bin/env python3
"""Record benchmark runs as ``BENCH_<label>.json`` at the repository root.

Run from anywhere:

    python3 scripts/bench_record.py --label main --seeds 1 2 3
    python3 scripts/bench_record.py --label base --checkout ../other-checkout

For every workload and seed it runs ``python3 perfbench/run.py --trace 0``
for the run length ``BENCHMARK.json`` sets, in the checkout (this
repository by default), one run at a time, and reads the last two stdout
lines: the report (provenance and every metric) and the result object.  The file holds the provenance of the first run, the seeds,
and per workload the median, quartiles and IQR of each end-to-end metric
with the values of every run, the worst ``gap_over_eps.max`` and the failed
solve count.  It is written to the root of the repository that holds this
script, whichever checkout was measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


STDERR_LINES = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """(report, result) of one untraced benchmark run; a failed run exits
    with its checkout, workload, seed, exit code and the end of its stderr."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if out.returncode:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_LINES:])
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} exited with code {out.returncode}\n{tail}"
        )
    report_line, result_line = out.stdout.splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def spread(values):
    """Median, quartiles and IQR of the runs' values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarize(runs):
    """Per-workload summary of a list of (report, result) pairs."""
    emitted = runs[0][1]["metrics"]
    metrics = {
        name: {"unit": emitted[name]["unit"],
               **spread([result["metrics"][name]["value"] for _, result in runs])}
        for name in emitted
    }
    gaps = [report["metrics"]["gap_over_eps.max"]["value"] for report, _ in runs]
    return {
        "runs": len(runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": metrics,
        "gap_over_eps.max": max((g for g in gaps if g is not None), default=None),
    }


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    provenance = None
    workloads = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            report, result = run_once(args.checkout, workload, seed, seconds)
            provenance = provenance or {k: v for k, v in report["provenance"].items()
                                        if k != "seed"}
            runs.append((report, result))
            print(f"{workload} seed {seed}: "
                  f"{result['metrics']['solves_per_s']['value']:.3f} solves/s", file=sys.stderr)
        workloads[workload] = summarize(runs)
    record = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --trace 0 --seconds {seconds:g}",
        "provenance": provenance,
        "seeds": args.seeds,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
