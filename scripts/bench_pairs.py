#!/usr/bin/env python3
"""Compare another checkout with this one by alternating benchmark runs.

Run from anywhere:

    python3 scripts/bench_pairs.py ../parent-checkout --workload newton-dense --seed 5 --pairs 10

Each pair runs ``python3 perfbench/run.py --trace 0`` once in OTHER, the
base, and once in this checkout, the change, on the same workload and seed
for the run length ``BENCHMARK.json`` sets.  Which side runs first switches
from pair to pair, so a drift in host speed falls on both sides alike;
runs made minutes apart do not.  Runs go through ``bench_record.run_once``
and are summarized by ``bench_record.spread``; perfbench is only read.

Every pair's values are printed as it ends.  Then, for each end-to-end
metric of ``BENCHMARK.json``, each side's median [q1, q3], the pairs the
change won (a tie counts for neither) and a verdict:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the base's by more than the base's IQR;
* ``unresolved``: no gain, and the runs of one side spread (IQR over median)
  wider than the metric's bound, unless every run of the change is better
  than every run of the base;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``within bound``: otherwise.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

# run as a script, its own directory is on sys.path
from bench_record import ROOT, run_once, spread

GAIN_SHARE = 0.9


def verdict(base, change, better, bound):
    """(verdict, wins) of a metric's values, ``base[i]`` and ``change[i]``
    from pair i; ``better`` is "higher" or "lower", ``bound`` the relative
    worsening ``BENCHMARK.json`` allows."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    # > 0 when the change's median is the better one
    ahead = sign * (c["median"] - b["median"])
    if wins >= GAIN_SHARE * len(base) and ahead > b["iqr"]:
        return "gain", wins
    wide = any(s["iqr"] > bound * abs(s["median"]) for s in (b, c))
    every_run_better = min(sign * v for v in change) > max(sign * v for v in base)
    if wide and not every_run_better:
        return "unresolved", wins
    if -ahead > bound * abs(b["median"]):
        return "worse", wins
    return "within bound", wins


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="checkout of the base")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if not (args.other / "perfbench" / "run.py").is_file():
        parser.error(f"{args.other} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": args.other.resolve(), "change": ROOT}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for pair in range(1, args.pairs + 1):
        order = ("base", "change") if pair % 2 else ("change", "base")
        for side in order:
            _, result = run_once(sides[side], args.workload, args.seed,
                                 benchmark["run_seconds"])
            for name, runs in values[side].items():
                runs.append(result["metrics"][name]["value"])
        print(f"pair {pair} ({order[0]} first): " + ", ".join(
            f"{m['name']} {values['base'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, base {sides['base']}")
    for m in metrics:
        base, change = values["base"][m["name"]], values["change"][m["name"]]
        name, wins = verdict(base, change, m["better"], m["bound"])
        b, c = spread(base), spread(change)
        print(f"{m['name']:>14} ({m['unit']}, {m['better']} is better): "
              f"base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}], "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], "
              f"change won {wins}/{args.pairs}: {name}")


if __name__ == "__main__":
    main()
