import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    """A script of ``scripts/`` as a module; bench_pairs imports bench_record
    by name, as it does when run from that directory."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


load("bench_record")
bench_pairs = load("bench_pairs")

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


@pytest.mark.parametrize("change,better,expected", [
    # 10 of 10 pairs won, medians 12 apart against a base IQR of 2
    ([v + 12.0 for v in BASE], "higher", ("gain", 10)),
    # lower is better: the same runs lose every pair, by 12%, past a 10% bound
    ([v + 12.0 for v in BASE], "lower", ("worse", 0)),
    # 8 of 10 won is short of nine tenths: no gain, though the median is
    # 11.5% better
    ([v + 12.0 if k < 8 else v - 1.0 for k, v in enumerate(BASE)], "higher",
     ("within bound", 8)),
    # 9 of 10 won, but the median moves by less than the base's IQR of 2
    ([v + 1.0 if k else v - 0.5 for k, v in enumerate(BASE)], "higher", ("within bound", 9)),
    # 5% worse in the median, inside a 10% bound
    ([v - 5.0 for v in BASE], "higher", ("within bound", 0)),
    # the change's runs spread over 40% of their median: no verdict on them
    ([60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 100.0, 100.0], "higher",
     ("unresolved", 4)),
])
def test_verdict(change, better, expected):
    assert bench_pairs.verdict(BASE, change, better, 0.1) == expected


def test_wide_runs_that_all_beat_the_base_are_not_unresolved():
    # both sides spread far wider than the bound.  Every change run beats
    # every base run, so that spread leaves a verdict: a gain where the
    # median lead of 15.5 exceeds the base's IQR of 10, else within bound,
    # here where it is short of the IQR of 19
    base = [10.0, 20.0, 10.0, 20.0]
    change = [21.0, 40.0, 21.0, 40.0]
    assert bench_pairs.verdict(base, change, "higher", 0.1) == ("gain", 4)
    assert bench_pairs.verdict(change, base, "lower", 0.1) == ("within bound", 4)
    # runs that win every pair but overlap the base's are unresolved
    assert bench_pairs.verdict(base, [v + 0.5 for v in base], "higher", 0.1) == (
        "unresolved", 4
    )


def test_ties_count_for_neither_side():
    assert bench_pairs.verdict(BASE, list(BASE), "higher", 0.1) == ("within bound", 0)
    assert bench_pairs.verdict(BASE, list(BASE), "lower", 0.1) == ("within bound", 0)
