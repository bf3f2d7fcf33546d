import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from thermosdp import GdSchedule

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_reports.py"
spec = importlib.util.spec_from_file_location("same_reports", SCRIPT)
same_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_reports)


def test_canonical_is_bitwise():
    # equal canonical forms mean equal bits: the sign of zero counts, the
    # float type does not
    canonical = same_reports.canonical
    assert canonical(0.0) != canonical(-0.0)
    assert canonical(np.float64(0.1)) == canonical(0.1)
    assert canonical(0.1) != canonical(0.1 + 2 ** -56)
    assert canonical((np.int64(3), None, "note", True)) == [3, None, "note", True]
    sched = GdSchedule(0.1, 4, 0.5, 2.0, 1.0, 0.2)
    moved = dataclasses.replace(sched, step_size=np.nextafter(0.5, 1.0))
    assert canonical(sched)["type"] == "GdSchedule"
    assert canonical(sched) != canonical(moved)


def test_first_difference_names_the_solve_and_field():
    ours = [["exact-diag", 3, 0, {"estimate": "0x1p-1", "notes": []}],
            ["exact-diag", 3, 1, {"estimate": "0x1p-1", "notes": []}]]
    theirs = [["exact-diag", 3, 0, {"estimate": "0x1p-1", "notes": []}],
              ["exact-diag", 3, 1, {"estimate": "0x1p-1", "notes": ["x"]}]]
    assert same_reports.first_difference(ours, ours) is None
    assert same_reports.first_difference(ours, theirs) == ("exact-diag", 3, 1, "notes")


def test_strip_wall_time_removes_only_that_line():
    from thermosdp.cli import report_to_json

    report = {"estimate": -0.8, "seed": 7, "wall_time_s": 0.0123}
    text = report_to_json(report) + "\n"
    slower = report_to_json({**report, "wall_time_s": 12.5}) + "\n"
    moved = report_to_json({**report, "estimate": -0.7}) + "\n"
    strip = same_reports.strip_wall_time
    assert "wall_time_s" not in strip(text)
    assert strip(text) == text.replace('  "wall_time_s": 0.0123\n', "")
    assert strip(text) == strip(slower)
    assert strip(text) != strip(moved)
    # output with no report, such as ``thermosdp verify``'s, is kept whole
    assert strip("PASS  a  gap 0.0000\n1/1 checks passed\n") == (
        "PASS  a  gap 0.0000\n1/1 checks passed\n"
    )


def test_first_cli_difference_names_the_route_and_stream():
    ours = [("solve bloch.json --mode exact", "{}\n", "", 0), ("verify", "ok\n", "", 0)]
    theirs = [("solve bloch.json --mode exact", "{}\n", "", 0), ("verify", "ok\n", "", 4)]
    assert same_reports.first_cli_difference(ours, ours) is None
    assert same_reports.first_cli_difference(ours, theirs) == ("verify", "exit code")


def test_route_argv_names_the_subcommand_and_file():
    route_argv = same_reports.route_argv
    assert route_argv("solve", "bloch", ["--mode", "sga"]) == [
        "solve", "bloch.json", "--mode", "sga"
    ]
    assert route_argv("verify", "slack-ge", []) == ["verify", "slack-ge.json"]
    assert route_argv("verify", None, []) == ["verify"]
    # every route's file is one the script writes
    for command, problem, _ in same_reports.CLI_ROUTES:
        assert command in ("solve", "verify")
        assert problem is None or problem in same_reports.PROBLEMS


def test_workload_differences_count_every_report_of_every_workload():
    def row(name, seed, k, estimate, notes=()):
        return [name, seed, k, {"estimate": float(estimate).hex(), "notes": list(notes)}]

    ours = [row("exact-diag", 3, 0, -0.5), row("exact-diag", 3, 1, -0.5),
            row("newton-dense", 3, 0, 0.25), row("newton-dense", 3, 1, 0.75),
            row("newton-dense", 3, 2, 1.0), row("sga-qubit", 5, 0, -0.8)]
    theirs = [row("exact-diag", 3, 0, -0.5), row("exact-diag", 3, 1, -0.5),
              row("newton-dense", 3, 0, 0.25, ["x"]), row("newton-dense", 3, 1, 0.5),
              row("newton-dense", 3, 2, 1.0 + 2 ** -40), row("sga-qubit", 5, 0, -0.8)]
    # a difference in one workload hides none in a later one
    assert same_reports.workload_differences(ours, theirs) == [
        ("exact-diag", 3, 2, 0, None, 0.0),
        ("newton-dense", 3, 3, 3, ("newton-dense", 3, 0, "notes"), 0.25),
        ("sga-qubit", 5, 1, 0, None, 0.0),
    ]
    assert all(count == 0 for *_, count, _, _ in
               same_reports.workload_differences(ours, ours))


def test_cli_differences_list_every_differing_route():
    ours = [("solve a.json", "{}\n", "", 0), ("solve b.json", "{}\n", "", 0),
            ("verify", "ok\n", "", 0)]
    theirs = [("solve a.json", "{}\n", "warn\n", 1), ("solve b.json", "{}\n", "", 0),
              ("verify", "ok\n", "", 4)]
    assert same_reports.cli_differences(ours, ours) == []
    assert same_reports.cli_differences(ours, theirs) == [
        ("solve a.json", "stderr"), ("verify", "exit code")
    ]


def test_main_reports_everything_and_exits_1(monkeypatch, capsys, tmp_path):
    # a differing report does not stop the route checks; identical sides exit 0
    def row(k, estimate):
        return ["newton-dense", 3, k, {"estimate": float(estimate).hex()}]

    sides = {same_reports.ROOT: [row(0, 1.0), row(1, 2.0)], tmp_path: [row(0, 1.0), row(1, 2.5)]}
    routes = {same_reports.ROOT: [("verify", "ok\n", "", 0)], tmp_path: [("verify", "ok\n", "", 4)]}
    monkeypatch.setattr(same_reports, "reports", lambda checkout: sides[checkout])
    monkeypatch.setattr(same_reports, "cli_outputs",
                        lambda checkout, workdir: routes[checkout.resolve()])
    assert same_reports.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "newton-dense seed 3: 1 of 2 reports differ; first solve 1, field 'estimate'; "
        "max |d estimate| 0.5",
        "thermosdp verify: exit code differs",
        "0 of 1 CLI routes identical",
    ]
    sides[tmp_path], routes[tmp_path] = sides[same_reports.ROOT], routes[same_reports.ROOT]
    assert same_reports.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "newton-dense seed 3: 0 of 2 reports differ",
        "2 reports identical",
        "1 of 1 CLI routes identical",
    ]
