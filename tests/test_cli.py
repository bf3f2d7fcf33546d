import copy
import json
import warnings

import numpy as np
import pytest

from thermosdp.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ValidationError,
    main,
    parse_problem,
    report_to_json,
)

BLOCH_DOC = {
    "kind": "energy",
    "qubits": 1,
    "H": [{"pauli": "Z", "coeff": 1.0}],
    "charges": [[{"pauli": "X", "coeff": 1.0}]],
    "q": [0.6],
    "solver": {"mode": "exact", "epsilon": 0.05, "radius_r": 2, "seed": 7},
}

SDP_DOC = {
    "kind": "sdp",
    "dimension": 1,
    "C": [[[2.0, 0.0]]],
    "A": [[[[1.0, 0.0]]]],
    "b": [3.0],
    "R": 5.0,
    "solver": {"mode": "exact", "epsilon": 0.1, "radius_r": 1.0},
}

DENSE_DOC = {
    "kind": "energy",
    "dimension": 2,
    "H": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "charges": [],
    "q": [],
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseProblem:
    def test_minimal_energy_file(self, tmp_path):
        parsed = parse_problem(write_doc(tmp_path, BLOCH_DOC))
        assert parsed.kind == "energy"
        assert parsed.energy.d == 2 and parsed.energy.c == 1
        assert parsed.solver.mode == "exact"
        assert parsed.solver.seed == 7

    def test_unknown_pauli_character(self, tmp_path):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["H"] = [{"pauli": "Q", "coeff": 1.0}]
        with pytest.raises(ValidationError, match="'Q'"):
            parse_problem(write_doc(tmp_path, doc))

    def test_non_hermitian_dense_rejected(self, tmp_path):
        doc = {
            "kind": "energy",
            "dimension": 2,
            "H": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "charges": [],
            "q": [],
            "solver": {"mode": "exact"},
        }
        with pytest.raises(ValidationError, match="H: matrix asymmetry"):
            parse_problem(write_doc(tmp_path, doc))

    def test_hermitian_dense_accepted(self, tmp_path):
        doc = {
            "kind": "energy",
            "dimension": 2,
            "H": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]],
            "charges": [],
            "q": [],
        }
        parsed = parse_problem(write_doc(tmp_path, doc))
        assert parsed.energy.d == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_dense_rejected(self, tmp_path, capsys, bad):
        doc = {
            "kind": "energy",
            "dimension": 2,
            "H": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]],
            "charges": [],
            "q": [],
        }
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="H: .*non-finite"):
                parse_problem(path)
            assert main(["solve", path]) == EXIT_PARSE
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("epsilon", "abc"), ("radius_r", [2]), ("seed", "x"), ("replicates", [2]),
    ])
    def test_non_numeric_solver_field_rejected(self, tmp_path, key, value):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"][key] = value
        with pytest.raises(ValidationError, match=f"solver.{key}: must be a number"):
            parse_problem(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("field,doc", [
        ("qubits", {**BLOCH_DOC, "qubits": "one"}),
        ("dimension", {**DENSE_DOC, "dimension": "two"}),
        ("R", {**SDP_DOC, "R": "big"}),
        ("senses", {**BLOCH_DOC, "senses": 3}),
        ("b[0]", {**SDP_DOC, "b": ["x"]}),
        ("charges", {**BLOCH_DOC, "charges": 3}),
        ("A", {**SDP_DOC, "A": 3}),
        ("senses", {**BLOCH_DOC, "senses": ["eq", "eq"]}),
        ("senses", {**SDP_DOC, "senses": ["eq", "ge"]}),
    ], ids=["qubits", "dimension", "R", "senses", "b", "charges", "A",
            "energy-sense-count", "sdp-sense-count"])
    def test_malformed_top_level_field_rejected(self, tmp_path, capsys, field, doc):
        path = write_doc(tmp_path, doc)
        with pytest.raises(ValidationError) as info:
            parse_problem(path)
        assert info.value.field == field
        assert main(["solve", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            parse_problem(str(path))

    def test_dimension_mismatch(self, tmp_path):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["q"] = [0.6, 0.1]
        with pytest.raises(ValidationError):
            parse_problem(write_doc(tmp_path, doc))

    def test_sdp_file(self, tmp_path):
        parsed = parse_problem(write_doc(tmp_path, SDP_DOC))
        assert parsed.kind == "sdp"
        assert parsed.sdp.trace_bound == 5.0

    def test_schema_round_trip(self, tmp_path):
        path = write_doc(tmp_path, BLOCH_DOC)
        parsed = parse_problem(path)
        echoed = json.loads(json.dumps(parsed.raw))
        assert echoed == BLOCH_DOC
        # parsing the echo produces the same problem
        path2 = write_doc(tmp_path, echoed, name="echo.json")
        reparsed = parse_problem(path2)
        assert reparsed.raw == parsed.raw


class TestCmdSolve:
    def test_bloch_file_estimate(self, tmp_path, capsys):
        path = write_doc(tmp_path, BLOCH_DOC)
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert -0.85 <= report["estimate"] <= -0.75
        assert report["schedule"]["kind"] == "gradient"
        assert report["sample_count"] == 0
        assert report["input"] == BLOCH_DOC
        assert "constraint_residuals" in report["diagnostics"]

    def test_determinism_modulo_wall_time(self, tmp_path, capsys):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update({"mode": "sga", "epsilon": 0.5, "delta": 0.2, "seed": 3})
        path = write_doc(tmp_path, doc)
        outputs = []
        for _ in range(2):
            assert main(["solve", path]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_s")
            outputs.append(report_to_json(report))
        assert outputs[0] == outputs[1]

    def test_flag_overrides(self, tmp_path, capsys):
        path = write_doc(tmp_path, BLOCH_DOC)
        assert main(["solve", path, "--epsilon", "0.1", "--radius", "1.0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schedule"]["iterations"] == 555
        assert report["radius_used"] == 1.0

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["kind"] = "mystery"
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_PARSE
        capsys.readouterr()

    def test_usage_exit_code(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["solve"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_keeps_subcommand_table(self, capsys):
        assert main(["--help"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "solve   parse a JSON problem file, run the requested backend, emit a JSON" in lines
        assert "verify  run the oracle cross-check suite (bundled diagonal corpus or a" in lines

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"] = {"mode": "sga", "epsilon": 0.5, "delta": 0.2, "radius_r": 2}
        path = write_doc(tmp_path, doc)
        monkeypatch.setenv("THERMOSDP_SEED", "123")
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 123

    def test_output_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, BLOCH_DOC)
        out = tmp_path / "report.json"
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert "estimate" in report

    def test_sdp_solve(self, tmp_path, capsys):
        doc = {
            "kind": "sdp",
            "dimension": 2,
            "C": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "A": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
            "b": [1.0],
            "R": 2.0,
            "solver": {"mode": "exact", "epsilon": 0.2, "radius_r": 2.0},
        }
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["reduction"] == "direct_sum"
        assert abs(report["estimate"]) <= 0.2 + 1e-9

    def test_overrides_with_replicates_rejected(self, tmp_path, capsys):
        # replicate_sga derives its own schedule, so {"M": 3} would be dropped
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update(
            {"mode": "sga", "epsilon": 0.5, "delta": 0.2, "overrides": {"M": 3}}
        )
        path = write_doc(tmp_path, doc)
        assert main(["solve", path, "--replicates", "2"]) == EXIT_PARSE
        assert "solver.overrides" in capsys.readouterr().err

    def test_overrides_on_sdp_rejected(self, tmp_path, capsys):
        # solve_sdp derives its own schedule, so {"M": 3} would be dropped
        doc = {
            "kind": "sdp",
            "dimension": 2,
            "C": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "A": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
            "b": [1.0],
            "R": 2.0,
            "solver": {"mode": "exact", "epsilon": 0.2, "overrides": {"M": 3}},
        }
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_PARSE
        assert "solver.overrides" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,overrides", [
        ("exact", {"m": 3}),
        ("newton", {"iterations": 3}),
        ("exact", {"ridge": 0.1}),
        ("sga", {"ridge": 0.1}),
        ("exact", {"eta": 0.0}),
        ("newton", {"eta": -1.0}),
        ("exact", {"T": 0.0}),
        ("sga", {"T": float("nan")}),
        ("exact", {"M": "many"}),
        ("newton", {"M": [3]}),
    ])
    def test_bad_overrides_rejected(self, tmp_path, capsys, mode, overrides):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update({"mode": mode, "overrides": overrides})
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_PARSE
        assert "error: solver.overrides:" in capsys.readouterr().err

    def test_newton_overrides_applied(self, tmp_path, capsys):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update(
            {"mode": "newton", "overrides": {"ridge": 0.1, "M": 7, "eta": 0.5}}
        )
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_OK
        schedule = json.loads(capsys.readouterr().out)["schedule"]
        assert (schedule["ridge"], schedule["iterations"], schedule["step_size"]) == (
            0.1, 7, 0.5
        )

    @pytest.mark.parametrize("solver,flags", [
        ({"mode": "exact"}, ["--replicates", "2"]),
        ({"mode": "sga", "epsilon": 0.5, "delta": 0.2}, ["--mode", "newton", "--replicates", "3"]),
        ({"mode": "exact", "replicates": 2}, []),
        ({"mode": "sga", "epsilon": 0.5, "delta": 0.2}, ["--replicates", "0"]),
        ({"mode": "sga", "epsilon": 0.5, "delta": 0.2, "replicates": -1}, []),
    ])
    def test_bad_replicates_rejected(self, tmp_path, capsys, solver, flags):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update(solver)
        path = write_doc(tmp_path, doc)
        assert main(["solve", path, *flags]) == EXIT_PARSE
        assert "error: solver.replicates:" in capsys.readouterr().err

    def test_replicates_on_sdp_rejected(self, tmp_path, capsys):
        # solve_sdp runs one solve, so --replicates would be dropped
        doc = {
            "kind": "sdp",
            "qubits": 1,
            "C": [{"pauli": "Z", "coeff": 1.0}],
            "A": [[{"pauli": "I", "coeff": 1.0}]],
            "b": [1.0],
            "solver": {"mode": "sga", "epsilon": 0.5, "delta": 0.2},
        }
        path = write_doc(tmp_path, doc)
        assert main(["solve", path, "--replicates", "2"]) == EXIT_PARSE
        assert "error: solver.replicates:" in capsys.readouterr().err


class TestCmdVerify:
    def test_bundled_corpus_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_verify_user_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, BLOCH_DOC)
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out


class TestSenses:
    def test_ge_sense_parses_and_solves(self, tmp_path, capsys):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["q"] = [-0.5]
        doc["senses"] = ["ge"]
        path = write_doc(tmp_path, doc)
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        # slack inequality: dual variable pinned at zero, energy near -1
        assert report["mu_final"][0] >= 0.0
        assert abs(report["estimate"] - (-1.0)) <= 0.05

    def test_bad_sense_rejected(self, tmp_path):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["senses"] = ["maybe"]
        with pytest.raises(ValidationError, match="senses"):
            parse_problem(write_doc(tmp_path, doc))


class TestDoubleTrace:
    def test_trace_doubling_escalates_until_saturation(self, tmp_path, capsys):
        # the cheap direction wants more trace: alpha_R decreases until R
        # clears the unbounded-trace optimum, then the heuristic stops
        # alpha_R: 1.1 at R=2, 0.85 at R=4, 0.6 from R=6 on; with eps=0.2
        # each doubling drops the value by 0.25 > eps until saturation at 8
        doc = {
            "kind": "sdp",
            "qubits": 1,
            "C": [{"pauli": "I", "coeff": 0.55}, {"pauli": "Z", "coeff": 0.45}],
            "A": [[{"pauli": "I", "coeff": 0.6}, {"pauli": "Z", "coeff": 0.4}]],
            "b": [1.2],
            "R": 2.0,
            "solver": {"mode": "exact", "epsilon": 0.2, "radius_r": 1.3},
        }
        path = write_doc(tmp_path, doc)
        assert main(["solve", path, "--double-trace"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["trace_bound_used"] == 8.0
        assert abs(report["estimate"] - 0.6) <= 0.2
        assert "constraint_residuals" in report["diagnostics"]


class TestDoubleRadius:
    # H = Z, Q = X, q = 0.6: mu* = 0.75, so r = 0.1 doubles three times to 0.8
    @pytest.mark.parametrize("mode", ["exact", "newton"])
    def test_radius_doubles_until_mu_is_interior(self, tmp_path, capsys, mode):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"].update({"mode": mode, "epsilon": 0.05, "radius_r": 0.1})
        path = write_doc(tmp_path, doc)
        assert main(["solve", path, "--double-radius"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["radius_used"] == 0.8
        assert abs(report["estimate"] + 0.8) <= 0.05
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["radius_used"] == 0.1
        # the ball excludes mu*, so the run without the flag misses
        assert report["estimate"] < -0.85


class TestNumericFailure:
    def test_pathological_override_exits_3(self, tmp_path, capsys):
        doc = copy.deepcopy(BLOCH_DOC)
        doc["solver"]["overrides"] = {"eta": 1e308, "M": 3}
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err

    def test_newton_nonfinite_start_exits_3(self, tmp_path, capsys):
        # f(0) = -T ln Z overflows to -inf at this spread and temperature
        doc = {
            "kind": "energy",
            "dimension": 2,
            "H": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e300, 0.0]]],
            "charges": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
            "q": [0.0],
            "solver": {"mode": "newton", "overrides": {"T": 1e-10}},
        }
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["solve", path]) == 3
        assert "non-finite objective at iteration 0" in capsys.readouterr().err
