"""Command-line front end: problem files in, reproducible reports out.

Subcommands
-----------
solve   parse a JSON problem file, run the requested backend, emit a JSON
        report with schedule constants, the estimate, the final chemical
        potentials, and feasibility diagnostics;
verify  run the oracle cross-check suite (bundled diagonal corpus or a
        user problem) and print a pass/fail table.

Timings live in the benchmark (``perfbench/run.py`` in the repository).

Exit codes: 0 ok, 1 usage, 2 parse/validation, 3 numeric failure,
4 verification failure.  THERMOSDP_SEED provides a seed fallback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .operators import PAULI_CHARS, Density, PauliSum, SpectralHermitian
from .optimize import (
    GdSchedule,
    NewtonSchedule,
    NumericError,
    SgaSchedule,
    gradient_ascent,
    natural_gradient_ascent,
    replicate_sga,
    schedule_gd,
    schedule_sga,
    sga,
)
from .oracle import (
    Infeasible,
    dual_scan,
    finite_diff_gradient,
    km_quadrature,
    lp_diagonal_energy,
)
from .sdp import SdpProblem, reduce_sdp, solve_sdp
from .thermal import (
    EnergyProblem,
    ThermalModel,
    dual_objective,
    exact_gradient,
    free_energy_primal,
    kubo_mori,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

SEED_ENV_VAR = "THERMOSDP_SEED"
DENSE_HERMITICITY_TOL = 1e-8


class ValidationError(ValueError):
    """Problem-file validation failure naming the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class SolverSettings:
    mode: str = "exact"
    epsilon: float = 0.1
    delta: float = 0.05
    radius: float = 1.0
    seed: Optional[int] = None
    replicates: int = 1
    overrides: Optional[dict] = None


@dataclass
class ProblemFile:
    kind: str
    energy: Optional[EnergyProblem]
    sdp: Optional[SdpProblem]
    solver: SolverSettings
    raw: dict


def _parse_pauli_observable(obj, n: int, field: str) -> PauliSum:
    terms = []
    for k, entry in enumerate(obj):
        if not isinstance(entry, dict) or "pauli" not in entry or "coeff" not in entry:
            raise ValidationError(f"{field}[{k}]", "expected {pauli, coeff} object")
        index = str(entry["pauli"]).upper()
        bad = set(index) - set(PAULI_CHARS)
        if bad:
            raise ValidationError(
                f"{field}[{k}].pauli", f"unknown Pauli character {sorted(bad)[0]!r}"
            )
        if len(index) != n:
            raise ValidationError(
                f"{field}[{k}].pauli",
                f"string length {len(index)} does not match qubits={n}",
            )
        terms.append((index, entry["coeff"]))
    try:
        return PauliSum(n, terms)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from exc


def _parse_dense_observable(obj, d: int, field: str) -> SpectralHermitian:
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (d, d, 2):
        raise ValidationError(
            field, f"expected a {d}x{d} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(field, "matrix has non-finite entries")
    mat = arr[..., 0] + 1j * arr[..., 1]
    scale = max(float(np.abs(mat).max()), 1e-300)
    asym = float(np.abs(mat - mat.conj().T).max())
    if asym > DENSE_HERMITICITY_TOL * scale:
        raise ValidationError(
            field, f"matrix asymmetry {asym:.3e} exceeds {DENSE_HERMITICITY_TOL:.0e}"
        )
    try:
        return SpectralHermitian(mat)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from exc


def _parse_observable(obj, doc: dict, field: str):
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        if "qubits" not in doc:
            raise ValidationError(field, "Pauli terms given but no 'qubits' field")
        return _parse_pauli_observable(obj, _number(doc["qubits"], "qubits", int), field)
    if "dimension" in doc:
        d = _number(doc["dimension"], "dimension", int)
    elif "qubits" in doc:
        d = 2 ** _number(doc["qubits"], "qubits", int)
    else:
        raise ValidationError(field, "cannot infer encoding; give 'qubits' or 'dimension'")
    return _parse_dense_observable(obj, d, field)


def _number(value, field: str, kind=float):
    """``kind(value)``, or a ValidationError naming ``field``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(field, "must be a number") from exc


def _parse_solver(doc: dict) -> SolverSettings:
    block = doc.get("solver", {})
    if not isinstance(block, dict):
        raise ValidationError("solver", "expected an object")
    settings = SolverSettings()
    if "mode" in block:
        mode = str(block["mode"])
        if mode not in ("exact", "sga", "newton"):
            raise ValidationError("solver.mode", f"unknown mode {mode!r}")
        settings.mode = mode
    for key, attr in (
        ("epsilon", "epsilon"),
        ("delta", "delta"),
        ("radius_r", "radius"),
    ):
        if key in block:
            value = _number(block[key], f"solver.{key}")
            if value <= 0:
                raise ValidationError(f"solver.{key}", "must be positive")
            setattr(settings, attr, value)
    if "seed" in block and block["seed"] is not None:
        settings.seed = _number(block["seed"], "solver.seed", int)
    if "replicates" in block:
        settings.replicates = _number(block["replicates"], "solver.replicates", int)
    if "overrides" in block:
        if not isinstance(block["overrides"], dict):
            raise ValidationError("solver.overrides", "expected an object")
        settings.overrides = dict(block["overrides"])
    return settings


def _list(doc: dict, field: str) -> list:
    """``doc[field]``, or a ValidationError naming ``field`` if not a list."""
    if not isinstance(doc[field], list):
        raise ValidationError(field, "expected a list")
    return doc[field]


def _check_sense_count(senses, count: int):
    if senses is not None and len(senses) != count:
        raise ValidationError("senses", f"{len(senses)} entries for {count} constraints")


def parse_problem(path: str) -> ProblemFile:
    """Load and validate a problem file; raises ValidationError on defects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("file", f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("file", "top level must be an object")
    kind = doc.get("kind")
    if kind not in ("energy", "sdp"):
        raise ValidationError("kind", f"must be 'energy' or 'sdp', got {kind!r}")
    solver = _parse_solver(doc)
    senses = None
    if "senses" in doc:
        senses = tuple(_list(doc, "senses"))
        if any(s not in ("eq", "ge") for s in senses):
            raise ValidationError("senses", "entries must be 'eq' or 'ge'")

    if kind == "energy":
        for req in ("H", "charges", "q"):
            if req not in doc:
                raise ValidationError(req, "missing required field")
        H = _parse_observable(doc["H"], doc, "H")
        charges = [
            _parse_observable(obs, doc, f"charges[{k}]")
            for k, obs in enumerate(_list(doc, "charges"))
        ]
        _check_sense_count(senses, len(charges))
        try:
            problem = EnergyProblem(H, charges, doc["q"], senses=senses)
        except ValueError as exc:
            raise ValidationError("q", str(exc)) from exc
        return ProblemFile(kind, problem, None, solver, doc)

    for req in ("C", "A", "b"):
        if req not in doc:
            raise ValidationError(req, "missing required field")
    C = _parse_observable(doc["C"], doc, "C")
    mats = [_parse_observable(obs, doc, f"A[{k}]") for k, obs in enumerate(_list(doc, "A"))]
    b = [_number(value, f"b[{k}]") for k, value in enumerate(_list(doc, "b"))]
    if len(mats) != len(b):
        raise ValidationError("b", f"{len(b)} targets for {len(mats)} constraint matrices")
    _check_sense_count(senses, len(b))
    R = _number(doc.get("R", 1.0), "R")
    try:
        sdp = SdpProblem(C, tuple(zip(mats, b)), R, senses=senses)
    except ValueError as exc:
        raise ValidationError("R", str(exc)) from exc
    return ProblemFile(kind, None, sdp, solver, doc)


_SCHEDULE_KINDS = {GdSchedule: "gradient", SgaSchedule: "sga", NewtonSchedule: "newton"}


def _schedule_dict(schedule) -> dict:
    return {**dataclasses.asdict(schedule), "kind": _SCHEDULE_KINDS[type(schedule)]}


def _override_fields(overrides: dict, mode: str) -> dict:
    """solver.overrides keyed by schedule field names, which are also
    natural_gradient_ascent's keyword arguments; every field named exists
    on the schedule of ``mode``."""
    mapping = {"T": "temperature", "M": "iterations", "eta": "step_size",
               "ridge": "ridge"}
    unknown = sorted(set(overrides) - set(mapping))
    if unknown:
        raise ValidationError(
            "solver.overrides", f"unknown key {unknown[0]!r}; expected T, M, eta or ridge"
        )
    fields = {
        attr: _number(overrides[key], "solver.overrides", int if key == "M" else float)
        for key, attr in mapping.items()
        if overrides.get(key) is not None
    }
    if "ridge" in fields and mode != "newton":
        raise ValidationError("solver.overrides", "ridge applies only to newton mode")
    for key in ("T", "eta"):
        if mapping[key] in fields and not fields[mapping[key]] > 0:
            raise ValidationError("solver.overrides", f"{key} must be positive")
    return fields


def _resolve_seed(settings: SolverSettings) -> Optional[int]:
    if settings.seed is not None:
        return settings.seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else None


def _solve_energy(problem: EnergyProblem, settings: SolverSettings, fields: dict):
    if settings.mode == "exact":
        sched = dataclasses.replace(
            schedule_gd(problem, settings.epsilon, settings.radius), **fields
        )
        return gradient_ascent(problem, settings.epsilon, settings.radius, schedule=sched)
    if settings.mode == "newton":
        return natural_gradient_ascent(
            problem, settings.epsilon, settings.radius, **fields
        )
    sched = dataclasses.replace(
        schedule_sga(problem, settings.epsilon, settings.delta, settings.radius), **fields
    )
    seed = _resolve_seed(settings)
    return sga(
        problem,
        settings.epsilon,
        settings.delta,
        settings.radius,
        seed=seed if seed is not None else 0,
        schedule=sched,
    )


def build_report(parsed: ProblemFile, settings: SolverSettings,
                 double_radius: bool = False, double_trace: bool = False) -> dict:
    """Run the requested solve and assemble a reproducible report dict."""
    start = time.perf_counter()
    if settings.replicates < 1:
        raise ValidationError("solver.replicates", "must be at least 1")
    if settings.replicates > 1 and (settings.mode != "sga" or parsed.kind != "energy"):
        raise ValidationError("solver.replicates", "apply only to sga energy solves")
    fields = _override_fields(settings.overrides or {}, settings.mode)
    # solve_sdp and replicate_sga derive their own schedules
    if fields and (parsed.kind == "sdp" or settings.replicates > 1):
        raise ValidationError(
            "solver.overrides", "apply only to energy solves without sga replicates"
        )
    seed = _resolve_seed(settings)
    radius = settings.radius
    sdp = parsed.sdp
    attempts = 0
    replicate_estimates = None
    while True:
        if parsed.kind == "energy":
            problem = parsed.energy
            if settings.replicates > 1:
                reports = replicate_sga(
                    problem, settings.epsilon, settings.delta, radius,
                    seed if seed is not None else 0, settings.replicates,
                )
                replicate_estimates = [r.estimate for r in reports]
                report = reports[0]
                report = dataclasses.replace(
                    report,
                    estimate=float(np.mean(replicate_estimates)),
                    sample_count=int(sum(r.sample_count for r in reports)),
                )
            else:
                local = dataclasses.replace(settings, radius=radius, seed=seed)
                report = _solve_energy(problem, local, fields)
        else:
            report = solve_sdp(
                sdp, settings.epsilon, radius, mode=settings.mode,
                delta=settings.delta, seed=seed,
            )
            # optional trace-guess escalation: accept a doubled R while it
            # still materially lowers the trace-bounded value
            doublings = 0
            while double_trace and doublings < 6:
                wider = dataclasses.replace(sdp, trace_bound=2.0 * sdp.trace_bound)
                wider_report = solve_sdp(
                    wider, settings.epsilon, radius, mode=settings.mode,
                    delta=settings.delta, seed=seed,
                )
                if wider_report.estimate < report.estimate - settings.epsilon:
                    sdp, report = wider, wider_report
                    doublings += 1
                else:
                    break
        mu = np.asarray(report.mu_final)
        if (
            double_radius
            and attempts < 6
            and mu.size
            and float(np.linalg.norm(mu)) >= 0.99 * radius
        ):
            radius *= 2.0
            attempts += 1
            continue
        break

    diagnostics = {}
    if parsed.kind == "energy":
        problem = parsed.energy
    else:
        problem = reduce_sdp(sdp, settings.mode)[0]
        diagnostics["trace_bound_used"] = sdp.trace_bound
    temperature = getattr(report.schedule, "temperature", None)
    if temperature and problem.c:
        model = ThermalModel(problem, np.asarray(report.mu_final), temperature)
        diagnostics["dual_objective_final"] = model.dual_objective()
        diagnostics["constraint_residuals"] = [float(x) for x in model.gradient()]
    elif temperature:
        diagnostics["dual_objective_final"] = dual_objective(problem, [], temperature)
        diagnostics["constraint_residuals"] = []

    wall = time.perf_counter() - start
    out = {
        "artifact_version": __version__,
        "input": parsed.raw,
        "mode": report.mode,
        "estimate": report.estimate,
        "mu_final": [float(x) for x in report.mu_final],
        "objective_trace": [float(x) for x in report.objective_trace],
        "schedule": _schedule_dict(report.schedule),
        "sample_count": report.sample_count,
        "seed": seed,
        "radius_used": radius,
        "diagnostics": diagnostics,
        "notes": list(report.notes),
        "wall_time_s": wall,
    }
    if report.reduction:
        out["reduction"] = report.reduction
    if replicate_estimates is not None:
        out["replicate_estimates"] = [float(x) for x in replicate_estimates]
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def cmd_solve(args) -> int:
    try:
        parsed = parse_problem(args.path)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    settings = parsed.solver
    for attr, value in (
        ("mode", args.mode),
        ("epsilon", args.epsilon),
        ("delta", args.delta),
        ("radius", args.radius),
        ("seed", args.seed),
        ("replicates", args.replicates),
    ):
        if value is not None:
            setattr(settings, attr, value)
    try:
        report = build_report(
            parsed, settings, double_radius=args.double_radius,
            double_trace=args.double_trace,
        )
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _diagonal_corpus(seed: int = 20240, count: int = 6):
    """Deterministic commuting instances whose energies the LP oracle certifies."""
    rng = np.random.default_rng(seed)
    corpus = []
    for k in range(count):
        d = int(rng.choice([2, 3, 4, 6]))
        # keep c < d so the dual optimum stays bounded and moderate
        c = 1 if d < 4 else int(rng.integers(1, 3))
        corpus.append((f"diag-{k}(d={d},c={c})", _diagonal_instance(rng, d, c)))
    return corpus


def _verify_problem(name: str, problem: EnergyProblem, epsilon: float = 0.1):
    """Oracle cross-checks for one instance; yields (check, ok, detail)."""
    rng = np.random.default_rng(7)
    mu = rng.normal(scale=0.5, size=problem.c)
    T = 0.5

    grad = exact_gradient(problem, mu, T)
    fd = finite_diff_gradient(problem, mu, T)
    err = float(np.abs(grad - fd).max()) if problem.c else 0.0
    yield f"{name}: gradient vs finite differences", err <= 1e-6, f"max err {err:.2e}"

    if problem.c:
        km = kubo_mori(problem, mu, T)
        kq = km_quadrature(problem, mu, T)
        err = float(np.abs(km - kq).max())
        yield f"{name}: Kubo-Mori closed form vs quadrature", err <= 1e-8, f"max err {err:.2e}"

    model = ThermalModel(problem, mu, T)
    lhs = model.dual_objective()
    rhs = float(
        mu @ problem.q
        + free_energy_primal(problem, Density(model.rho), T)
        - mu @ model.charge_expectations()
    )
    err = abs(lhs - rhs)
    yield f"{name}: duality identity", err <= 1e-9, f"err {err:.2e}"

    try:
        energy = lp_diagonal_energy(problem)
    except (ValueError, Infeasible):
        return
    if problem.c <= 2:
        radius = 1.0
        T_run = epsilon / (4.0 * math.log(problem.d))
        grid = np.linspace(-8.0, 8.0, 33)
        mu_star, f_star = dual_scan(
            problem, T_run, grid if problem.c == 1 else (grid, grid)
        )
        radius = max(1.0, 1.25 * float(np.linalg.norm(mu_star)))
        ok = energy + 1e-9 >= f_star >= energy - T_run * math.log(problem.d) - 1e-9
        yield f"{name}: sandwich E >= F_T >= E - T ln d", ok, (
            f"E={energy:.6f} F_T={f_star:.6f} T ln d={T_run * math.log(problem.d):.6f}"
        )
        report = gradient_ascent(problem, epsilon, radius)
        gap = abs(report.estimate - energy)
        yield f"{name}: solver vs LP oracle", gap <= epsilon + 1e-9, f"gap {gap:.4f}"


def cmd_verify(args) -> int:
    checks = []
    if args.path:
        try:
            parsed = parse_problem(args.path)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if parsed.kind != "energy":
            print("error: verify expects an energy problem file", file=sys.stderr)
            return EXIT_PARSE
        instances = [(os.path.basename(args.path), parsed.energy)]
    else:
        instances = _diagonal_corpus()
    for name, problem in instances:
        checks.extend(_verify_problem(name, problem))
    width = max(len(c[0]) for c in checks)
    failures = 0
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {label:<{width}}  {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _diagonal_instance(rng, d: int, c: int) -> EnergyProblem:
    """Random diagonal H and c diagonal charges scaled to unit max norm, with
    targets q taken at a full-rank state so the constraints are feasible."""
    h = np.sort(rng.uniform(-1.0, 1.0, size=d))
    charges = []
    for _ in range(c):
        diag = rng.uniform(-1.0, 1.0, size=d)
        charges.append(diag / max(np.abs(diag).max(), 1e-9))
    p = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    q = [float(diag @ p) for diag in charges]
    return EnergyProblem(
        SpectralHermitian(np.diag(h)),
        [SpectralHermitian(np.diag(g)) for g in charges],
        q,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    # the raw formatter keeps the docstring's subcommand table as written
    parser = _Parser(
        prog="thermosdp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("path")
    solve.add_argument("--mode", choices=("exact", "sga", "newton"))
    solve.add_argument("--epsilon", type=float)
    solve.add_argument("--delta", type=float)
    solve.add_argument("--radius", type=float, dest="radius")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--replicates", type=int)
    solve.add_argument("--double-radius", action="store_true")
    solve.add_argument("--double-trace", action="store_true")
    solve.add_argument("--out")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="run oracle cross-checks")
    verify.add_argument("path", nargs="?")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
