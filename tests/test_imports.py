"""scipy stays out of the solvers' import path.

Only ``thermosdp.oracle`` and ``thermosdp verify`` need scipy, so importing
the package, the CLI, running every solver (and ``thermosdp solve``) and
the Hessian estimator (tent times, observable and anticommutator shots)
must not load its heavy subpackages.  The check runs in
a fresh interpreter, since the test session itself imports scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import thermosdp

from test_cli import BLOCH_DOC

SCRIPT = r"""
import contextlib, io, json, sys

import numpy as np

import thermosdp
import thermosdp.cli
from thermosdp import (
    EnergyProblem, PauliSum, SdpProblem, ThermalModel, gradient_ascent,
    hessian_estimate, natural_gradient_ascent, sample_tent, sga, solve_sdp,
)

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


out = {"import": loaded()}
problem = EnergyProblem(PauliSum(1, [("Z", 1.0)]), [PauliSum(1, [("X", 1.0)])], [0.6])
gradient_ascent(problem, 0.1, 2.0)
natural_gradient_ascent(problem, 0.1, 2.0, iterations=5)
sga(problem, 0.3, 0.1, 2.0, seed=1)
solve_sdp(SdpProblem(np.diag([2.0, 1.0]), ((np.eye(2), 1.0),), 2.0), 0.2, 4.0)
with contextlib.redirect_stdout(io.StringIO()):
    out["cli_exit"] = thermosdp.cli.main(["solve", sys.argv[1]])
out["tent"] = sample_tent(np.random.default_rng(0), size=4).tolist()
model = ThermalModel(problem, [0.3], 1.0)
out["hessian"] = hessian_estimate(model, 0, 0, 0.5, 0.2, np.random.default_rng(0))
out["solve"] = loaded()

from thermosdp import oracle
out["oracle"] = oracle.__name__
namespace = {}
exec("from thermosdp import *", namespace)
out["star_oracle"] = namespace["oracle"] is oracle
print(json.dumps(out))
"""


def test_solvers_and_cli_solve_do_not_load_scipy(tmp_path):
    path = tmp_path / "bloch.json"
    path.write_text(json.dumps(BLOCH_DOC))
    # the interpreter imports the same checkout as this session
    src = str(Path(thermosdp.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, str(path)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["import"] == []
    assert out["solve"] == []
    assert out["cli_exit"] == 0
    assert out["oracle"] == "thermosdp.oracle"
    assert out["star_oracle"] is True
    assert len(out["tent"]) == 4 and all(map(math.isfinite, out["tent"]))
    assert math.isfinite(out["hessian"])


# every public name, spelled out, so adding one is a deliberate edit here
PUBLIC_NAMES = [
    "Density", "EnergyProblem", "GdSchedule", "NewtonSchedule", "NumericError",
    "PauliSum", "ResourceError", "SdpProblem", "SgaSchedule",
    "SolveReport", "SpectralHermitian", "ThermalModel",
    "effective_hamiltonian", "entropy", "estimate_anticommutator", "estimate_obs",
    "expectation", "free_energy_primal", "gradient_ascent", "hessian_estimate",
    "hoeffding_count", "materialize", "natural_gradient_ascent", "one_norm", "oracle",
    "reduce_direct_sum", "reduce_qubit_embed", "replicate_sga",
    "sample_tent", "schedule_gd", "schedule_sga", "sdp", "sga", "smoothness",
    "solve_sdp", "tent_density",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(thermosdp.__all__) == PUBLIC_NAMES
