"""Cold start loads numpy and the library, never scipy or networkx.

scipy serves only the MILP oracle (the ``milp`` extra) and networkx
only ``SchedulingGraph.to_networkx`` (the ``graph`` extra); both are
imported on first use.  Each check runs in a fresh interpreter.  The
blocked ones set ``sys.modules["scipy"] = sys.modules["networkx"] =
None`` first, so an import of either fails as if it were not
installed: the entry points still run, and the two optional features
raise :class:`~repro.exceptions.MissingDependencyError`.  No check
reads a clock.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules the benchmark harness imports, then the CLI.
MODULES = (
    "repro",
    "repro.cli",
    "repro.backends.batch",
    "repro.generators",
    "repro.analysis.certify",
    "repro.sequencing.local_search",
    "repro.service",
)

BLOCK = 'import sys; sys.modules["scipy"] = sys.modules["networkx"] = None\n'


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


def test_import_loads_neither_scipy_nor_networkx():
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in MODULES)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_ENTRY_POINTS = BLOCK + """
from repro.analysis.certify import certify_opt
from repro.core.simulator import run_policy
from repro.generators import uniform_instance
from repro.service import PoissonStream, SchedulingService

inst = uniform_instance(2, 3, seed=1)
assert certify_opt(inst).proved
assert certify_opt(inst, policy="greedy-balance", backend="exact").proved
spans = {run_policy(inst, "greedy-balance", backend=b).makespan for b in ("exact", "vector")}
assert len(spans) == 1, spans
service = SchedulingService(backend="vector", max_queues=4)
report = service.run_stream(PoissonStream(rate=1.5, count=40, seed=0))
assert report.completed == 40, report
print("ok")
"""


def test_entry_points_run_without_scipy_or_networkx():
    proc = _python(_ENTRY_POINTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_help_runs_without_scipy_or_networkx():
    proc = _python(BLOCK + "import runpy; runpy.run_module('repro', run_name='__main__')", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


_OPTIONAL_FEATURES = BLOCK + """
from repro.algorithms.milp import milp_feasible, milp_makespan
from repro.algorithms.opt_order import exact_order_makespan
from repro.core.hypergraph import SchedulingGraph
from repro.core.simulator import simulate
from repro.exceptions import MissingDependencyError
from repro.experiments import get_experiment
from repro.experiments.runner import run_experiment
from repro.generators import uniform_instance

inst = uniform_instance(2, 2, seed=0)
calls = {
    "milp_makespan": lambda: milp_makespan(inst),
    "milp_feasible": lambda: milp_feasible(inst, 3),
    "exact_order_makespan": lambda: exact_order_makespan(inst, oracle="milp"),
    "to_networkx": lambda: SchedulingGraph(simulate(inst, "greedy-balance")).to_networkx(),
    "FIG4": lambda: run_experiment(get_experiment("FIG4")),
    "GEN": lambda: run_experiment(get_experiment("GEN")),
}
for name, call in calls.items():
    try:
        call()
    except MissingDependencyError as exc:
        extra = "graph" if name == "to_networkx" else "milp"
        assert f"crsharing-repro[{extra}]" in str(exc), (name, str(exc))
    else:
        raise AssertionError(f"{name} ran without its optional package")
print("ok")
"""


def test_optional_features_raise_missing_dependency():
    proc = _python(_OPTIONAL_FEATURES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_certify_milp_oracle_is_one_error_line():
    proc = _python(
        BLOCK + "from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        "certify", "--m", "2", "--n", "2", "--oracle", "milp",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("crsharing: error: ") and "crsharing-repro[milp]" in lines[0]
