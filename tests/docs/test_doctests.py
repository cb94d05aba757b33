"""Documented examples cannot rot: doctests over README and docs/.

Every ``>>>`` example in README.md and ``docs/*.md`` is executed here
(and therefore in CI and the tier-1 suite).  A failing example means
the documentation no longer matches the code -- fix whichever one is
wrong.

Selected library modules whose docstrings carry examples are run
through ``doctest.testmod`` as well, so the API reference stays
truthful too.
"""

import doctest
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

MARKDOWN_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: Modules whose docstring examples are part of the public API docs.
DOCTEST_MODULES = [
    "repro.core.instance",
    "repro.core.job",
    "repro.core.kernel",
    "repro.core.checkpoint",
    "repro.algorithms.base",
    "repro.algorithms.round_robin",
    "repro.algorithms.greedy_balance",
    "repro.algorithms.heuristics",
    "repro.algorithms.flowdeadline",
    "repro.backends.base",
    "repro.backends.batched",
    "repro.objectives.base",
    "repro.objectives.makespan",
    "repro.objectives.flow",
    "repro.objectives.tardiness",
    "repro.generators.random_instances",
    "repro.service.engine",
]


@pytest.mark.parametrize("path", MARKDOWN_FILES, ids=lambda p: p.name)
def test_markdown_examples_execute(path):
    assert path.exists(), path
    result = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert result.attempted > 0, f"{path.name} has no >>> examples"
    assert result.failed == 0, f"{result.failed} failing example(s) in {path.name}"


def test_docs_tree_exists():
    docs = REPO_ROOT / "docs"
    assert (docs / "MODEL.md").exists()
    assert (docs / "ARCHITECTURE.md").exists()


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_docstring_examples(module_name):
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.failed == 0, f"{result.failed} failing example(s) in {module_name}"
