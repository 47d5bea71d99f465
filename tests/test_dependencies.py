"""Every third-party package the library imports is a declared dependency,
and CI installs the declared set.

Walks ``src/repro`` with :mod:`ast`, collects the top-level package of
every absolute import that is neither ``repro`` nor in the standard
library, and checks it against ``[project] dependencies`` in
``pyproject.toml``.  The file is read without :mod:`tomllib`, which
Python 3.10 lacks.  Every ``pip install`` in the CI workflow must
install the project with its test extra, not a hand-picked list that
can drift from what the tests import.
"""

from __future__ import annotations

import ast
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project] dependencies``, normalised."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*(\[.*?\])", project.group(1), re.M | re.S)
    assert deps is not None, "[project] declares no dependencies list"
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in ast.literal_eval(deps.group(1))
    }


def imported_packages() -> dict[str, str]:
    """Third-party top-level package -> first file that imports it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {
        pkg: where
        for pkg, where in imported_packages().items()
        if pkg.lower() not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


def test_every_ci_install_installs_the_project():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = re.findall(r"pip install (.*)$", workflow, re.M)
    assert installs, "ci.yml runs no pip install"
    adhoc = [args for args in installs if shlex.split(args) != [".[test]"]]
    assert not adhoc, f'CI installs other than ".[test]": {adhoc}'
