"""Every third-party module the package imports is a declared dependency.

A clean ``pip install`` of the package installs only what
``pyproject.toml`` declares, so an undeclared import breaks ``import repro``
on such an install, including the CI jobs that install the package that
way.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared_dependencies():
    """Names in ``[project] dependencies`` (no tomllib before Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def absolute_imports(path):
    """The top-level package of every absolute import in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_third_party_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | \
        declared_dependencies()
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in absolute_imports(path) if name not in allowed)
    assert not undeclared, undeclared
