"""Every name a `weakdap` module imports is used in it (no linter ships with
the project). An import on a line marked `# noqa: F401` is exempt, and the
names listed in a module's `__all__` count as used.

The leaf modules import only what LEAVES allows of the package: `corpus`
nothing, and the weak labeler `corpus` alone."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weakdap"

LEAVES = {"corpus": set(), "weaklabel": {"corpus"}}  # module: the weakdap modules it may import


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
              "__all__ = ['loads']\nos.getcwd()\n")
    assert unused_imports(source) == ["line 3: dumps"]


def weakdap_imports(source: str) -> set[str]:
    """The `weakdap` modules that a module of the package imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[1] for alias in node.names
                           if alias.name.startswith("weakdap."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "weakdap"
                                                   or node.module.startswith("weakdap.")):
            if node.module in (None, "weakdap"):  # from . import metrics
                modules.update(alias.name for alias in node.names)
            else:
                modules.add(node.module.split(".")[-1])
    return modules


@pytest.mark.parametrize("module", sorted(LEAVES))
def test_leaf_imports_only_its_dependencies(module):
    imported = weakdap_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    extra = sorted(imported - LEAVES[module])
    assert not extra, ", ".join(f"{module} → {name}" for name in extra)


def test_check_finds_every_package_import():
    source = ("import json\nimport weakdap.loop\nfrom . import metrics\n"
              "from .augment import Candidate\nfrom weakdap.prompt import PromptSpec\n")
    assert weakdap_imports(source) == {"loop", "metrics", "augment", "prompt"}
