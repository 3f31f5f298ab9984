"""Source checks over every module of the package."""

import ast
import importlib
import operator
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "autorbit"
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calling_closures(name: str, source: str) -> list[str]:
    """'name:line outer.inner' for each function nested in another function
    that calls itself by name.  Its closure cell then holds the function
    itself, a reference cycle that keeps everything its calls built alive
    until the collector runs; a module-level recursion passed its state
    leaves none."""
    found = []
    stack = [(ast.parse(source), (), False)]
    while stack:
        node, scope, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                stack.append((child, scope, in_function))
                continue
            qualname = scope + (child.name,)
            is_function = isinstance(child, FUNCTIONS)
            if in_function and is_function and any(
                isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == child.name
                for c in ast.walk(child)
            ):
                found.append((child.lineno, ".".join(qualname)))
            stack.append((child, qualname, in_function or is_function))
    return [f"{name}:{line} {qualname}" for line, qualname in sorted(found)]


def test_lint_finds_a_self_calling_closure():
    source = (
        "def outer(n):\n"
        "    def inner(k):\n"
        "        return 0 if k == 0 else inner(k - 1)\n"
        "    return inner(n)\n"
        "\n"
        "def plain(k):\n"
        "    return 0 if k == 0 else plain(k - 1)\n"
        "\n"
        "class Walker:\n"
        "    def walk(self, k):\n"
        "        return 0 if k == 0 else self.walk(k - 1)\n"
    )
    assert self_calling_closures("sample.py", source) == ["sample.py:2 outer.inner"]


def test_no_nested_function_calls_itself():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += self_calling_closures(str(path.relative_to(PACKAGE)), path.read_text())
    assert found == []


def unused_imports(
    name: str, source: str, traced: frozenset[str] | set[str] = frozenset()
) -> list[str]:
    """'name:line binding' for each name the module imports that it neither
    uses, nor lists in __all__, nor has traced by the benchmark (traced names
    are rebound from outside, so they must stay importable even when unused)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(traced)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            kept |= set(ast.literal_eval(node.value))
    return [
        f"{name}:{line} {bound}"
        for bound, line in sorted(imported.items(), key=lambda item: (item[1], item[0]))
        if bound not in kept
    ]


def test_lint_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .core import exported, traced\n"
        "__all__ = ['exported']\n"
        "\n"
        "def f(a: int) -> str:\n"
        "    import sys\n"
        "    return json.dumps(gcd(a, 6))\n"
    )
    assert unused_imports("sample.py", source, {"traced"}) == [
        "sample.py:3 os",
        "sample.py:4 least",
        "sample.py:9 sys",
    ]


def test_every_import_is_used_exported_or_traced():
    traced: dict[str, set[str]] = {}
    for _, where, attr, _ in runpy.run_path(str(SPANS))["BINDINGS"]:
        module, _, cls = where.partition(":")
        if not cls:
            traced.setdefault(module, set()).add(attr)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        module = ".".join(("autorbit", *relative.with_suffix("").parts)).removesuffix(".__init__")
        found += unused_imports(str(relative), path.read_text(), traced.get(module, set()))
    assert found == []


def scoped_matches(name: str, tree: ast.AST, match) -> list[str]:
    """'name:line scope' for each node of the tree that match accepts, where
    scope is the enclosing function's qualified name (<module> at top level)."""
    found = []
    stack = [(tree, "<module>")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child.lineno, scope))
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                stack.append((child, f"{scope}.{child.name}".removeprefix("<module>.")))
            else:
                stack.append((child, scope))
    return [f"{name}:{line} {scope}" for line, scope in sorted(found)]


def exception_raises(name: str, source: str, exception: str) -> list[str]:
    """'name:line scope' for each statement that raises the named exception,
    by name or as an attribute.  A policy that lives in one check, such as
    capacity or the per-prime valuation contract, should have exactly one."""

    def raises(node: ast.AST) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == exception

    return scoped_matches(name, ast.parse(source), raises)


def test_lint_finds_every_capacity_raise():
    source = (
        "from . import errors\n"
        "from .errors import CapacityExceeded\n"
        "\n"
        "def check_cap(cap):\n"
        "    raise CapacityExceeded('over cap')\n"
        "\n"
        "def inline(n, cap):\n"
        "    if n > cap:\n"
        "        raise errors.CapacityExceeded(f'{n} over cap {cap}')\n"
        "\n"
        "class Walker:\n"
        "    def walk(self):\n"
        "        raise CapacityExceeded\n"
        "\n"
        "def other(cap):\n"
        "    raise ValueError(cap)\n"
        "\n"
        "raise CapacityExceeded()\n"
    )
    assert exception_raises("sample.py", source, "CapacityExceeded") == [
        "sample.py:5 check_cap",
        "sample.py:9 inline",
        "sample.py:13 Walker.walk",
        "sample.py:18 <module>",
    ]


def in_package(find, *args: str) -> list[tuple[str, str]]:
    """(file, scope) for each match of find(name, source, *args) over the
    package's modules."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += find(str(path.relative_to(PACKAGE)), path.read_text(), *args)
    return [(f.partition(":")[0], f.partition(" ")[2]) for f in found]


def test_only_check_cap_raises_capacity_exceeded():
    assert in_package(exception_raises, "CapacityExceeded") == [("errors.py", "check_cap")]


def test_lint_finds_every_invalid_valuation_raise():
    source = (
        "from . import errors\n"
        "from .errors import InvalidValuation\n"
        "\n"
        "def check_valuations(fs, es):\n"
        "    raise InvalidValuation('valuation outside [0, e]')\n"
        "\n"
        "class ReducedForm:\n"
        "    def realize(self, G):\n"
        "        for b in self.bs:\n"
        "            if b < 0:\n"
        "                raise errors.InvalidValuation(f'valuation {b}')\n"
        "\n"
        "def capped(cap):\n"
        "    raise errors.CapacityExceeded(cap)\n"
    )
    assert exception_raises("sample.py", source, "InvalidValuation") == [
        "sample.py:5 check_valuations",
        "sample.py:11 ReducedForm.realize",
    ]


def test_only_check_valuations_raises_invalid_valuation():
    assert in_package(exception_raises, "InvalidValuation") == [("errors.py", "check_valuations")]


TOGGLES = {"disable", "enable"}


def collector_toggles(name: str, source: str) -> list[str]:
    """'name:line scope' for each call of gc.disable or gc.enable, through
    `import gc` or `from gc import ...` under any alias.  The cyclic
    collector is process-global, so pausing it belongs in one audited place."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions |= {a.asname or a.name for a in node.names if a.name in TOGGLES}

    def toggles(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Attribute):
            return f.attr in TOGGLES and isinstance(f.value, ast.Name) and f.value.id in modules
        return isinstance(f, ast.Name) and f.id in functions

    return scoped_matches(name, tree, toggles)


def test_lint_finds_every_collector_toggle():
    source = (
        "import gc\n"
        "import gc as collector\n"
        "from gc import disable as pause, isenabled\n"
        "\n"
        "def paused():\n"
        "    if isenabled():\n"
        "        gc.disable()\n"
        "    gc.collect()\n"
        "    gc.enable()\n"
        "\n"
        "class Builder:\n"
        "    def build(self):\n"
        "        pause()\n"
        "        collector.enable()\n"
        "        self.gc.disable()\n"
        "\n"
        "gc.disable()\n"
    )
    assert collector_toggles("sample.py", source) == [
        "sample.py:7 paused",
        "sample.py:9 paused",
        "sample.py:13 Builder.build",
        "sample.py:14 Builder.build",
        "sample.py:17 <module>",
    ]


def test_only_the_orbit_builders_pause_the_collector():
    assert in_package(collector_toggles) == [("orbits.py", "_collector_paused")] * 2


def dotted_names(text: str) -> list[str]:
    """Each dotted name the text gives under a module of the package, such as
    `orbits._count_from` or `autorbit.oracle.EndomorphismTable.apply` (the
    package prefix is optional and dropped), sorted; a file name such as
    `bench.py` is not one."""
    modules = "|".join(sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_")))
    found = re.findall(rf"\b({modules})((?:\.\w+)+)", text)
    return sorted({module + attrs for module, attrs in found if attrs != ".py"})


def unresolved(names: list[str]) -> list[str]:
    """The names whose module lacks the attribute path after the first dot."""
    missing = []
    for name in names:
        module, _, attrs = name.partition(".")
        try:
            operator.attrgetter(attrs)(importlib.import_module(f"autorbit.{module}"))
        except AttributeError:
            missing.append(name)
    return missing


def test_readme_check_finds_a_missing_name():
    text = (
        "Use `orbits._count_from`, `autorbit.errors.check_cap` and\n"
        "`oracle.EndomorphismTable.apply`; `orbits._gone_helper` was removed,\n"
        "`oracle.EndomorphismTable.gone` too. See bench.py and perfbench.inputs.\n"
    )
    names = dotted_names(text)
    assert names == [
        "errors.check_cap",
        "oracle.EndomorphismTable.apply",
        "oracle.EndomorphismTable.gone",
        "orbits._count_from",
        "orbits._gone_helper",
    ]
    assert unresolved(names) == ["oracle.EndomorphismTable.gone", "orbits._gone_helper"]


def test_every_name_readme_gives_under_a_module_exists():
    names = dotted_names(README.read_text())
    assert names and unresolved(names) == []
