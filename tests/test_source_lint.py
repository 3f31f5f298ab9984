"""Source checks over every module of the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "autorbit"

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
