"""Layout rules of the repository: the program never depends on its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_program_file_imports_the_test_suite():
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    offenders = [
        f"{path.relative_to(ROOT)}: {module}"
        for tree in ("src", "scripts")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[0] in test_modules
    ]
    assert offenders == []


@pytest.mark.parametrize("module", ["prompts", "records", "tokens"])
def test_a_leaf_module_imports_nothing_from_the_package_at_run_time(module):
    """`clauses` imports `prompts` and `records`, `gateway` imports `records`
    and `tokens`, and `corpus` imports `clauses`, so an import of `corpus`
    from any of these would be a cycle."""
    imported = [
        node.module
        for node in ast.parse(
            (ROOT / f"src/policytrace/{module}.py").read_text(encoding="utf-8")
        ).body
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert imported == []


def _handlers(node: ast.AST, scope: str):
    """(enclosing def's dotted name, handler) of every `except` clause under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _handlers(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.ExceptHandler):
            yield scope, child
        yield from _handlers(child, scope)


def test_only_the_gateway_and_the_cli_catch_gateway_errors():
    """`gateway` catches provider errors (the rate-limit retries, `ask_twice`) and
    `cli.main` prints them; a caller that caught one itself could drop it unrecorded.
    Handlers are matched by the names of `GatewayError` and its subclasses."""
    from policytrace import gateway

    names = {name for name, value in vars(gateway).items()
             if isinstance(value, type) and issubclass(value, gateway.GatewayError)}
    sites = {
        f"{path.stem}{scope}"
        for path in sorted((ROOT / "src/policytrace").rglob("*.py"))
        for scope, handler in _handlers(ast.parse(path.read_text(encoding="utf-8")), "")
        if handler.type is not None and names & {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(handler.type)
        }
    }
    assert {"cli.main", "gateway.ask_twice"} <= sites
    assert [s for s in sorted(sites) if s != "cli.main" and not s.startswith("gateway.")] == []
