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


def test_nothing_imports_requests():
    """The package has no runtime dependency: `gateway._post` speaks HTTP through the
    standard library."""
    offenders = [
        f"{path.relative_to(ROOT)}: {module}"
        for tree in ("src", "tests", "scripts")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[0] == "requests"
    ]
    assert offenders == []


@pytest.mark.parametrize("module", ["prompts", "records"])
def test_a_leaf_module_imports_nothing_from_the_package_at_run_time(module):
    """`clauses` imports `prompts` and `records`, `gateway` imports `records`,
    and `corpus` imports `clauses`, so an import of `corpus` from either of
    these would be a cycle."""
    imported = [
        node.module
        for node in ast.parse(
            (ROOT / f"src/policytrace/{module}.py").read_text(encoding="utf-8")
        ).body
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert imported == []


def _scoped(node: ast.AST, kind: type, scope: str = ""):
    """(enclosing def's dotted name, node) of every `kind` node under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, kind, f"{scope}.{child.name}")
            continue
        if isinstance(child, kind):
            yield scope, child
        yield from _scoped(child, kind, scope)


def _program_nodes(kind: type):
    """(module.scope, node) of every `kind` node in `src/policytrace`."""
    for path in sorted((ROOT / "src/policytrace").rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")), kind):
            yield f"{path.stem}{scope}", node


def test_only_the_gateway_and_the_cli_catch_gateway_errors():
    """`gateway` catches provider errors (the rate-limit retries, `ask_twice`) and
    `cli.main` prints them; a caller that caught one itself could drop it unrecorded.
    Handlers are matched by the names of `GatewayError` and its subclasses."""
    from policytrace import gateway

    names = {name for name, value in vars(gateway).items()
             if isinstance(value, type) and issubclass(value, gateway.GatewayError)}
    sites = {
        site
        for site, handler in _program_nodes(ast.ExceptHandler)
        if handler.type is not None and names & {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(handler.type)
        }
    }
    assert {"cli.main", "gateway.ask_twice"} <= sites
    assert [s for s in sorted(sites) if s != "cli.main" and not s.startswith("gateway.")] == []


def _writes(call: ast.Call) -> bool:
    """Whether `call` is a `.write_text`/`.write_bytes`/`truncate`, or an `open`/`.open`
    whose mode is not a constant or holds `w`, `a`, `x` or `+`."""
    func = call.func
    if getattr(func, "attr", None) in ("write_text", "write_bytes", "truncate"):
        return True
    if getattr(func, "id", None) != "open" and getattr(func, "attr", None) != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:][:1]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
               for mode in modes)


def test_only_write_atomic_and_the_results_appender_write_files():
    """`records.write_atomic` writes every whole file through a temp file and a
    rename, and `records.JsonlSink` cuts a torn last line off a JSON Lines file and
    appends to it one record at a time (`assess.run_dataset`'s results); a writer
    elsewhere could leave a torn file behind a failed write."""
    sites = {site for site, call in _program_nodes(ast.Call) if _writes(call)}
    assert sites == {"records.write_atomic", "records.JsonlSink.__enter__"}
