"""The package keeps only what its readers use, and one module owns the graph format.

Each name that ``freegroups/__init__.py`` imports must be read by another
module of the package, or imported or read by a file in ``demos/`` or
``bench/``: a member that only tests call belongs with the tests.  So
must each defaulted parameter of an exported function be passed by some
call there, unless it is listed below with its reason: an option that
only tests set belongs with the tests too.  No package module but
``stallings.py`` reads the graph layer's letter maps or its private
helpers; the others reach a graph through its public methods.  The
checks parse those source files and import nothing, so a name that
appears only in a docstring or a comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freegroups"
GRAPH_PRIVATE = {"_adj", "_trim", "_canonical", "_bfs", "_find"}
# Defaulted parameters of exported functions that no call outside the tests passes, with the reason each stays.
TEST_ONLY_DEFAULTS = {
    "v_override": "the tests' negative control for the pipeline's v, and ROADMAP item 10's only route to c in P",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def reader_files():
    """Every source file that counts as a reader: the package's own modules, demos and bench."""
    yield from (path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    for folder in ("demos", "bench"):
        yield from (ROOT / folder).rglob("*.py")


def names_read(path: Path, imports: bool) -> set[str]:
    """The names a file loads, as names or attributes, and with ``imports`` the names it imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif imports and isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_export_has_a_reader():
    readers = set()
    for path in reader_files():
        readers |= names_read(path, imports=path.parent != PACKAGE)
    unread = [name for name in exported_names() if name not in readers]
    assert not unread, f"exported, but only tests read them: {unread}"


def test_only_stallings_reads_the_graph_internals():
    readers = {
        path.name: sorted(names_read(path, imports=True) & GRAPH_PRIVATE)
        for path in PACKAGE.glob("*.py")
        if path.name != "stallings.py"
    }
    assert not {name: found for name, found in readers.items() if found}


def defaulted_parameters() -> dict[str, list[tuple[int | None, str]]]:
    """Exported function -> (positional index or None for keyword-only, name) of each parameter with a default."""
    exported, found = set(exported_names()), {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                found[node.name] = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first] + [
                    (None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default
                ]
    return found


def passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call passes that parameter, by position, by keyword, or through * or **."""
    by_position = index is not None and (
        len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)
    )
    return by_position or any(kw.arg in (name, None) for kw in call.keywords)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = [
        node
        for path in reader_files()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
    ]

    def callee(call: ast.Call) -> str | None:
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    unpassed = [
        f"{function}({name})"
        for function, params in defaulted_parameters().items()
        for index, name in params
        if name not in TEST_ONLY_DEFAULTS
        and not any(callee(call) == function and passes(call, index, name) for call in calls)
    ]
    assert not unpassed, f"defaulted, but only tests pass them: {unpassed}"
