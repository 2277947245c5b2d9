"""Every name the package exports has a reader outside the tests.

Each name that ``freegroups/__init__.py`` imports must be read by another
module of the package, or imported or read by a file in ``demos/`` or
``bench/``: a member that only tests call belongs with the tests.  The
check parses those source files and imports nothing, so a name that
appears only in a docstring or a comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freegroups"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


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
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            readers |= names_read(path, imports=False)
    for folder in ("demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            readers |= names_read(path, imports=True)
    unread = [name for name in exported_names() if name not in readers]
    assert not unread, f"exported, but only tests read them: {unread}"
