"""Every top-level import of an fbcsf module is read in that module,
counted from its source with ast: an import left behind by a change that
removed its last use fails this test."""

import ast
from pathlib import Path

import fbcsf

# read from outside alone: bench/tracing.py wraps flow's binding of
# safe_brentq, which flow itself does not call
ALLOWED_UNREAD = {("flow.py", "safe_brentq")}


def _dotted(node):
    """The dotted name of a chain of attributes on a name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unread_imports(source):
    """The names a module's top-level imports bind that it never reads;
    `import a.b` is read only through a name a.b or a.b.*."""
    tree = ast.parse(source)
    imported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            imported += [alias.asname or alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in stmt.names]
    read = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)} - {None}
    return [name for name in imported
            if not any(r == name or r.startswith(name + ".") for r in read)]


def test_counter_finds_unread_imports():
    source = ("import os\n"
              "import importlib.util\n"
              "import importlib.machinery\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field, replace\n"
              "x = importlib.util.find_spec('a')\n"
              "@dataclass\n"
              "class A:\n"
              "    y: list = field(default_factory=list)\n"
              "def f():\n"
              "    import sys\n"
              "    replace = 1\n")
    assert unread_imports(source) == [
        "os", "importlib.machinery", "np", "replace"]


def test_every_top_level_import_is_read():
    package = Path(fbcsf.__file__).parent
    unread = [(path.name, name)
              for path in sorted(package.glob("*.py"))
              for name in unread_imports(path.read_text(encoding="utf-8"))]
    assert set(unread) == ALLOWED_UNREAD, unread
