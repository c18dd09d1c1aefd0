"""The package's settable values, counted from its source with ast.

A settable value is a defaulted positional or keyword-only parameter of a
function, or a defaulted field of a dataclass that is not a ClassVar.  The
count may fall, but a new knob fails this test until the bound is raised
on purpose.
"""

import ast
from pathlib import Path

import fbcsf

SETTABLE_VALUES_MAX = 4


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation):
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = annotation.attr if isinstance(annotation, ast.Attribute) else \
        getattr(annotation, "id", None)
    return name == "ClassVar"


def settable_values(source):
    """The settable values of one module's source, as (kind, name) pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                found.append(("parameter", arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append(("parameter", arg.arg))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and not _is_classvar(stmt.annotation)):
                    found.append(("field", stmt.target.id))
    return found


def test_counter_reads_parameters_and_fields():
    source = (
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, /, c=2, *args, d, e=3, **kw): pass\n"
        "g = lambda x, y=0: x\n"
        "@dataclass\n"
        "class A:\n"
        "    p: int\n"
        "    q: int = 1\n"
        "    r: ClassVar[int] = 2\n"
        "    s: ClassVar = 3\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    u: float = 0.0\n"
        "class C:\n"
        "    v: int = 1\n")
    assert sorted(settable_values(source)) == [
        ("field", "q"), ("field", "u"), ("parameter", "b"),
        ("parameter", "c"), ("parameter", "e"), ("parameter", "y")]


def package_settable_values():
    """The settable values of every fbcsf module, as (file, kind, name)."""
    package = Path(fbcsf.__file__).parent
    return [(path.name,) + value
            for path in sorted(package.glob("*.py"))
            for value in settable_values(path.read_text(encoding="utf-8"))]


def test_settable_values_do_not_grow():
    found = package_settable_values()
    assert len(found) <= SETTABLE_VALUES_MAX, found
