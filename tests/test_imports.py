"""Static checks of the package source: imports used, helpers and constants referenced, error
types raised, and every name the benchmark's tracer binds still there."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pinchflow

PACKAGE = Path(pinchflow.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, json as j\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "j", "b"]


def test_package_modules_use_every_import():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that nothing outside their own definition names.

    A reference is a Name, an attribute or an imported name anywhere in the
    given modules, or an entry of a module's ``__all__``; a definition that
    only calls itself counts as unreferenced.  Dunder names are skipped.  So a
    public name passes when the package calls it, lists it in ``__all__`` or
    re-exports it from ``__init__``.
    """
    definitions, referenced = [], set()
    for source in sources.values():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                names.update(ast.literal_eval(stmt.value))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("__"):
                    definitions.append(stmt.name)
                names.discard(stmt.name)
            referenced |= names
    return [name for name in definitions if name not in referenced]


def test_unreferenced_helpers_are_found():
    sources = {
        "a.py": "def _dead(n):\n    return _dead(n - 1)\n\nclass _Used:\n    pass\n"
        "def _imported():\n    pass\n\ndef _attr():\n    pass\n",
        "b.py": "from a import _imported\nimport a\nx = _Used()\na._attr()\n",
    }
    assert unreferenced_definitions(sources) == ["_dead"]


def test_unreferenced_public_names_are_found():
    sources = {
        "a.py": "__all__ = ['listed']\n\ndef listed():\n    pass\n\ndef orphan():\n"
        "    return orphan()\n\nclass Called:\n    pass\n\ndef exported():\n    pass\n",
        "b.py": "x = 'orphan'\n\ndef use():\n    return Called()\n",
        "__init__.py": "from .a import exported\n",
    }
    assert unreferenced_definitions(sources) == ["orphan", "use"]


def test_package_private_helpers_have_callers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert [name for name in unreferenced_definitions(sources) if name.startswith("_")] == []


def test_package_public_names_have_callers_or_exports():
    # a public function or class that the package neither calls nor exports is
    # dead code that only its tests keep alive
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert [name for name in unreferenced_definitions(sources) if not name.startswith("_")] == []


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE constants that nothing in the given modules reads.

    A constant is a name bound at module level by an assignment, also one of
    several (``A, B = 1, 2``), that matches [A-Z][A-Z0-9_]* after leading
    underscores.  A read is a Name loaded, an attribute or an imported name
    anywhere in the given modules; the assignment that binds it stores.
    """
    constants, read = [], set()
    for source in sources.values():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                constants += [
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", node.id)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [name for name in constants if name not in read]


def test_unread_constants_are_found():
    sources = {
        "a.py": "A, _B = 1, 2\nC: int = 3\nD = 4\nE = 5\n_F = 6\nlower = 7\n"
        "__all__ = []\n\ndef f():\n    G = 8\n    return _B + G\n",
        "b.py": "from a import C\nimport a\nx = a.D\n",
    }
    assert unread_constants(sources) == ["A", "E", "_F"]


def test_package_constants_have_readers():
    # a setting that nothing reads is dead code with a name
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources) == []


def error_types_without_raise(errors_source: str, sources: dict[str, str]) -> list[str]:
    """PinchflowError subclasses defined in errors_source that no raise statement names.

    A raise names a type as ``raise T``, ``raise T(...)`` or through an
    attribute, ``raise errors.T(...)``, anywhere in the given modules.
    """
    family, subclasses = {"PinchflowError"}, []
    for stmt in ast.parse(errors_source).body:  # a base is defined before its subclasses
        if isinstance(stmt, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in family for base in stmt.bases
        ):
            family.add(stmt.name)
            subclasses.append(stmt.name)
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in subclasses if name not in raised]


def test_error_types_without_raise_are_found():
    errors = (
        "class PinchflowError(Exception):\n    pass\n\nclass A(PinchflowError):\n    pass\n\n"
        "class B(A):\n    pass\n\nclass C(PinchflowError):\n    pass\n\n"
        "class D(PinchflowError):\n    pass\n\nclass Other(Exception):\n    pass\n"
    )
    sources = {
        "errors.py": errors,
        "a.py": "import errors\n\ndef f():\n    raise A('x')\n\ntry:\n    f()\n"
        "except C:\n    raise errors.D from None\n",
    }
    assert error_types_without_raise(errors, sources) == ["B", "C"]


def test_every_error_type_has_a_raise_site():
    # an error type whose last raise went would still be exported and documented
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert error_types_without_raise(sources["errors.py"], sources) == []


def tracer_bindings(source: str) -> tuple[set, dict]:
    """What a tracer source binds: its mod["module"].attribute reads and its tuple constants.

    Returns ({(module, attribute)}, {constant name: tuple of names}); the
    constants are the module-level names bound to a literal tuple of strings.
    """
    tree = ast.parse(source)
    reads = {
        (node.value.slice.value, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "mod"
        and isinstance(node.value.slice, ast.Constant)
    }
    constants = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Tuple):
            value = ast.literal_eval(stmt.value)
            if all(isinstance(v, str) for v in value):
                constants.update({t.id: value for t in stmt.targets if isinstance(t, ast.Name)})
    return reads, constants


def test_tracer_bindings_are_found():
    source = (
        'CHECKS = ("a", "b")\nSIZES = (1, 2)\n\ndef install(mod):\n'
        '    wrap(mod["flow"].solve)\n    getattr(mod["verify"], "x")\n    other["cli"].main\n'
    )
    assert tracer_bindings(source) == ({("flow", "solve")}, {"CHECKS": ("a", "b")})


def test_benchmark_tracer_binds_only_names_that_exist():
    # perfbench/spans.py wraps package functions by name: a rename would crash
    # every traced benchmark round, so it fails here first.  Read, not imported.
    reads, constants = tracer_bindings(SPANS.read_text(encoding="utf-8"))
    modules = {name: importlib.import_module(f"pinchflow.{name}") for name, _ in reads}
    assert {("flow", "monitors_update"), ("flow", "solve_ivp"), ("axisym", "resample_profile"),
            ("axisym", "profile_geometry"), ("verify", "default_suite"), ("cli", "main"),
            ("thresholds", "ThresholdFamily"), ("geometry", "curvature_of")} <= reads
    assert [(m, a) for m, a in sorted(reads) if not hasattr(modules[m], a)] == []
    family_class = modules["thresholds"].ThresholdFamily
    expected = {
        "VERIFY_CHECKS": (modules["verify"], "check_{}"),
        "FLOW_DRIVERS": (modules["flow"], "{}"),
        "FAMILY_METHODS": (family_class, "{}"),
    }
    assert set(expected) <= set(constants)
    missing = [
        pattern.format(name)
        for key, (owner, pattern) in expected.items()
        for name in constants[key]
        if not callable(getattr(owner, pattern.format(name), None))
    ]
    assert missing == []
    # every writer is wrapped, and the tracer counts the bytes of the file its first argument names
    export = importlib.import_module("pinchflow.export")
    writers = [name for name in dir(export) if name.startswith("write_")]
    assert len(writers) >= 5
    firsts = {name: next(iter(inspect.signature(getattr(export, name)).parameters)) for name in writers}
    assert {name: first for name, first in firsts.items() if first != "path"} == {}
