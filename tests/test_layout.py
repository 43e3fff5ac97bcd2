import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import latticeknots
import latticeknots.distortion
import latticeknots.explorer
import latticeknots.knot
import latticeknots.reduction

PACKAGE = Path(latticeknots.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_private_imports_between_modules():
    # perfbench/tracing.py wraps only public functions, so a module that
    # calls another module's private function hides that layer from the
    # traced per-layer metrics; each layer is entered by its public name
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} "
                    f"import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_traced_names_resolve():
    # perfbench/tracing.py finds each layer's functions, and the attributes
    # its count hooks read, by name at run time; a name deleted from src/
    # breaks only traced benchmark runs unless it is checked here
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, functions in tracing.LAYERS.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"latticeknots.{layer}"), name, None))
    ]
    assert missing == []
    assert callable(latticeknots.explorer.enumerate_conformations)
    read = {
        latticeknots.distortion.DistortionReport: ["pair_count_scanned"],
        latticeknots.reduction.IrreducibilityReport: ["witnesses"],
        latticeknots.explorer.SearchResult: ["moves_applied"],
        latticeknots.knot.LatticeKnot: ["edge_length", "stick_count"],
    }
    assert [f"{cls.__name__}.{attr}" for cls, attrs in read.items()
            for attr in attrs if not hasattr(cls, attr)] == []


def _import_parts(name: str) -> set[str]:
    """Every dotted component of every name that module ``name`` imports."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {part for dotted in names for part in dotted.split(".")}


def test_certificate_is_independent_of_kernel_and_oracle():
    # the certificate stands in for the oracle as the kernel's cross-check,
    # so it may share no code with either route it is compared against; the
    # oracle, the kernel's other cross-check, shares none with the kernel
    assert not _import_parts("certificate") & {"distortion", "oracle"}
    for name in ("distortion", "oracle"):
        assert "certificate" not in _import_parts(name)
    assert "distortion" not in _import_parts("oracle")


def _public_definitions(tree: ast.Module) -> list[tuple[ast.AST, bool]]:
    """Public top-level functions and classes, and the public methods and
    properties of public classes, each with whether it is such a member."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        found.append((node, False))
        if isinstance(node, ast.ClassDef):
            found += [
                (member, True)
                for member in node.body
                if isinstance(member, ast.FunctionDef)
                and not member.name.startswith("_")
            ]
    return found


def _references(tree: ast.AST, members: bool = False) -> Counter[str]:
    """How often a tree names each name: as a variable, an attribute, an
    imported name or a dotted part of a string constant (perfbench wraps
    layers by name).  With ``members``, only the ways a method or property
    is reached count: an attribute, or a part of a string holding a dot."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts) and not (members and len(parts) == 1):
                names.update(parts)
        elif members:
            continue
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def test_every_public_name_has_a_caller():
    # "code with no caller is deleted": a public name that only the tests
    # reach is kept alive by its own tests, so every public function, class,
    # method and property in src/ must be named in src/ outside its own
    # definition and the package's re-exports, in demos/ or in perfbench/;
    # a method or property counts as named only through attribute access or
    # a dotted string, so a local variable of the same name does not count
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in scripts]
    everywhere = {
        members: sum((_references(tree, members) for tree in trees), Counter())
        for members in (False, True)
    }
    uncalled = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node, member in _public_definitions(tree)
        if not (everywhere[member] - _references(node, member))[node.name]
    ]
    assert uncalled == []


def test_only_io_builds_knots_from_vertex_coordinates():
    # a layer that holds sticks hands the constructor their types, lengths
    # and an origin; only the file reader starts from points.  knot.py
    # defines the two builders and __init__.py re-exports them
    builders = {"knot_from_columns", "knot_from_vertices"}
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("io.py", "knot.py", "__init__.py")
        for name in sorted(builders & set(_references(ast.parse(path.read_text()))))
    ]
    assert found == []


def test_cli_import_generates_no_record_code():
    # the records are NamedTuples and Stick a slots class, so importing the
    # command line generates no methods: neither dataclasses nor inspect,
    # which it loads, is imported.  -S keeps site hooks out of the count
    probe = "import sys, latticeknots.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.strip() == "[]"
