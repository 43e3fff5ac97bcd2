import ast
from pathlib import Path

import latticeknots

PACKAGE = Path(latticeknots.__file__).resolve().parent


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
    # so it may share no code with either route it is compared against
    assert not _import_parts("certificate") & {"distortion", "oracle"}
    for name in ("distortion", "oracle"):
        assert "certificate" not in _import_parts(name)
