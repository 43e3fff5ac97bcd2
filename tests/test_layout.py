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
