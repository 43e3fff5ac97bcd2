import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticeknots

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
SRC = Path(latticeknots.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["build_a_knot.py", "distortion_scan.py", "enumerate_small_knots.py",
     "reduction_moves.py", "torus_family_tour.py"],
)
def test_demo_runs(demo, tmp_path):
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / demo).with_suffix(".txt").read_text()
