"""Tiny-size self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at the tiny size (torus p <= 4, census L <= 8, two
dilated knots) with tracing off and on, and asserts that

- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- every answer is correct, and only the oversize rectangle fails;
- the traced run writes its span file;
- a corrupted reference is counted in ops_failed and makes ``correct`` false;
- the rectangle's closed form agrees with the scan and the BFS oracle at
  a = 10 and a = 100, which is what the oversize task is checked against;
- without the program's sources the benchmark exits non-zero, printing no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
EXPECTED_FAILED = {"torus": 0, "census": 0, "dilated": 1}  # per pass


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def results(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    detail, last = results(bench(workload, trace))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == units, sorted(set(got) ^ set(units))
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert last["correct"], detail["failures"]
    per_pass = [p["failed"] for p in detail["passes"]]
    assert per_pass == [EXPECTED_FAILED[workload]] * len(per_pass), detail["failures"]
    assert last["attempted"] == sum(p["ops"] for p in detail["passes"])
    assert last["failed"] == sum(per_pass)
    if trace:
        spans = ROOT / ".perfbench" / f"spans-{workload}-seed7.json"
        assert json.loads(spans.read_text())["spans"], spans
    print(f"ok: {workload} trace={trace}: {len(got)} metrics, failed per pass {per_pass[0]}")


def check_corrupted_reference() -> None:
    refs = json.loads((HERE / "references.json").read_text())
    key = "torus/p03/distortion"
    refs[key]["stdout"] = "0" * 16
    corrupted = SCRATCH / "references.json"
    corrupted.write_text(json.dumps(refs))
    detail, last = results(bench("torus", 0, "--references", str(corrupted)))
    assert not last["correct"]
    assert all(p["failed"] == 1 for p in detail["passes"]), detail["passes"]
    assert list(detail["failures"]) == [key], detail["failures"]
    print("ok: a corrupted reference is counted in ops_failed")


def check_rectangle_closed_form() -> None:
    for a in (10, 100):
        path = SCRATCH / f"rect{a}.csv"
        path.write_text(f"x,y,z\n0,0,0\n{a},0,0\n{a},1,0\n0,1,0\n")
        done = subprocess.run(
            [sys.executable, "-m", "latticeknots.cli", "distortion", str(path), "--pairs",
             "--oracle"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        want = f"{a + 1}\n{a // 2} {3 * a // 2 + 1}\noracle: agree\n"
        assert done.stdout == want, (a, done.stdout, done.stderr)
    print("ok: the rectangle's closed form matches the scan and the oracle at a = 10, 100")


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("torus", 0, cwd=bare)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    print("ok: without the sources the benchmark exits", done.returncode)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in ("torus", "census", "dilated"):
            for trace in (0, 1):
                check_metrics(workload, trace, spec)
        check_corrupted_reference()
        check_rectangle_closed_form()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
