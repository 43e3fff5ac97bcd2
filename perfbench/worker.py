"""One benchmark run of one workload, in a fresh process of its own.

Started by run.py with the work directory as its current directory.  It caps
its own address space, imports latticeknots from the checkout's ``src``, and
answers the task list again and again as a single closed-loop client (one
task at a time, no threads) until the time budget is spent.  Each task is a
``latticeknots`` command called in-process as ``latticeknots.cli.main(argv)``
with its output captured, or a library call.  Only the calls are timed; the
output checks run between tasks.

With tracing, the first half of the budget runs untraced passes and the
second half traced ones, so ``trace.overhead_s`` compares the two.

Usage: worker.py CONFIG_JSON RESULT_JSON
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

ADDRESS_SPACE_CAP = 2 << 30  # bytes; every task but the oversize one fits


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def files_digest(work: Path, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        path = work / name
        paths = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for p in paths:
            out[p.relative_to(work).as_posix()] = digest(p.read_bytes()) if p.exists() else None
    return out


def calibration_s() -> float:
    """A fixed pure-Python loop; a diagnostic of how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def pick_move(reduce_stdout: str) -> list[str]:
    """The reported witness with the largest amount (first among equals)."""
    best = None
    for line in reduce_stdout.splitlines()[1:]:
        stick, direction, amount = line.split()
        if best is None or int(amount) > int(best[2]):
            best = (stick, direction, amount)
    if best is None:
        raise ValueError("the knot reported no witnesses to move along")
    return ["--stick", best[0], "--direction", best[1], "--amount", best[2]]


class Runner:
    def __init__(self, work: Path, tasks: list[dict], refs: dict, lk):
        self.work = work
        self.tasks = tasks
        self.refs = refs
        self.lk = lk  # the latticeknots modules the tasks call
        self.tracer = None
        self.peak_rss_mb = 0.0
        self.failures: dict[str, str] = {}

    def call(self, task: dict, stdout_of: dict[str, str]) -> tuple[list[str], int, str]:
        """Run one task; returns (argv as run, exit code, stdout)."""
        argv = task["argv"]
        if task.get("move_from"):
            argv = argv + pick_move(stdout_of[task["move_from"]])
        out, err = io.StringIO(), io.StringIO()
        if argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.lk.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return argv, code, out.getvalue()
        _name, path, budget, seed = task["call"]
        text = Path(path).read_text()
        knot, _ = self.lk.io.load_knot_text(text, "csv")
        result = self.lk.explorer.search_low_distortion(knot, budget, seed)
        value = Fraction(result.best_value)
        vertices = repr(result.best_knot.vertices).encode()
        rendered = f"{value.numerator}/{value.denominator} {result.moves_applied} {digest(vertices)}\n"
        return [], 0, rendered

    def verify(self, task: dict, argv: list[str], code: int, stdout: str) -> str | None:
        """None when the task's answer is right, else why it is not."""
        if task["ref"]:
            ref = self.refs.get(task["key"])
            if ref is None:
                return "no recorded reference"
            got = {"code": code, "stdout": digest(stdout.encode()),
                   "files": files_digest(self.work, task["files"])}
            for field in ("code", "stdout", "files"):
                if got[field] != ref[field]:
                    return f"{field} differs from the reference: {got[field]} != {ref[field]}"
        elif code != 0:
            return f"exit code {code}"
        if task["check"]:
            name, *args = task["check"]
            return workloads.CHECKS[name](self.work, stdout, argv, *args)
        return None

    def run_pass(self) -> dict:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        times, failed, wrong = [], 0, 0
        stdout_of: dict[str, str] = {}
        stdout_bytes = 0
        for index, task in enumerate(self.tasks):
            problem = None
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    argv, code, stdout = self.call(task, stdout_of)
                else:
                    self.tracer.task = index
                    with self.tracer.span("task"):
                        argv, code, stdout = self.call(task, stdout_of)
            except Exception as exc:  # MemoryError included: counted, never fatal
                elapsed = time.perf_counter() - start
                problem = f"raised {type(exc).__name__}: {exc}"
                self.failures.setdefault(task["key"], problem)
                del exc
                gc.collect()
            else:
                elapsed = time.perf_counter() - start
                stdout_of[task["key"]] = stdout
                if task["argv"] is not None:
                    stdout_bytes += len(stdout.encode())
                try:
                    problem = self.verify(task, argv, code, stdout)
                except Exception:
                    problem = "check raised: " + traceback.format_exc(limit=1).strip()
                if problem is not None:
                    wrong += 1
                    self.failures.setdefault(task["key"], problem)
            times.append(elapsed)
            failed += problem is not None
        return {"wall_s": sum(times), "slowest_task_s": max(times), "ops": len(times),
                "failed": failed, "wrong": wrong, "stdout_bytes": stdout_bytes,
                "task_s": times}

    def run_until(self, deadline: float) -> list[dict]:
        """Passes until the next one would end past ``deadline`` (at least one)."""
        passes = []
        while True:
            began = time.perf_counter()
            passes.append(self.run_pass())
            if self.tracer is not None:
                passes[-1]["per_layer"] = self.tracer.end_pass(passes[-1]["stdout_bytes"])
            elif len(passes) == 1:
                # Later passes can only add to the peak; the first one is
                # what a single answer of the task list needs.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            took = time.perf_counter() - began
            if time.perf_counter() + took > deadline:
                return passes


def import_latticeknots(src: Path):
    sys.path.insert(0, str(src))
    import latticeknots.cli
    import latticeknots.explorer
    import latticeknots.io

    if Path(latticeknots.__file__).resolve().parent != (src / "latticeknots").resolve():
        raise SystemExit(f"latticeknots was imported from {latticeknots.__file__}, not {src}")
    return latticeknots


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    lk = import_latticeknots(Path(config["src"]))
    import numpy

    work = Path.cwd()
    runner = Runner(work, config["tasks"], json.loads(Path(config["references"]).read_text()), lk)
    calibration = [calibration_s()]
    start = time.perf_counter()
    budget = config["seconds"]
    result: dict = {"numpy": numpy.__version__, "python": sys.version.split()[0]}
    if not config["trace"]:
        passes = runner.run_until(start + budget)
        result["peak_rss_mb"] = runner.peak_rss_mb
    else:
        import tracing

        passes = runner.run_until(start + budget / 2)
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        traced = runner.run_until(start + budget)
        layers = [p.pop("per_layer") for p in traced]
        result["per_layer"] = {
            name: statistics.median(p[name] for p in layers) for name in layers[0]
        }
        result["per_layer"]["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in passes)
        )
        result["traced_passes"] = traced
        result["spans"] = runner.tracer.spans
        result["task_keys"] = [t["key"] for t in config["tasks"]]
    calibration.append(calibration_s())
    result.update(passes=passes, calibration_s=calibration, failures=runner.failures)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
