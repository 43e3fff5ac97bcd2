"""End-to-end benchmark of the latticeknots command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus --seed 1 --seconds 36 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``torus``: generate, validate, distortion (with the BFS oracle for small
  p), irreducibility and OBJ export over the T(p, p+1) family, then a survey.
- ``dilated``: seeded knots dilated so that edges far outnumber sticks:
  validate, distortion, irreducibility, one reduction move, JSON export; a
  seeded low-distortion search; and distortion of a 200,002-edge rectangle.
- ``census``: the conformation census and the distortion-one classification.

A run writes the inputs for its seed under ``.perfbench/`` (before timing),
measures set-up as the median time of several fresh imports of
``latticeknots.cli``, and runs the workload in a fresh worker process
(worker.py) for ``--seconds``.  Every task's exit code, stdout and written
files are checked against references.json (recorded at the seed commit by
record.py) and by independent checks in workloads.py.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the run's passes); with ``--trace 1`` they
are the per-layer ones from a traced run, whose spans go to
``.perfbench/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import UNITS as PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "slowest_task_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Fresh imports per run for setup_s, split around the worker so that the
# median spans the run rather than one moment of host noise.
IMPORTS_BEFORE = 4
IMPORTS_AFTER = 4
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import latticeknots.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def import_seconds(work: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=work, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def inputs_digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((work / "inputs").glob("*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_info() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "commit": commit}


def run_worker(work: Path, config: dict, deadline: float) -> dict:
    (work / "config.json").write_text(json.dumps(config))
    result_path = work / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "config.json", result_path.name],
        cwd=work, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' shrinks every task list, for selftest.py")
    parser.add_argument("--references", default=str(HERE / "references.json"))
    args = parser.parse_args()

    if not (SRC / "latticeknots" / "cli.py").is_file():
        print(f"error: no latticeknots sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tasks = workloads.prepare(args.workload, args.size, args.seed, work)
        digest = inputs_digest(work)
        config = {"src": str(SRC), "tasks": tasks, "seconds": args.seconds,
                  "trace": args.trace, "references": str(Path(args.references).resolve())}
        setup = []
        if not args.trace:
            import_seconds(work)  # compiles the bytecode caches; not counted
            setup = [import_seconds(work) for _ in range(IMPORTS_BEFORE)]
        result = run_worker(work, config, deadline)
        if not args.trace:
            setup += [import_seconds(work) for _ in range(IMPORTS_AFTER)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"] + result.get("traced_passes", [])
    ops = passes[0]["ops"]
    ops_failed = max(p["failed"] for p in passes)
    if args.trace:
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "task"],
            "tasks": result.pop("task_keys"),
            "spans": result.pop("spans"),
        }))
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "slowest_task_s": statistics.median(p["slowest_task_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "inputs_sha256": digest,
        "machine": dict(machine_info(), python=result["python"], numpy=result["numpy"]),
        "calibration_s": result["calibration_s"], "setup_samples_s": setup,
        "passes": passes, "failures": result["failures"],
    }
    print(json.dumps(detail))
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'ops':52s} {ops:>14d} count")
    print(f"{'ops_failed':52s} {ops_failed:>14d} count")
    for key, problem in result["failures"].items():
        print(f"failed: {key}: {problem}")
    print(json.dumps({
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
