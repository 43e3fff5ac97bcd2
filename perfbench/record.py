"""Record references.json: each task's exit code, stdout digest and file digests.

Run from the root of a checkout at the commit whose answers are the
reference (the seed commit of the benchmark):

    python3 perfbench/record.py

It runs every task a seed can pick, at both sizes, once, untimed, in this
process with the worker's address-space cap.  Tasks without a reference
(the oversize rectangle, whose answer is checked by its closed form) are
skipped.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from pathlib import Path

import run
import worker
import workloads


def task_lists(scratch: Path):
    """(work dir, tasks) pairs covering every task key of both sizes."""
    for size in workloads.SIZES:
        for name in ("torus", "census"):
            work = scratch / f"{size}-{name}"
            yield work, workloads.prepare(name, size, 0, work)
        slots, budget = workloads.SIZES[size]["dilated"]
        for variant in range(max(workloads.VARIANTS, workloads.SEARCH_SEEDS)):
            work = scratch / f"{size}-dilated-v{variant}"
            picks = [(slot, variant % workloads.VARIANTS) for slot in range(slots)]
            yield work, workloads.dilated_tasks(
                work, picks, budget, variant % workloads.SEARCH_SEEDS
            )


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (worker.ADDRESS_SPACE_CAP,) * 2)
    lk = worker.import_latticeknots(run.SRC)
    scratch = run.ROOT / ".perfbench" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    refs: dict[str, dict] = {}
    try:
        for work, tasks in task_lists(scratch):
            (work / "out").mkdir(parents=True)
            os.chdir(work)
            runner = worker.Runner(work, tasks, {}, lk)
            stdout_of: dict[str, str] = {}
            for task in tasks:
                if not task["ref"]:
                    continue
                _argv, code, stdout = runner.call(task, stdout_of)
                stdout_of[task["key"]] = stdout
                refs[task["key"]] = {
                    "code": code,
                    "stdout": worker.digest(stdout.encode()),
                    "files": worker.files_digest(work, task["files"]),
                }
            print(f"{work.name}: {len(tasks)} tasks", file=sys.stderr)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    out = Path(__file__).resolve().parent / "references.json"
    out.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    print(f"{len(refs)} references written to {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
