"""Spans around calls into each latticeknots layer, and the per-layer metrics.

Used only by a traced worker.  ``install`` rebinds the public functions named
in ``LAYERS`` to recording wrappers, in every latticeknots module namespace
that holds them, so calls between layers (``classify_distortion_one`` calling
``canonical_steps``, ``verify_structure`` calling ``torus_knot``) are captured
too.  Nothing under ``src/`` changes; an untraced worker never imports this.

A span is ``[name, start, end, parent, task]``: ``parent`` is the index of the
enclosing span in the same list (-1 for none) and ``task`` the index of the
task that made the call.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

# Serializers in io that produce a written file's text.
WRITERS = ("io.dump_tabulation_json", "io.knot_to_vertex_csv", "io.knot_to_obj",
           "io.knot_to_json")


def _count_distortion(counts, args, result):
    K = args[0]
    counts["distortion.edges"] += K.edge_length
    counts["distortion.sticks"] += K.stick_count
    if result is not None:
        counts["distortion.pairs_scanned"] += result.pair_count_scanned


def _count_oracle(counts, args, result):
    n = args[0].edge_length
    counts["oracle.pairs"] += n * (n - 1) // 2


def _count_knot(name):
    def count(counts, args, result):
        if result is not None:
            counts[f"knot.{name}.edges"] += result.edge_length
    return count


def _count_witnesses(counts, args, result):
    if result is not None:
        counts["reduction.witnesses"] += len(result.witnesses)


def _count_search(counts, args, result):
    counts["explorer.search.moves"] += args[1]
    if result is not None:
        counts["explorer.search.applied"] += result.moves_applied


def _count_input(counts, args, result):
    counts["io.input_bytes"] += len(args[0])


# layer (every latticeknots module) -> public function -> count hook, called
# with the positional arguments and the result, or None when the call raised.
LAYERS = {
    "cli": {"main": None},
    "io": {
        "load_knot_text": _count_input,
        "dump_tabulation_json": None,
        "knot_to_vertex_csv": None,
        "knot_to_obj": None,
        "knot_to_json": None,
    },
    "knot": {"build_knot": _count_knot("build_knot"),
             "knot_from_vertices": _count_knot("knot_from_vertices")},
    "distortion": {"vertex_distortion": _count_distortion,
                   "check_distortion_one_structure": None},
    "oracle": {"vertex_distortion_oracle": _count_oracle},
    "torus": {"verify_structure": None, "torus_knot": None},
    "reduction": {
        "is_irreducible": _count_witnesses,
        "max_reduction_amount": None,
        "apply_reduction": None,
        "apply_extension": None,
    },
    "explorer": {
        "canonical_steps": None,
        "classify_distortion_one": None,
        "search_low_distortion": _count_search,
    },
    "lattice": {"are_coplanar": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._pass_start: tuple[int, Counter] = (0, Counter())

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the worker opens itself, one around each task."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, name: str, fn, hook):
        counts = self.counts

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                if hook is not None:
                    hook(counts, args, None)
                raise
            finally:
                self._exit(span)
            if name in WRITERS and self._outermost_writer(span):
                counts["io.output_bytes"] += len(result)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _outermost_writer(self, span: list) -> bool:
        parent = span[3]
        return parent < 0 or self.spans[parent][0] not in WRITERS

    def wrap_counting_yields(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever latticeknots holds it."""
        namespaces = [importlib.import_module("latticeknots")]
        replacements = {}
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"latticeknots.{layer}")
            namespaces.append(module)
            for fname, hook in functions.items():
                original = getattr(module, fname)
                replacements[id(original)] = self.wrap(f"{layer}.{fname}", original, hook)
        explorer = importlib.import_module("latticeknots.explorer")
        enumerate_fn = explorer.enumerate_conformations
        replacements[id(enumerate_fn)] = self.wrap_counting_yields(
            "explorer.classes", enumerate_fn
        )
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if callable(value) and id(value) in replacements:
                    setattr(ns, attr, replacements[id(value)])

    def end_pass(self, stdout_bytes: int) -> dict:
        """Per-layer metrics of the spans and counts since the last call."""
        lo, before = self._pass_start
        self._pass_start = len(self.spans), Counter(self.counts)
        counts = self.counts - before
        counts["cli.stdout_bytes"] = stdout_bytes
        return pass_metrics(self.spans, lo, len(self.spans), counts)


# ------------------------------------------------------------ metric names

def _calls_time(name, *, self_s=False):
    out = [(f"{name}.calls", "count"), (f"{name}.time_s", "s")]
    if self_s:
        out.append((f"{name}.self_s", "s"))
    return out


PER_LAYER = (
    _calls_time("distortion.vertex_distortion", self_s=True)
    + [("distortion.edges", "count"), ("distortion.sticks", "count"),
       ("distortion.pairs_scanned", "count"),
       ("distortion.check_distortion_one_structure.time_s", "s")]
    + _calls_time("oracle.vertex_distortion_oracle") + [("oracle.pairs", "count")]
    + _calls_time("torus.verify_structure", self_s=True)
    + _calls_time("torus.torus_knot")
    + [("reduction.is_irreducible.time_s", "s")]
    + _calls_time("reduction.max_reduction_amount")
    + [("reduction.witnesses", "count"),
       ("reduction.apply_reduction.calls", "count"),
       ("reduction.apply_reduction.rejected", "count"),
       ("reduction.apply_extension.calls", "count"),
       ("reduction.apply_extension.rejected", "count")]
    + _calls_time("explorer.canonical_steps")
    + [("explorer.classes", "count"), ("explorer.classes_per_walk", "ratio")]
    + [("explorer.classify_distortion_one.time_s", "s"),
       ("explorer.classify_distortion_one.self_s", "s"),
       ("explorer.search_low_distortion.time_s", "s"),
       ("explorer.search.applied_per_move", "ratio")]
    + _calls_time("knot.build_knot") + [("knot.build_knot.edges", "count")]
    + _calls_time("knot.knot_from_vertices") + [("knot.knot_from_vertices.edges", "count")]
    + [("io.load_knot_text.time_s", "s"), ("io.input_bytes", "bytes"),
       ("io.write.time_s", "s"), ("io.output_bytes", "bytes")]
    + _calls_time("lattice.are_coplanar")
    + _calls_time("cli.main") + [("cli.self_s", "s"), ("cli.stdout_bytes", "bytes")]
    + [("trace.overhead_s", "s")]
)
UNITS = dict(PER_LAYER)


def pass_metrics(spans: list[list], lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass, ``trace.overhead_s`` excepted.

    The pass owns ``spans[lo:hi]`` (parent indices point into the whole
    list) and ``counts``.  Self time is a span's duration minus the time its
    direct children cover; children of one span never overlap.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    child: Counter = Counter()
    for i in range(hi - 1, lo - 1, -1):
        name, start, end, parent, _ = spans[i]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
        child[parent] += end - start
    write_time = sum(
        end - start
        for name, start, end, parent, _ in spans[lo:hi]
        if name in WRITERS and (parent < 0 or spans[parent][0] not in WRITERS)
    )
    walks = calls["explorer.canonical_steps"]
    moves = counts["explorer.search.moves"]
    m = {
        "cli.self_s": self_time["cli.main"],
        "io.write.time_s": write_time,
        "explorer.classes_per_walk": counts["explorer.classes"] / walks if walks else 0.0,
        "explorer.search.applied_per_move":
            counts["explorer.search.applied"] / moves if moves else 0.0,
    }
    for metric, _unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric in m or metric == "trace.overhead_s":
            continue
        if field == "calls":
            m[metric] = calls[base]
        elif field == "time_s":
            m[metric] = total[base]
        elif field == "self_s":
            m[metric] = self_time[base]
        elif field == "rejected":
            m[metric] = counts[base + ".raised"]
        else:
            m[metric] = counts[metric]
    return m
