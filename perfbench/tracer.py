"""Outside-in span tracing of the electodist layers.

The tracer wraps the public functions of each electodist submodule by
rebinding module globals, so calls made inside a module (which look the
name up in that module's globals) are caught as well as calls from other
modules.  ``linear_sum_assignment`` is wrapped only where
``electodist.metrics`` binds it.  No program file is edited.

Spans are kept in memory; each is ``[name, tag, start, end, parent, thread]``.
A worker thread whose own stack is empty is linked to the span open on top
of the main thread's stack, which is the caller blocked on the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time

LAYERS = ("cli", "cultures", "elections", "metrics", "mapping", "analysis")

# Spans are tagged with the value of one argument, where it names the kind
# of work: the metric kind of a distance, the first kind of a correlation.
TAG_PARAMS = ("kind", "kind_a")

# Functions whose first argument is an election; the tracer keeps the set
# of distinct elections seen, so calls per election can be reported.
ELECTION_ARG = {
    "elections.position_matrix",
    "elections.majority_matrix",
    "elections.borda_vector",
}

# Functions whose first argument is an election whose candidate count m
# the tracer keeps per span, so a swap search's relabelings can be set
# against the m! it could examine.
CANDIDATES_ARG = {"metrics.distance"}

# Sizes read off results: bytes rendered by export_map, ANECs in a census.
RESULT_SIZE = {
    "mapping.export_map": lambda r: len(r.encode("utf-8")),
    "analysis.count_equivalence_classes": lambda r: int(r.anec_count),
}


class Tracer:
    """Collects spans from wrapped functions; safe to use from threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.spans: list[list] = []
        self.stacks: dict[int, list[int]] = {}
        self.main = threading.main_thread().ident
        self.enabled = False
        self.distinct: dict[str, set] = {}
        self.result_sizes: dict[str, int] = {}
        self.candidates: dict[int, int] = {}
        self.wrapped: list[str] = []
        self.absent: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str, tag) -> int:
        tid = threading.get_ident()
        now = time.perf_counter()
        with self.lock:
            stack = self.stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self.stacks.get(self.main)
                parent = main_stack[-1] if tid != self.main and main_stack else -1
            idx = len(self.spans)
            self.spans.append([name, tag, now, None, parent, tid])
            stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        with self.lock:
            self.spans[idx][3] = now
            self.stacks[self.spans[idx][5]].pop()

    def wrap(self, name: str, fn):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        tag_param = next((p for p in TAG_PARAMS if p in params), None)
        tag_pos = params.index(tag_param) if tag_param else None
        track_election = name in ELECTION_ARG
        track_candidates = name in CANDIDATES_ARG
        size_of = RESULT_SIZE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tag = None
            if tag_pos is not None:
                tag = args[tag_pos] if len(args) > tag_pos else kwargs.get(tag_param)
            if track_election and args:
                try:
                    key = hash(args[0])
                except TypeError:
                    key = id(args[0])
                tracer.distinct.setdefault(name, set()).add(key)
            idx = tracer.open(name, tag)
            if track_candidates and args:
                tracer.candidates[idx] = getattr(args[0], "m", 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if size_of is not None:
                with tracer.lock:
                    tracer.result_sizes[name] = tracer.result_sizes.get(name, 0) + size_of(result)
            return result

        return traced

    # -- installing ----------------------------------------------------

    def install(self, package, expected: dict[str, str]) -> None:
        """Wrap every public function of the layer modules of ``package``.

        ``expected`` maps span names the report relies on to a reason used
        when the program no longer defines them; they are listed as absent.
        """
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError as exc:
                self.absent[layer] = f"module not importable: {exc}"

        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
                self.wrapped.append(f"{layer}.{attr}")
        for mod in [*modules.values(), importlib.import_module(package)]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, attr, wrapper)

        metrics = modules.get("metrics")
        lsa = getattr(metrics, "linear_sum_assignment", None) if metrics else None
        if lsa is not None:
            self._rebind(metrics, "linear_sum_assignment", self.wrap("metrics.lsa", lsa))
            self.wrapped.append("metrics.lsa")
        for name, reason in expected.items():
            if name not in self.wrapped and name not in self.absent:
                self.absent[name] = reason

    def _rebind(self, mod, attr, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        self.enabled = False


# -- analysis ------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals.

    Children running on two threads at once overlap; the union counts the
    covered wall time once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for idx, span in enumerate(spans):
        covered = union_length(children.get(idx, []), span[2], span[3])
        out.append(span[3] - span[2] - covered)
    return out


METRIC_KINDS = ("swap", "discrete", "emdpos", "l1pos", "pairwise", "bordawise")
AGGREGATES = ("position_matrix", "majority_matrix", "borda_vector")

# Every per-layer metric, with its unit, in report order.  trace.overhead_frac
# compares a traced with an untraced run, so the caller fills it in.
LAYER_METRICS = (
    [("cli.build_dataset.s", "s"), ("cli.self_s", "s"),
     ("cultures.sample.calls", "count"), ("cultures.sample.s", "s")]
    + [(f"elections.{f}.{q}", u) for f in AGGREGATES
       for q, u in (("calls", "count"), ("s", "s"), ("per_election", "ratio"))]
    + [(f"metrics.distance.{k}.{q}", u) for k in METRIC_KINDS
       for q, u in (("calls", "count"), ("s", "s"))]
    + [("metrics.solve_assignment.calls", "count"), ("metrics.solve_assignment.s", "s"),
       ("metrics.lsa.calls", "count"), ("metrics.lsa.s", "s"),
       ("metrics.lsa.lexmin_extra_per_solve", "ratio"),
       ("metrics.swap.relabelings_per_pair", "count"), ("metrics.swap.examined_frac", "ratio"),
       ("mapping.distance_matrix.calls", "count"), ("mapping.distance_matrix.s", "s"),
       ("mapping.distance_matrix.self_s", "s"),
       ("mapping.embed.calls", "count"), ("mapping.embed.s", "s"),
       ("mapping.export_map.calls", "count"), ("mapping.export_map.s", "s"),
       ("mapping.export_map.bytes", "bytes"),
       ("analysis.count_equivalence_classes.s", "s"),
       ("analysis.count_equivalence_classes.self_s", "s"),
       ("analysis.census.anecs", "count"),
       ("analysis.correlation.calls", "count"), ("analysis.correlation.s", "s"),
       ("analysis.correlation.distance_calls_per_value", "ratio"),
       ("trace.overhead_frac", "ratio")]
)

# Spans the report reads, with the reason given when the program lacks one.
EXPECTED_SPANS = {
    name: f"{name} is not a public function of the program"
    for name in (
        ["cli.build_dataset", "cultures.sample", "metrics.distance",
         "metrics.solve_assignment", "metrics.lsa", "mapping.distance_matrix",
         "mapping.embed", "mapping.export_map", "analysis.count_equivalence_classes",
         "analysis.correlation"]
        + [f"elections.{f}" for f in AGGREGATES]
    )
}


def _ancestor(spans, idx: int, names) -> int:
    parent = spans[idx][4]
    while parent >= 0 and spans[parent][0] not in names:
        parent = spans[parent][4]
    return parent


def layer_report(tracer: Tracer, correlation_values: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced workload run.

    ``correlation_values`` is the number of distinct (pair, metric) values
    the workload's correlations deliver.  A figure whose layer did no work
    reads 0.  The swap examined fraction is the mean, over swap distances,
    of relabelings examined over the m! of that pair's elections.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[tuple, int] = {}
    incl: dict[tuple, float] = {}
    excl: dict[tuple, float] = {}
    for span, self_s in zip(spans, selfs):
        for key in {(span[0], None), (span[0], span[1])}:
            calls[key] = calls.get(key, 0) + 1
            incl[key] = incl.get(key, 0.0) + span[3] - span[2]
            excl[key] = excl.get(key, 0.0) + self_s

    def c(name, tag=None):
        return calls.get((name, tag), 0)

    def s(name, tag=None):
        return incl.get((name, tag), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.build_dataset.s": s("cli.build_dataset"),
        "cli.self_s": sum(v for (name, tag), v in excl.items()
                          if tag is None and name.startswith("cli.cmd_")),
        "cultures.sample.calls": c("cultures.sample"),
        "cultures.sample.s": s("cultures.sample"),
    }
    for f in AGGREGATES:
        name = f"elections.{f}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.s"] = s(name)
        out[f"{name}.per_election"] = ratio(c(name), len(tracer.distinct.get(name, ())))
    for k in METRIC_KINDS:
        out[f"metrics.distance.{k}.calls"] = c("metrics.distance", k)
        out[f"metrics.distance.{k}.s"] = s("metrics.distance", k)

    lsa_in_solve = lsa_in_swap = 0
    per_swap: dict[int, int] = {}
    dist_in_corr = 0
    for idx, span in enumerate(spans):
        if span[0] == "metrics.lsa":
            owner = _ancestor(spans, idx, ("metrics.solve_assignment", "metrics.distance"))
            if owner >= 0 and spans[owner][0] == "metrics.solve_assignment":
                lsa_in_solve += 1
            elif owner >= 0 and spans[owner][1] == "swap":
                lsa_in_swap += 1
                per_swap[owner] = per_swap.get(owner, 0) + 1
        elif span[0] == "metrics.distance":
            if _ancestor(spans, idx, ("analysis.correlation",)) >= 0:
                dist_in_corr += 1
    solves = c("metrics.solve_assignment")
    swap_pairs = c("metrics.distance", "swap")
    per_pair = ratio(lsa_in_swap, swap_pairs)
    examined = sum(per_swap.get(idx, 0) / math.factorial(tracer.candidates.get(idx, 0))
                   for idx, span in enumerate(spans)
                   if span[0] == "metrics.distance" and span[1] == "swap")
    out.update({
        "metrics.solve_assignment.calls": solves,
        "metrics.solve_assignment.s": s("metrics.solve_assignment"),
        "metrics.lsa.calls": c("metrics.lsa"),
        "metrics.lsa.s": s("metrics.lsa"),
        "metrics.lsa.lexmin_extra_per_solve": ratio(lsa_in_solve - solves, solves),
        "metrics.swap.relabelings_per_pair": per_pair,
        "metrics.swap.examined_frac": ratio(examined, swap_pairs),
        "mapping.distance_matrix.calls": c("mapping.distance_matrix"),
        "mapping.distance_matrix.s": s("mapping.distance_matrix"),
        "mapping.distance_matrix.self_s": excl.get(("mapping.distance_matrix", None), 0.0),
        "mapping.embed.calls": c("mapping.embed"),
        "mapping.embed.s": s("mapping.embed"),
        "mapping.export_map.calls": c("mapping.export_map"),
        "mapping.export_map.s": s("mapping.export_map"),
        "mapping.export_map.bytes": tracer.result_sizes.get("mapping.export_map", 0),
        "analysis.count_equivalence_classes.s": s("analysis.count_equivalence_classes"),
        "analysis.count_equivalence_classes.self_s":
            excl.get(("analysis.count_equivalence_classes", None), 0.0),
        "analysis.census.anecs": tracer.result_sizes.get("analysis.count_equivalence_classes", 0),
        "analysis.correlation.calls": c("analysis.correlation"),
        "analysis.correlation.s": s("analysis.correlation"),
        "analysis.correlation.distance_calls_per_value": ratio(dist_in_corr, correlation_values),
    })
    return out
