"""Checks of the benchmark itself, not of the program.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = HERE.parent / ".perfbench" / "selftest"


def span(name, start, end, parent, thread=1):
    return [name, None, start, end, parent, thread]


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("d", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_thread_spans_once():
    spans = [
        span("pool", 0.0, 10.0, -1),
        span("w", 1.0, 6.0, 0, thread=2),
        span("w", 4.0, 8.0, 0, thread=3),
        span("w", 8.5, 9.0, 0, thread=2),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_worker_thread_spans_link_to_the_blocked_caller():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf(x):
        barrier.wait()  # both workers are inside a span at once
        time.sleep(0.01)
        return x

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_leaf, range(2)))

    tracer.enabled = True
    assert tracer.wrap("outer", outer)() == [0, 1]
    names = [s[0] for s in tracer.spans]
    assert names.count("leaf") == 2 and names.index("outer") == 0
    leaves = [s for s in tracer.spans if s[0] == "leaf"]
    assert all(s[4] == 0 for s in leaves) and len({s[5] for s in leaves}) == 2
    selfs = tracing.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    covered = tracing.union_length([(s[2], s[3]) for s in leaves], outer_span[2], outer_span[3])
    assert selfs[0] == pytest.approx(outer_span[3] - outer_span[2] - covered)
    assert covered < sum(s[3] - s[2] for s in leaves)


def test_one_corrupted_output_is_one_failed_operation():
    workdir = SCRATCH / "pairs"
    workloads.generate("pairs", workloads.DEFAULT_SEED, workdir)
    inputs = workloads.load("pairs", workdir, None)
    outputs = workloads.run("pairs", inputs)
    refs = json.loads((HERE / "references.json").read_text())["pairs"]
    assert workloads.check("pairs", inputs, outputs, refs) == []
    unit = "e0-e2-swap"
    corrupted = dict(outputs)
    corrupted[unit] = outputs[unit].replace(b"\n", b"\n\n", 1)
    assert workloads.check("pairs", inputs, corrupted, refs) == [unit]
    corrupted[unit] = None
    assert workloads.check("pairs", inputs, corrupted, refs) == [unit]
    # without references the invariants alone catch a wrong value
    value, rest = outputs[unit].split(b"\n", 1)
    corrupted[unit] = str(int(value) + 1).encode() + b"\n" + rest
    assert workloads.check("pairs", inputs, corrupted, None) == [unit]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(name):
    def files(seed, tag):
        workdir = SCRATCH / f"{name}-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        workloads.generate(name, seed, workdir)
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    first = files(7, "a")
    assert first and first == files(7, "b")
    assert files(8, "c") != first


def test_a_removed_function_is_reported_absent():
    tracer = tracing.Tracer()
    expected = dict(tracing.EXPECTED_SPANS, **{"metrics.gone": "removed"})
    tracer.install("electodist", expected)
    try:
        assert tracer.absent == {"metrics.gone": "removed"}
        report = tracing.layer_report(tracer, 0)
        assert {k for k, _ in tracing.LAYER_METRICS} - set(report) == {"trace.overhead_frac"}
    finally:
        tracer.uninstall()
    import electodist.metrics

    assert not hasattr(electodist.metrics.distance, "__wrapped__")
