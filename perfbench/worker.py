"""Measured runs of one workload, each in a fresh copy of a set-up interpreter.

Usage: worker.py WORKLOAD WORKDIR SEED SPAWNED_AT DEADLINE TRACE THREADS

SPAWNED_AT is the ``time.monotonic()`` reading of the parent just before it
started this process, so set-up time covers interpreter start, the imports
of ``electodist`` and ``electodist.cli``, and building the inputs, up to the
first workload call.

After set-up the workload runs again and again, each time in a child forked
from this process.  A child starts as a fresh CLI invocation would after
its imports: the program's lazily built tables and caches are empty.  The
next child starts only if it would end by DEADLINE (a ``time.monotonic()``
reading); at least one runs, two when tracing.  With TRACE 1 the children
alternate between untraced and traced, starting untraced.  Outputs are
checked in the child after its timer stops, against the recorded digests
when SEED is the default seed.  THREADS of 0 keeps the workload's own
setting.

Calibration slices (``calibrate.py``) are timed in a forked child after
set-up, and in forked children just before and just after every run:
children of this process, so neither the run's heap nor its spans slow
them.

Prints one JSON object per line: first ``{"setup_s": ..., "cal": [...]}``,
then one per run, with its time and the median of its calibration slices.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_LIMIT_S = 150.0


def measured_run(name, inputs, seed_is_default, references, traced):
    """One run of the workload; its result as a JSON-ready dict."""
    import resource

    import tracer as tracing
    import workloads

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install("electodist", tracing.EXPECTED_SPANS)
        tracer.enabled = True

    start = time.perf_counter()
    outputs = workloads.run(name, inputs)
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.uninstall()
    # the child's own high-water mark: pages it shares with its parent
    # count as they are touched, as they would in a fresh process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = workloads.check(name, inputs, outputs, references if seed_is_default else None)
    result = {
        "traced": traced,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "values": workloads.values_delivered(name, inputs),
        "attempted": len(outputs),
        "failed": failed,
        "digests": {u: workloads.digest(d) for u, d in outputs.items() if d is not None},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_report(
            tracer, workloads.correlation_values(name, inputs))
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        result["spans_rows"] = ["\t".join(map(str, span)) for span in tracer.spans]
    return result


def in_child(fn, timeout: float) -> dict:
    """Run ``fn`` in a forked child; its result, or a failed operation."""
    import json
    import os
    import select
    import signal
    import traceback

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, timed_out = [], False
    end = time.monotonic() + timeout
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if timed_out or status != 0:
        why = "timed out" if timed_out else f"wait status {status}"
        return {"crashed": why, "attempted": 1, "failed": ["worker"]}
    return json.loads(b"".join(chunks))


def main(argv: list[str]) -> int:
    name, workdir, seed, spawned_at, deadline, trace, threads = argv
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import json
    import shutil

    import electodist
    import electodist.cli  # noqa: F401  (users of the CLI pay this import)

    if not Path(electodist.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"electodist imported from {electodist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer  # noqa: F401  (imported before the children fork)
    import workloads

    workdir = Path(workdir)
    inputs = workloads.load(name, workdir, int(threads) or None)
    setup_s = time.monotonic() - float(spawned_at)

    import statistics

    import calibrate

    setup_cal = in_child(calibrate.slices, CHILD_LIMIT_S)
    seed_is_default = int(seed) == workloads.DEFAULT_SEED
    references = None
    if seed_is_default:
        references = json.loads((HERE / "references.json").read_text()).get(name, {})
    print(json.dumps({"setup_s": setup_s, "cal": setup_cal}), flush=True)

    minimum = 2 if trace == "1" else 1
    done, took = 0, 0.0
    while done < minimum or time.monotonic() + took <= float(deadline):
        traced = trace == "1" and done % 2 == 1
        shutil.rmtree(workdir / "out", ignore_errors=True)
        began = time.monotonic()
        before = in_child(calibrate.slices, CHILD_LIMIT_S)
        result = in_child(
            lambda: measured_run(name, inputs, seed_is_default, references, traced),
            CHILD_LIMIT_S,
        )
        after = in_child(calibrate.slices, CHILD_LIMIT_S)
        cal = [t for part in (before, after) if isinstance(part, list) for t in part]
        result["cal_s"] = statistics.median(cal) if cal else None
        took = time.monotonic() - began
        result["traced"] = traced
        result["took_s"] = took
        rows = result.pop("spans_rows", None)
        if rows is not None:
            with open(workdir / "spans.tsv", "w", encoding="utf-8") as fh:
                fh.writelines(row + "\n" for row in rows)
        print(json.dumps(result), flush=True)
        done += 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
