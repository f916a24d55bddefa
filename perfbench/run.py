"""Benchmark of electodist on two workloads from the paper's experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload maps --seed 2026 --seconds 55 --trace 0

The workloads are described in ``workloads.py``.  The time is shared by
four workers (``worker.py``), started one after another.  Each is a fresh
interpreter, because a CLI user pays the imports on every invocation; it
sets up once and then runs the workload again and again, each run in a
child forked from the set-up interpreter, so every run starts with the
program's lazily built tables and caches empty, as an invocation does.
Numpy's BLAS is held to one thread.  Every run checks its outputs: against
recorded sha256 digests for the default seed 2026, and against cheap
invariants for any seed.  A wrong output counts as a failed operation; it
does not stop the benchmark.

Times are calibrated: next to every set-up and every run, in children
forked the same way, the benchmark times slices of a fixed job of its own
(``calibrate.py``), and divides the time measured by the median slice, then
multiplies by ``calibrate.REFERENCE_S``.  The shared host this was built on
changes speed by half from minute to minute, which moved the median of
raw times between runs by more than any bound a change could be held to;
the quotient moves with the program, not the host.  The raw times are
printed above the last line as well.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics, medians over the runs:

- setup_s: interpreter start, imports and input building, up to the first
  workload call (median of the four workers), calibrated;
- wall_s: the workload's calls after set-up, calibrated;
- values_per_s: distinct (pair, metric) distance values per second of wall_s;
- peak_rss_mb: peak resident memory of the process that ran the workload;
- ok_frac: checked operations that passed over those attempted, which is
  1 - error_rate (error_rate itself is printed above the last line; the
  report carries no metric that reads 0).

With ``--trace 1`` runs alternate between traced and untraced, and the last
line reports the per-layer metrics of ``tracer.LAYER_METRICS`` from the
traced runs, their times calibrated as above.  Spans of the last traced
run are written to ``.perfbench/<workload>/spans.tsv``; the full results
of either mode go to ``.perfbench/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import in_child  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("values_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
WORKERS = 4  # fresh interpreters per run, so set-up is measured four times
RUN_LIMIT_S = 170.0  # every run of this script ends well inside 180 s
# numpy's BLAS may start a thread per core; one process with one thread
# (two in the m6 map) keeps the load on this few-core machine what it claims
SINGLE_THREADED_BLAS = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spawn(name: str, workdir: Path, seed: int, trace: bool, threads: int,
          deadline: float, timeout: float) -> dict:
    """Start one worker: a fresh interpreter that sets up once, then runs the
    workload in forked children until ``deadline``.  A crash or timeout of
    the worker is one failed operation."""
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREADED_BLAS)
    argv = [sys.executable, str(HERE / "worker.py"), name, str(workdir), str(seed)]
    # calibration slices just before the set-up; the worker times more
    # just after it, each in a forked child as the runs' slices are
    before = in_child(calibrate.slices, timeout)
    spawned_at = time.monotonic()
    argv += [repr(spawned_at), repr(deadline), "1" if trace else "0", str(threads)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its child
        out, err = proc.communicate()
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    runs = lines[1:]
    if proc.returncode != 0 or not runs:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        runs.append({"crashed": f"exit {proc.returncode}: {tail}", "attempted": 1,
                     "failed": ["worker"], "traced": False})
    setup = lines[0] if lines and "setup_s" in lines[0] else {}
    cal = [t for part in (before, setup.get("cal")) if isinstance(part, list) for t in part]
    return {"setup_s": setup.get("setup_s") if cal else None,
            "cal_s": statistics.median(cal) if cal else None, "runs": runs}


def measure(name: str, workdir: Path, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Start WORKERS workers one after another, each given an equal share of
    the time; together they run the workload until the time is used."""
    start = time.monotonic()
    workers = []
    for i in range(WORKERS):
        elapsed = time.monotonic() - start
        deadline = start + seconds * (i + 1) / WORKERS
        workers.append(spawn(name, workdir, seed, trace, 0, deadline,
                             max(5.0, RUN_LIMIT_S - elapsed)))
        for run in workers[-1]["runs"]:
            run["worker"] = i
        if time.monotonic() - start > RUN_LIMIT_S / 2:
            break  # a slow machine: keep the series within its time limit
    return workers


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten runs beyond it, if any."""
    if len(values) < 11:
        return f"no percentile has ten of {len(values)} runs beyond it"
    ordered = sorted(values)
    return f"p{100 * (len(values) - 10) / len(values):.0f} {ordered[-11]:.6g}"


def scaled(runs: list[dict], key: str) -> list[float]:
    """Each run's ``key`` time over its calibration slice, in reference seconds."""
    return [r[key] / r["cal_s"] * calibrate.REFERENCE_S for r in runs]


def summarize(workers: list[dict], trace: bool) -> tuple[dict, list[str]]:
    runs = [r for w in workers for r in w["runs"]]
    setups = [w for w in workers if w["setup_s"] is not None]
    ok = [r for r in runs if "crashed" not in r]
    plain = [r for r in ok if not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    lines = []
    for r in runs:
        if "crashed" in r:
            lines.append(f"worker crashed: {r['crashed']}")
        elif r["failed"]:
            lines.append(f"failed operations: {', '.join(r['failed'])}")
    if not plain or not setups:
        return {}, lines
    walls = scaled(plain, "wall_s")
    metrics = {
        "setup_s": statistics.median(scaled(setups, "setup_s")),
        "wall_s": statistics.median(walls),
        "values_per_s": statistics.median(plain[0]["values"] / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_frac": 1.0 - failed / attempted,
    }
    units = dict(END_TO_END)
    measured = {"setup_s": [w["setup_s"] for w in setups], "wall_s": [r["wall_s"] for r in plain]}
    for key, values in (("setup_s", scaled(setups, "setup_s")), ("wall_s", walls)):
        lines.append(f"{key:<13} {metrics[key]:.6g} s  median of {len(values)}; "
                     f"{tail_percentile(values)}; measured median "
                     f"{statistics.median(measured[key]):.6g} s")
    lines.append(f"{'values_per_s':<13} {metrics['values_per_s']:.6g} 1/s  "
                 f"{plain[0]['values']} values per pass")
    lines.append(f"{'peak_rss_mb':<13} {metrics['peak_rss_mb']:.6g} MB  median of {len(plain)}")
    lines.append(f"{'error_rate':<13} {failed / attempted:.6g}  "
                 f"{failed} of {attempted} checked operations failed")
    lines.append(f"{'ok_frac':<13} {metrics['ok_frac']:.6g} ratio")
    cals = [r["cal_s"] for r in plain]
    lines.append(f"calibration slice median {statistics.median(cals):.6g} s, "
                 f"from {min(cals):.6g} to {max(cals):.6g} s; reference {calibrate.REFERENCE_S} s")
    if not trace:
        return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, lines

    traced = [r for r in ok if r["traced"]]
    if not traced:
        return {}, lines
    layers = {}
    for key, unit in tracing.LAYER_METRICS:
        if key == "trace.overhead_frac":
            value = statistics.median(scaled(traced, "wall_s")) / metrics["wall_s"] - 1.0
        else:
            values = [r["layers"][key] * (calibrate.REFERENCE_S / r["cal_s"] if unit == "s" else 1)
                      for r in traced]
            if unit == "count" and len(set(values)) > 1:
                lines.append(f"count {key} differs between traced runs: {values}")
            value = statistics.median(values)
        layers[key] = {"value": value, "unit": unit}
        lines.append(f"{key:<46} {value:.6g} {unit}")
    for key, reason in traced[0]["absent"].items():
        lines.append(f"absent {key}: {reason}")
    lines.append(f"traced runs {len(traced)}, spans in the last {traced[-1]['spans']}")
    lines.append(f"{'trace.wall_s':<46} {statistics.median(scaled(traced, 'wall_s')):.6g} s"
                 f"  median of {len(traced)} traced runs")
    return layers, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "electodist" / "__init__.py").is_file():
        print(f"error: no electodist sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.generate(args.workload, args.seed, workdir)

    record = machine_record()
    record["load_before"] = os.getloadavg()
    workers = measure(args.workload, workdir, args.seed, args.seconds, bool(args.trace))
    record["load_after"] = os.getloadavg()
    metrics, lines = summarize(workers, bool(args.trace))
    runs = [r for w in workers for r in w["runs"]]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "machine": record, "setup_s": [w["setup_s"] for w in workers], "runs": runs,
         "result": result}, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in record.items()))
    for line in lines:
        print(line)
    if not metrics:
        print("error: no run completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
