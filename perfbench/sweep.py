"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads maps,pairs]
        [--seconds 55] [--trace 0] [--out FILE]

For every workload and every listed seed (a comma list of seeds and
ranges; a seed may repeat), runs ``run.py`` once and reads its last line.
Prints, per metric, the median of the values and the distance between the
first and third quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  Traced sweeps also say
whether every count repeated exactly between runs of the same seed.  With
``--out`` the results, with the machine record of every run, are written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [k for k, unit in tracing.LAYER_METRICS if unit == "count"]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {}
    for name in args.workloads.split(","):
        results, runs = [], []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            run = json.loads((ROOT / ".perfbench" / name / "result.json").read_text())
            for r in run["runs"]:
                r.pop("digests", None)
            runs.append(run)
            shown = list(results[-1]["metrics"].items())[:5]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in shown), flush=True)
        metrics = {k: spread([r["metrics"][k]["value"] for r in results])
                   for k in results[0]["metrics"]}
        failed = sum(r["failed"] for r in results)
        print(f"== {name}: {failed} failed of {sum(r['attempted'] for r in results)}")
        for key, s in metrics.items():
            print(f"   {key:<46} median {s['median']:.6g}  iqr/median {s['iqr_frac']:.4f}")
        report[name] = {"metrics": metrics, "runs": runs}
        if args.trace:
            by_seed = {}
            for seed, r in zip(args.seeds, results):
                by_seed.setdefault(seed, []).append([r["metrics"][k]["value"] for k in COUNTS])
            repeat = all(all(c == counts[0] for c in counts) for counts in by_seed.values())
            report[name]["counts_repeat"] = repeat
            print(f"   counts repeat exactly between runs of a seed: {repeat}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
