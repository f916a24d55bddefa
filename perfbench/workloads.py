"""The two workloads: input generation, the timed calls, and output checks.

Each workload is one closed-loop client in one process: it makes the calls
of the paper's experiments back to back, each after the previous returned.
The inputs come from the seed alone; the program sees only the generated
files.  Every checked operation yields one output, as bytes, or None when
it raised or exited nonzero.

- maps: two ``electodist map`` runs, the paper's map experiment at two
  scales.  Part m6 takes all six metrics at m=6, n=12 on six cultures plus
  the compass, on two worker threads: exact searches (swap, pairwise)
  dominate, and it is the only part that runs the worker pool of
  ``distance_matrix``.  Part m10 takes the three polynomial metrics at
  m=10, n=100 on all thirteen cultures plus the compass, sequentially:
  sampling, aggregates, assignment and embedding dominate and the search
  layer does nothing.  The seed samples the m10 elections; the m6
  elections are always those of the default seed, because how much of
  m!=720 the swap search examines differs up to 2.5-fold between samples
  of six elections, and the benchmark compares times across seeds.
- pairs: the calls that do not build a distance matrix.  ``electodist
  census --m 3,4 --n 3,4``; the correlation of swap with the five other
  metrics on ANECs of m=4, n=3 (many tiny calls, so per-call overhead
  dominates); and ``electodist distance --witness`` for all six metrics on
  the three pairs of three elections at m=8, n=8 (single pairs, with lexmin
  witnesses printed).  The seed picks the ANECs and reorders their voters,
  and reorders the voters of the three fixed elections; it renames no
  candidates, because that changes the order in which the searches meet
  their optimum and so their work (by up to a third between seeds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

METRIC_KINDS = ("swap", "discrete", "emdpos", "l1pos", "pairwise", "bordawise")
POLYNOMIAL_KINDS = ("emdpos", "l1pos", "bordawise")

CULTURES = (
    {"model": "IC"},
    {"model": "Urn", "params": {"alpha": "gamma"}},
    {"model": "Mallows", "params": {"phi": "norm-uniform"}},
    {"model": "SPWalsh"},
    {"model": "SPConitzer"},
    {"model": "SPOC"},
    {"model": "SingleCrossing"},
    {"model": "Euclidean", "params": {"shape": "interval_1d"}},
    {"model": "Euclidean", "params": {"shape": "sphere_2d"}},
    {"model": "Euclidean", "params": {"shape": "disc_2d"}},
    {"model": "Euclidean", "params": {"shape": "cube_3d"}},
    {"model": "GroupSeparable", "params": {"tree": "balanced"}},
    {"model": "GroupSeparable", "params": {"tree": "caterpillar"}},
)

# One election per culture.  The m6 part samples six of the cultures, one
# of each kind of structure, so that a run of both parts takes about two
# seconds and a run of the benchmark holds many.
MAP_PARTS = {
    "m6": {"m": 6, "n": 12, "cultures": tuple(CULTURES[i] for i in (0, 1, 2, 4, 9, 12)),
           "metrics": METRIC_KINDS, "threads": 2, "fixed": True},
    "m10": {"m": 10, "n": 100, "cultures": CULTURES, "metrics": POLYNOMIAL_KINDS,
            "threads": 1, "fixed": False},
}
COMPASS = ["ID", "AN"]

# n=5 is left out: its m=4 row takes about 1.3 s of the 1.7 s census on a
# 2-vCPU Xeon VM, and a shorter run of the workload gives the benchmark
# more runs to take the median of
CENSUS_M, CENSUS_N = (3, 4), (3, 4)
CENSUS_ARGS = ["census", "--m", "3,4", "--n", "3,4"]
CENSUS_ROWS = (
    "3,3,10,10,8,8",
    "3,4,24,23,17,13",
    "4,3,111,93,50,37",
    "4,4,762,465,200,76",
)
CORR_M, CORR_N, CORR_SIZE = 4, 3, 20

# Witness pairs: every pair of these cultures, one election each.
WITNESS_M, WITNESS_N = 8, 8
WITNESS_CULTURES = (
    {"model": "IC"},
    {"model": "SPConitzer"},
    {"model": "Euclidean", "params": {"shape": "disc_2d"}},
)

WORKLOADS = ("maps", "pairs")
DEFAULT_SEED = 2026


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- inputs (generated by the benchmark process) --------------------------


def generate(name: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "maps":
        for part, spec in MAP_PARTS.items():
            config = {
                "m": spec["m"],
                "n": spec["n"],
                "seed": DEFAULT_SEED if spec["fixed"] else seed,
                "dataset": [dict(c, count=1) for c in spec["cultures"]],
                "compass": COMPASS,
                "metrics": list(spec["metrics"]),
            }
            (workdir / f"config-{part}.json").write_text(json.dumps(config, indent=1) + "\n")
    elif name == "pairs":
        from electodist import (CultureSpec, apply_matchings, enumerate_anecs, sample,
                                serialize_election)

        rng = np.random.default_rng(seed)
        anecs = list(enumerate_anecs(CORR_M, CORR_N))
        chosen = sorted(rng.choice(len(anecs), CORR_SIZE, replace=False).tolist())
        # each class representative has its voters reordered, which no
        # metric and no search order depends on
        elections = [
            apply_matchings(anecs[i], range(CORR_M), rng.permutation(CORR_N))
            for i in chosen
        ]
        (workdir / "anecs.json").write_text(
            json.dumps([[list(v) for v in e.votes] for e in elections]) + "\n"
        )
        # fixed elections, their voters reordered by the seed: the
        # distances and the searches' work stay, the voter witnesses change
        for i, culture in enumerate(WITNESS_CULTURES):
            election = sample(
                CultureSpec.from_json(culture), WITNESS_M, WITNESS_N,
                np.random.SeedSequence(DEFAULT_SEED, spawn_key=(i,)),
            )
            election = apply_matchings(
                election, range(WITNESS_M), rng.permutation(WITNESS_N)
            )
            (workdir / f"e{i}.soc").write_text(serialize_election(election))
    else:
        raise ValueError(f"unknown workload {name!r}")


# -- set-up and timed calls (in the measured process) ---------------------


def load(name: str, workdir: Path, threads: int | None):
    """Build what the timed calls need; runs before the timer starts.

    ``threads`` overrides the m6 part's worker count when given.
    """
    if name == "maps":
        from electodist import CultureSpec

        parts = {}
        for part, spec in MAP_PARTS.items():
            labels = [
                f"{CultureSpec.from_json(c).label()}-{i}" for i, c in enumerate(spec["cultures"])
            ] + COMPASS
            count = spec["threads"] if threads is None else min(threads, spec["threads"])
            argv = ["map", "--config", str(workdir / f"config-{part}.json"),
                    "--output", str(workdir / "out" / part), "--threads", str(count)]
            parts[part] = {"argv": argv, "labels": labels, "out": workdir / "out" / part}
        return parts
    if name == "pairs":
        from electodist import Election

        votes = json.loads((workdir / "anecs.json").read_text())
        files = [str(workdir / f"e{i}.soc") for i in range(len(WITNESS_CULTURES))]
        return {"elections": [Election(CORR_M, v) for v in votes], "files": files,
                "votes": [_read_votes(f) for f in files]}
    raise ValueError(f"unknown workload {name!r}")


def _pair_count(k: int) -> int:
    return k * (k - 1) // 2


def correlation_values(name: str, inputs) -> int:
    """Distinct (pair, metric) values the workload's correlations deliver."""
    if name != "pairs":
        return 0
    return _pair_count(len(inputs["elections"])) * len(METRIC_KINDS)


def values_delivered(name: str, inputs) -> int:
    """Distinct (pair, metric) distance values one run of the workload gives."""
    if name == "maps":
        return sum(_pair_count(len(inputs[part]["labels"])) * len(spec["metrics"])
                   for part, spec in MAP_PARTS.items())
    witness = _pair_count(len(inputs["files"])) * len(METRIC_KINDS)
    return correlation_values(name, inputs) + witness


def _cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run(name: str, inputs) -> dict[str, bytes | None]:
    """The timed calls.  Returns the raw output of every checked operation."""
    from electodist import cli

    outputs: dict[str, bytes | None] = {}
    if name == "maps":
        for part, spec in MAP_PARTS.items():
            try:
                code, _ = _cli(cli, inputs[part]["argv"])
            except Exception:  # a crash fails every unit of the part
                code = None
            for kind in spec["metrics"]:
                for unit in _map_units(kind):
                    path = inputs[part]["out"] / unit
                    data = path.read_bytes() if code == 0 and path.exists() else None
                    outputs[f"{part}/{unit}"] = data
        return outputs

    from electodist import correlation

    try:
        code, text = _cli(cli, CENSUS_ARGS)
        rows = text.splitlines()[1:] if code == 0 else []
    except Exception:
        rows = []
    for i, (m, n) in enumerate(itertools.product(CENSUS_M, CENSUS_N)):
        outputs[f"census-m{m}-n{n}"] = rows[i].encode() if i < len(rows) else None
    for kind in METRIC_KINDS[1:]:
        unit = f"corr-swap-{kind}"
        try:
            row = correlation(inputs["elections"], "swap", kind).to_csv_row()
            outputs[unit] = row.encode()
        except Exception:
            outputs[unit] = None
    files = inputs["files"]
    for i, j in itertools.combinations(range(len(files)), 2):
        for kind in METRIC_KINDS:
            unit = f"e{i}-e{j}-{kind}"
            try:
                code, text = _cli(cli, ["distance", files[i], files[j],
                                        "--metric", kind, "--witness"])
            except Exception:
                code = None
            outputs[unit] = text.encode() if code == 0 else None
    return outputs


def _map_units(kind: str) -> tuple[str, str, str]:
    return (f"distances-{kind}.csv", f"map-{kind}.csv", f"map-{kind}.svg")


# -- checks (after the timer stops) ----------------------------------------


def check(name: str, inputs, outputs, references: dict[str, str] | None) -> list[str]:
    """Names of the checked operations whose output is wrong.

    With references (the default seed), every output must match its
    recorded sha256 digest.  For any seed the cheap invariants hold too.
    """
    failed = []
    for unit, data in outputs.items():
        ok = data is not None
        if ok and references is not None:
            ok = references.get(unit) == digest(data)
        if ok:
            try:
                ok = _invariant(name, inputs, unit, data.decode())
            except (ValueError, IndexError, KeyError, ZeroDivisionError):
                ok = False
        if not ok:
            failed.append(unit)
    return failed


def _invariant(name: str, inputs, unit: str, text: str) -> bool:
    if name == "maps":
        part, file = unit.split("/")
        return _map_invariant(MAP_PARTS[part], inputs[part]["labels"], file, text)
    if unit.startswith("census-"):
        m, n = (int(p[1:]) for p in unit.split("-")[1:])
        return text in CENSUS_ROWS and text.startswith(f"{m},{n},")
    if unit.startswith("corr-"):
        kind_a, kind_b, pearson, spearman, pairs = text.split(",")
        return (f"corr-{kind_a}-{kind_b}" == unit
                and int(pairs) == _pair_count(len(inputs["elections"]))
                and math.isfinite(float(pearson)) and math.isfinite(float(spearman)))
    i, j, kind = unit.split("-")
    a = inputs["votes"][int(i[1:])]
    b = inputs["votes"][int(j[1:])]
    return _witness_holds(kind, a, b, text)


# Closed-form distance between the compass elections ID and AN.
def _id_an(kind: str, m: int, n: int) -> Fraction:
    return {
        "swap": Fraction(n * (m * m - m), 4),
        "discrete": Fraction(n, 2),
        "emdpos": Fraction(n * m * m, 4),
        "l1pos": Fraction(n * m),
        "pairwise": Fraction(n * (m * m - m), 2),
        "bordawise": Fraction(n * (m**3 - m), 12),
    }[kind]


def _map_invariant(spec: dict, labels: list[str], unit: str, text: str) -> bool:
    lines = text.splitlines()
    kind = unit.split("-", 1)[1].rsplit(".", 1)[0]
    if unit.startswith("distances-"):
        if lines[0] != "id," + ",".join(labels):
            return False
        cells = np.array([[_cell(v) for v in line.split(",")[1:]] for line in lines[1:]])
        if cells.shape != (len(labels), len(labels)) or [
            line.split(",", 1)[0] for line in lines[1:]
        ] != labels:
            return False
        i, j = labels.index("ID"), labels.index("AN")
        return (np.array_equal(cells, cells.T) and not np.diag(cells).any()
                and cells[i, j] == float(_id_an(kind, spec["m"], spec["n"])))
    if unit.endswith(".csv"):
        rows = [line.split(",") for line in lines[1:]]
        return (lines[0] == "id,x,y,class" and [r[0] for r in rows] == labels
                and all(0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0 for r in rows))
    return (lines[0].startswith("<svg") and lines[-1] == "</svg>"
            and text.count("<title>") == len(labels))


def _cell(text: str) -> float:
    # under numpy 2 the program writes cells as repr(np.float64), for
    # example "np.float64(12.0)"; the value inside is what is checked
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_votes(path: str) -> np.ndarray:
    lines = Path(path).read_text().split("\n")
    return np.array([[int(t) for t in line.split()] for line in lines[1:] if line.strip()])


def _positions(votes: np.ndarray) -> np.ndarray:
    # pos[v, c] = position of candidate c in vote v
    pos = np.empty_like(votes)
    pos[np.arange(len(votes))[:, None], votes] = np.arange(votes.shape[1])
    return pos


def _position_matrix(votes: np.ndarray) -> np.ndarray:
    m = votes.shape[1]
    return np.stack([np.bincount(col, minlength=m) for col in _positions(votes).T], axis=1)


def _majority(votes: np.ndarray) -> np.ndarray:
    pos = _positions(votes)
    return (pos[:, :, None] < pos[:, None, :]).sum(axis=0)


def _witness_holds(kind: str, a: np.ndarray, b: np.ndarray, text: str) -> bool:
    """The printed matchings achieve the printed value (not that it is least)."""
    lines = text.splitlines()
    value = Fraction(lines[0])
    fields = {line.split()[0]: [int(t) for t in line.split()[1:]] for line in lines[1:]}
    n, m = a.shape
    if kind == "bordawise":
        borda = lambda v: np.sort((m - 1 - _positions(v)).sum(axis=0))[::-1]
        return len(lines) == 1 and value == np.abs(np.cumsum(borda(a) - borda(b))).sum()
    sigma = np.array(fields["candidates"])
    if sorted(sigma.tolist()) != list(range(m)):
        return False
    if kind in ("swap", "discrete"):
        rho = np.array(fields["voters"])
        if sorted(rho.tolist()) != list(range(n)):
            return False
        relabeled, matched = sigma[a], b[rho]
        if kind == "discrete":
            return value == int((relabeled != matched).any(axis=1).sum())
        pa, pb = _positions(relabeled), _positions(matched)
        inversions = ((pa[:, :, None] < pa[:, None, :]) & (pb[:, :, None] > pb[:, None, :]))
        return value == int(inversions.sum())
    if kind == "pairwise":
        ma, mb = _majority(a), _majority(b)
        return value == int(np.abs(ma - mb[sigma[:, None], sigma[None, :]]).sum())
    pa, pb = _position_matrix(a), _position_matrix(b)[:, sigma]
    if kind == "emdpos":
        return value == int(np.abs(np.cumsum(pa - pb, axis=0)).sum())
    return value == int(np.abs(pa - pb).sum())
