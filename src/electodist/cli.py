"""Command-line interface.

Subcommands: generate, distance, census, correlate, map, verify-compass,
path, realizable.  Every command is deterministic given its flags and seed;
standard output stays machine-parseable and progress goes to standard error.
Exit code 0 means no errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .analysis import (
    borda_realizable,
    check_census_guard,
    compass_distance_formula,
    correlation,
    count_equivalence_classes,
    emdpos_intrinsic_path,
    l1pos_intrinsic_path,
    majority_realizable_bruteforce,
    recover_election,
)
from .cultures import CultureSpec, check_spec, sample_many
from .elections import (
    COMPASS_KINDS,
    Election,
    _check_compass,
    _check_natural,
    _check_positive,
    _content_lines,
    _integer_tokens,
    compass_election,
    parse_election,
    serialize_election,
)
from .mapping import EmbedConfig, distance_matrix, embed_all, export_map
from .metrics import METRIC_KINDS, check_guard, check_kind, distance, positionwise_distance

CENSUS_HEADER = "m,n,anecs,positionwise,pairwise,bordawise"
CORRELATION_HEADER = "kind_a,kind_b,pearson,spearman,pairs"
VERIFY_HEADER = "metric,pair,expected,computed,status"


@dataclass(frozen=True)
class ExperimentConfig:
    """One JSON experiment bundle: what to sample and what to compute."""

    m: int
    n: int
    dataset: tuple[tuple[CultureSpec, int], ...]
    compass: tuple[str, ...]
    metrics: tuple[str, ...]
    seed: int
    output: str

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        for key in ("m", "n"):
            if key not in obj:
                raise ValueError(f"config is missing required field {key!r}")
        m, n = obj["m"], obj["n"]
        _check_positive(m, n)
        dataset = []
        for entry in _typed(obj.get("dataset", []), list, "dataset", "a list"):
            _typed(entry, dict, "dataset entry", "an object")
            if "model" not in entry:
                raise ValueError(f"dataset entry {entry!r} has no model")
            params = _typed(entry.get("params", {}), dict, "dataset entry params", "an object")
            for key, value in params.items():
                _typed(value, (int, float, str), f"parameter {key!r}", "a number or a string")
            count = _typed(entry.get("count", 1), int, "dataset entry count", "an integer")
            if count < 1:
                raise ValueError(f"dataset entry count must be positive, got {count}")
            dataset.append((CultureSpec.from_json(entry), count))
        compass = _typed(obj.get("compass", []), list, "compass", "a list")
        for kind in compass:
            _check_compass(kind)
        if not dataset and not compass:
            raise ValueError("config needs a dataset or compass inclusions")
        metrics = _typed(obj.get("metrics", ["emdpos"]), list, "metrics", "a list")
        for kind in metrics:
            check_kind(kind)
        if not metrics:
            raise ValueError("config needs at least one metric")
        seed = _check_natural(obj.get("seed", 0), "seed")
        return cls(
            m=m,
            n=n,
            dataset=tuple(dataset),
            # a repeated compass kind or metric counts once, in order of
            # first mention
            compass=tuple(dict.fromkeys(compass)),
            metrics=tuple(dict.fromkeys(metrics)),
            seed=seed,
            output=_typed(obj.get("output", "electodist-out"), str, "output", "a string"),
        )


def _typed(value, types, name: str, expected: str):
    # JSON true and false load as bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Read the JSON config and apply command-line overrides."""
    obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    for field in ("m", "n", "seed", "output"):
        value = getattr(args, field, None)
        if value is not None:
            obj[field] = value
    return ExperimentConfig.from_json(obj)


def build_dataset(config: ExperimentConfig) -> tuple[list[str], list[Election], dict]:
    """Sample the configured dataset; labels are unique and deterministic.

    Returns (labels, elections, classes) where classes maps each label to
    its culture label or compass kind, for map coloring and manifests.
    """
    # every entry is checked, and every compass election built, before the
    # first draw
    for spec, _ in config.dataset:
        check_spec(spec)
    compass = [compass_election(kind, config.m, config.n) for kind in config.compass]
    labels: list[str] = []
    elections: list[Election] = []
    classes: dict[str, str] = {}
    offset = 0
    for spec, count in config.dataset:
        sampled = sample_many(spec, config.m, config.n, config.seed, count, start=offset)
        for i, e in enumerate(sampled):
            label = f"{spec.label()}-{offset + i}"
            labels.append(label)
            elections.append(e)
            classes[label] = spec.label()
        offset += count
    for kind, election in zip(config.compass, compass):
        labels.append(kind)
        elections.append(election)
        classes[kind] = kind
    return labels, elections, classes


def format_value(value) -> str:
    """Locale-independent number text; integral fractions print as integers."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def format_exact_or_bounds(value) -> str:
    if isinstance(value, tuple):
        return f"[{format_value(value[0])},{format_value(value[1])}]"
    return format_value(value)


def read_election_file(path: str) -> Election:
    return parse_election(Path(path).read_text(encoding="utf-8"))


def parse_matrix_file(path: str) -> list[list[int]]:
    """Whitespace-separated integer rows; '#' comments and blanks ignored."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [
        _integer_tokens(line.split(), f"matrix line {line!r}") for line in _content_lines(text)
    ]
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    return rows


def parse_int_list(text: str) -> list[int]:
    tokens = [tok for tok in text.split(",") if tok.strip() != ""]
    return _integer_tokens(tokens, f"list {text!r}")


def progress(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args)
    labels, elections, classes = build_dataset(config)
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for label, election in zip(labels, elections):
        filename = f"{label}.soc"
        (outdir / filename).write_text(serialize_election(election), encoding="utf-8")
        entries.append({"file": filename, "id": label, "class": classes[label]})
        print(str(outdir / filename))
    manifest = {
        "m": config.m,
        "n": config.n,
        "seed": config.seed,
        "elections": entries,
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(str(manifest_path))
    progress(f"wrote {len(entries)} elections to {outdir}")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    a = read_election_file(args.file_a)
    b = read_election_file(args.file_b)
    out = distance(a, b, args.metric)
    print(format_value(out.value))
    if args.witness:
        if out.candidate_matching is not None:
            print("candidates " + " ".join(str(c) for c in out.candidate_matching))
        if out.voter_matching is not None:
            print("voters " + " ".join(str(v) for v in out.voter_matching))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    ms = parse_int_list(args.m)
    ns = parse_int_list(args.n)
    if not ms or not ns:
        raise ValueError("census needs at least one m and one n")
    for m in ms:
        for n in ns:
            check_census_guard(m, n)
    print(CENSUS_HEADER)
    for m in ms:
        for n in ns:
            progress(f"census m={m} n={n}")
            print(count_equivalence_classes(m, n).to_csv_row())
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    config = load_config(args)
    if len(config.metrics) < 2:
        raise ValueError("correlation needs at least two metrics")
    if sum(count for _, count in config.dataset) + len(config.compass) < 2:
        raise ValueError("correlation needs at least two elections")
    for kind in config.metrics:
        check_guard(kind, config.m)
    _, elections, _ = build_dataset(config)
    # every report before the header: `correlation` builds each kind's
    # matrix once, and nothing is printed unless all of them were built
    reports = []
    for kind_a, kind_b in itertools.combinations(config.metrics, 2):
        progress(f"correlating {kind_a} with {kind_b} on {len(elections)} elections")
        reports.append(correlation(elections, kind_a, kind_b))
    print(CORRELATION_HEADER)
    for report in reports:
        print(report.to_csv_row())
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    config = load_config(args)
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"threads must be positive, got {args.threads}")
    # a guarded metric fails before any sampling, and sampling before any output
    for kind in config.metrics:
        check_guard(kind, config.m)
    labels, elections, classes = build_dataset(config)
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    matrices = []
    for kind in config.metrics:
        progress(f"{kind}: distance matrix on {len(elections)} elections")
        dm = distance_matrix(elections, kind, labels=labels)
        with (outdir / f"distances-{kind}.csv").open("w", encoding="utf-8") as fh:
            fh.write("id," + ",".join(labels) + "\n")
            for label, row in zip(labels, dm.cells):
                fh.write(label + "," + ",".join(repr(v) for v in row) + "\n")
        matrices.append(dm)
    # every metric's layout in one pass, whose spring phases move together
    progress(f"embedding {len(matrices)} layouts")
    embeddings = embed_all(matrices, EmbedConfig(seed=config.seed))
    for kind, emb in zip(config.metrics, embeddings):
        matrix_path = outdir / f"distances-{kind}.csv"
        csv_path = outdir / f"map-{kind}.csv"
        svg_path = outdir / f"map-{kind}.svg"
        export_map(emb, classes, "csv", path=csv_path)
        export_map(emb, classes, "svg", path=svg_path)
        for path in (matrix_path, csv_path, svg_path):
            print(str(path))
    return 0


def cmd_verify_compass(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    _check_positive(m, n)
    # compass formulas exist only for even m, so only then is any row computed
    if m % 2 == 0:
        for kind in METRIC_KINDS:
            check_guard(kind, m)
    print(VERIFY_HEADER)
    failures = 0
    for kind in METRIC_KINDS:
        for pair in itertools.combinations(COMPASS_KINDS, 2):
            pair_text = "-".join(pair)
            try:
                expected = compass_distance_formula(kind, pair, m, n)
            except ValueError as exc:
                progress(f"skip {kind} {pair_text}: {exc}")
                print(f"{kind},{pair_text},skipped,skipped,skip")
                continue
            a = compass_election(pair[0], m, n)
            b = compass_election(pair[1], m, n)
            computed = distance(a, b, kind).value
            if isinstance(expected, tuple):
                ok = expected[0] <= computed <= expected[1]
            else:
                ok = computed == expected
            if not ok:
                failures += 1
            print(
                f"{kind},{pair_text},{format_exact_or_bounds(expected)},"
                f"{format_value(computed)},{'pass' if ok else 'FAIL'}"
            )
    return 1 if failures else 0


def cmd_path(args: argparse.Namespace) -> int:
    a = read_election_file(args.file_a)
    b = read_election_file(args.file_b)
    builder = l1pos_intrinsic_path if args.metric == "l1pos" else emdpos_intrinsic_path
    variant = "L1" if args.metric == "l1pos" else "EMD"
    path = builder(a, b)
    print(f"steps {len(path.steps)}")
    print(f"step_distance {path.step_distance}")
    print(f"total {format_value(path.total)}")
    for idx, matrix in enumerate(path.steps):
        if idx == 0:
            print("step 0")
        else:
            gap = positionwise_distance(path.steps[idx - 1], matrix, variant).value
            print(f"step {idx} distance {format_value(gap)}")
        for row in matrix:
            print(" ".join(str(int(v)) for v in row))
    return 0


def print_witness(witness: Optional[Election]) -> int:
    if witness is None:
        print("none")
    else:
        sys.stdout.write(serialize_election(witness))
    return 0


def cmd_realizable(args: argparse.Namespace) -> int:
    if args.representation == "borda":
        if args.scores is None or args.n is None:
            raise ValueError("borda needs --scores and --n")
        return print_witness(borda_realizable(parse_int_list(args.scores), args.n))
    if args.representation == "majority":
        if args.file is None or args.n is None:
            raise ValueError("majority needs --file and --n")
        matrix = parse_matrix_file(args.file)
        return print_witness(majority_realizable_bruteforce(matrix, args.n))
    # position matrices with equal margins always decompose, so failures
    # here are malformed inputs and surface as error exits
    if args.file is None:
        raise ValueError("position needs --file")
    return print_witness(recover_election(parse_matrix_file(args.file)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="electodist",
        description="Distances between ordinal elections: generation, "
        "metrics, census, correlation, maps, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--m", type=int, default=None, help="override config m")
        p.add_argument("--n", type=int, default=None, help="override config n")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--output", default=None, help="override config output dir")

    p = sub.add_parser("generate", help="sample elections to files plus a manifest")
    add_config(p)

    p = sub.add_parser("distance", help="distance between two election files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", required=True, choices=METRIC_KINDS)
    p.add_argument("--witness", action="store_true", help="also print matchings")

    p = sub.add_parser("census", help="equivalence-class counts as CSV")
    p.add_argument("--m", required=True, help="comma-separated candidate counts")
    p.add_argument("--n", required=True, help="comma-separated voter counts")

    p = sub.add_parser("correlate", help="metric correlations on a sampled dataset")
    add_config(p)

    p = sub.add_parser("map", help="distance matrices and 2-D maps for a dataset")
    add_config(p)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="deprecated, accepted and ignored if positive; "
        "matrices are computed sequentially",
    )

    p = sub.add_parser(
        "verify-compass", help="check computed compass distances against formulas"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("path", help="intrinsic unit path between two elections")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", required=True, choices=("l1pos", "emdpos"))

    p = sub.add_parser("realizable", help="find an election with given statistics")
    p.add_argument("representation", choices=("borda", "majority", "position"))
    p.add_argument("--scores", default=None, help="comma-separated Borda scores")
    p.add_argument("--file", default=None, help="matrix file (integer rows)")
    p.add_argument("--n", type=int, default=None, help="voter count")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call and reused by every later one
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, not bound into the cached tree, so a cmd_*
    # function patched after the first call is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
