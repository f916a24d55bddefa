from __future__ import annotations

import importlib.machinery
import itertools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import electodist
from electodist import (
    borda_vector,
    correlation,
    majority_matrix,
    parse_election,
    serialize_election,
)
from electodist import analysis, cli, cultures, mapping
from electodist.cli import ExperimentConfig, build_dataset, main

from conftest import SMALL_A, SMALL_B
from _oracles import per_layout, single_layout_descent_tail, single_layout_spring_phase


@pytest.fixture
def pair_files(tmp_path):
    a = tmp_path / "a.soc"
    b = tmp_path / "b.soc"
    a.write_text(serialize_election(SMALL_A), encoding="utf-8")
    b.write_text(serialize_election(SMALL_B), encoding="utf-8")
    return str(a), str(b)


def write_config(tmp_path, **overrides):
    cfg = {
        "m": 3,
        "n": 6,
        "seed": 11,
        "output": str(tmp_path / "out"),
        "dataset": [
            {"model": "IC", "count": 2},
            {"model": "Mallows", "params": {"phi": 0.2}, "count": 2},
        ],
        "compass": ["ID", "UN", "AN"],
        "metrics": ["emdpos", "discrete"],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# start-up

def run_python(code, *args):
    src = str(Path(electodist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_distance_run_loads_no_scipy_package_and_no_xml(pair_files):
    # scipy.optimize took about 0.5 s and scipy.stats about 0.7 s to import;
    # the solver is one compiled extension, and SVG escaping needs only html
    probe = (
        "import sys, electodist, electodist.cli; "
        "code = electodist.cli.main(sys.argv[1:]); "
        "print(code, [m for m in ('scipy.optimize', 'scipy.stats', 'xml.sax') "
        "if m in sys.modules])"
    )
    a, b = pair_files
    out = run_python(probe, "distance", a, b, "--metric", "emdpos", "--witness")
    assert out == "2\ncandidates 1 0 2\n0 []\n"


def test_the_solver_is_scipy_optimize_own_function():
    probe = (
        "import electodist, scipy.optimize; "
        "print(electodist.metrics.linear_sum_assignment "
        "is scipy.optimize.linear_sum_assignment); "
        "import scipy.optimize._lsap; "
        "print(scipy.optimize._lsap.linear_sum_assignment "
        "is scipy.optimize.linear_sum_assignment)"
    )
    # left in sys.modules, the extension would never become an attribute of
    # the package, and the last line would raise AttributeError
    assert run_python(probe) == "True\nTrue\n"
    # imported first, scipy.optimize is used as it is and keeps its entries
    probe = (
        "import sys, scipy.optimize, electodist; "
        "print(electodist.metrics.linear_sum_assignment "
        "is scipy.optimize.linear_sum_assignment, "
        "sys.modules['scipy.optimize._lsap'] is scipy.optimize._lsap)"
    )
    assert run_python(probe) == "True True\n"


def test_the_solver_falls_back_to_scipy_optimize(tmp_path):
    probe = textwrap.dedent(
        """
        import sys
        from unittest import mock
        from electodist import metrics
        assert "scipy.optimize" not in sys.modules
        spec = mock.Mock(submodule_search_locations=[sys.argv[1]])
        with mock.patch("importlib.util.find_spec", return_value=spec):
            solver = metrics._load_assignment_solver()
        print("scipy.optimize" in sys.modules, solver is metrics.linear_sum_assignment)
        """
    )
    # a scipy directory with no _lsap file, then one whose _lsap does not load
    (tmp_path / "optimize").mkdir()
    assert run_python(probe, str(tmp_path)) == "True True\n"
    bogus = tmp_path / "optimize" / f"_lsap{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    bogus.write_bytes(b"not an extension")
    assert run_python(probe, str(tmp_path)) == "True True\n"


def test_main_builds_the_parser_once(pair_files, capsys):
    a, b = pair_files
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        first = run(capsys, ["distance", a, b, "--metric", "bordawise"])
        second = run(capsys, ["distance", a, b, "--metric", "swap", "--witness"])
    assert built.call_count == 1
    assert first == (0, "1\n", "")
    assert second[0] == 0
    assert [line.split()[0] for line in second[1].splitlines()] == ["1", "candidates", "voters"]
    # the cached parser names commands; main looks the function up per call
    with mock.patch.object(cli, "cmd_census", return_value=0) as census:
        assert main(["census", "--m", "3", "--n", "3"]) == 0
    assert census.call_count == 1


# distance

def test_distance_prints_single_number(pair_files, capsys):
    a, b = pair_files
    code, out, _ = run(capsys, ["distance", a, b, "--metric", "bordawise"])
    assert code == 0
    assert out == "1\n"


def test_distance_identical_files(pair_files, capsys):
    a, _ = pair_files
    code, out, _ = run(capsys, ["distance", a, a, "--metric", "swap"])
    assert code == 0
    assert out == "0\n"


def test_distance_witness_lines(pair_files, capsys):
    a, b = pair_files
    code, out, _ = run(capsys, ["distance", a, b, "--metric", "swap", "--witness"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[1].startswith("candidates ")
    assert lines[2].startswith("voters ")


def test_distance_mismatched_sizes(pair_files, tmp_path, capsys):
    a, _ = pair_files
    tiny = tmp_path / "tiny.soc"
    tiny.write_text("2 2\n0 1\n1 0\n", encoding="utf-8")
    code, _, err = run(capsys, ["distance", a, str(tiny), "--metric", "swap"])
    assert code == 2
    assert "error:" in err


def test_discrete_witness_past_int64_codes(tmp_path, capsys):
    # at m = 16 the relabeling codes pass int64 (16**16 > 2**63) and run on
    # Python ints; the CI step of the installed entry point prints the same
    ident, swapped = list(range(16)), [1, 0, *range(2, 16)]
    turned = ident[5:] + ident[:5]
    votes = {"a": [ident, ident[::-1], turned, ident],
             "b": [ident[::-1], swapped, turned[::-1], ident[::-1]]}
    for name, rows in votes.items():
        lines = ["16 4", *(" ".join(map(str, v)) for v in rows)]
        (tmp_path / f"{name}.soc").write_text("\n".join(lines) + "\n", encoding="utf-8")
    a, b = str(tmp_path / "a.soc"), str(tmp_path / "b.soc")
    code, out, _ = run(capsys, ["distance", a, b, "--metric", "discrete", "--witness"])
    assert code == 0
    assert out == "2\ncandidates 4 3 2 1 0 15 14 13 12 11 10 9 8 7 6 5\nvoters 2 1 0 3\n"


# census

def test_census_known_row(capsys):
    code, out, _ = run(capsys, ["census", "--m", "3", "--n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,anecs,positionwise,pairwise,bordawise"
    assert lines[1] == "3,3,10,10,8,8"


def test_census_multiple_sizes(capsys):
    code, out, _ = run(capsys, ["census", "--m", "3", "--n", "3,4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "3,3,10,10,8,8"
    assert lines[2] == "3,4,24,23,17,13"


@pytest.mark.parametrize(
    "vote, message",
    [
        ("0 0 1", "vote (0, 0, 1) is not a permutation of 0..2"),
        ("0 1", "vote (0, 1) has length 2, expected 3"),
    ],
    ids=["repeated-candidate", "short-vote"],
)
def test_distance_rejects_a_malformed_vote_file(tmp_path, capsys, pair_files, vote, message):
    bad = tmp_path / "bad.soc"
    bad.write_text(f"3 2\n0 1 2\n{vote}\n", encoding="utf-8")
    code, out, err = run(capsys, ["distance", str(bad), pair_files[0], "--metric", "swap"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_census_guard(capsys):
    code, _, err = run(capsys, ["census", "--m", "9", "--n", "3"])
    assert code == 2
    assert "guard" in err


def test_census_checks_every_shape_before_output(capsys):
    code, out, err = run(capsys, ["census", "--m", "3,5", "--n", "3"])
    assert code == 2
    assert out == ""
    assert err == "error: census guarded at m <= 4 and n <= 6 (got m=5, n=3)\n"


# generate

def test_generate_writes_files_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(capsys, ["generate", "--config", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["elections"]) == 7
    assert manifest["seed"] == 11
    for entry in manifest["elections"]:
        election = parse_election((outdir / entry["file"]).read_text(encoding="utf-8"))
        assert (election.m, election.n) == (3, 6)
    assert str(outdir / "manifest.json") in out


def test_generate_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)

    def snapshot(dirname):
        code, _, _ = run(
            capsys, ["generate", "--config", str(cfg), "--output", str(tmp_path / dirname)]
        )
        assert code == 0
        d = tmp_path / dirname
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != "manifest.json"}

    assert snapshot("run1") == snapshot("run2")


def test_generate_seed_changes_samples(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run(capsys, ["generate", "--config", str(cfg), "--output", str(tmp_path / "s11")])
    run(
        capsys,
        ["generate", "--config", str(cfg), "--seed", "12", "--output", str(tmp_path / "s12")],
    )
    first = (tmp_path / "s11" / "IC-0.soc").read_bytes()
    second = (tmp_path / "s12" / "IC-0.soc").read_bytes()
    compass = (tmp_path / "s11" / "ID.soc").read_bytes()
    assert first != second
    assert compass == (tmp_path / "s12" / "ID.soc").read_bytes()


def test_generate_invalid_model(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset=[{"model": "Zipf", "count": 1}])
    code, _, err = run(capsys, ["generate", "--config", str(cfg)])
    assert code == 2
    assert "Zipf" in err


@pytest.mark.parametrize("alpha, token", [(float("inf"), "Infinity"), (float("nan"), "NaN")])
def test_generate_rejects_a_non_finite_urn_alpha(tmp_path, capsys, alpha, token):
    # JSON's Infinity and NaN load as floats
    cfg = write_config(tmp_path, dataset=[{"model": "Urn", "params": {"alpha": alpha}, "count": 1}])
    assert f'"alpha": {token}' in cfg.read_text(encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"error: urn alpha must be finite, got {alpha}\n"
    assert not (tmp_path / "out").exists()


def test_config_validation_errors(tmp_path, capsys):
    for overrides in (
        {"dataset": [], "compass": []},
        {"metrics": ["taxicab"]},
        {"compass": ["NORTH"]},
        {"dataset": [{"model": "IC", "count": 0}]},
    ):
        cfg = write_config(tmp_path, **overrides)
        code, _, err = run(capsys, ["generate", "--config", str(cfg)])
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dataset": [5]}, "dataset entry must be an object, got 5"),
        ({"m": None}, "m must be an integer, got None"),
        ({"n": 6.0}, "n must be an integer, got 6.0"),
        ({"seed": "11"}, "seed must be an integer, got '11'"),
        ({"dataset": {"model": "IC"}}, "dataset must be a list, got {'model': 'IC'}"),
        ({"dataset": [{"model": "IC", "params": [1]}]}, "dataset entry params must be an object, got [1]"),
        ({"dataset": [{"model": "IC", "count": True}]}, "dataset entry count must be an integer, got True"),
        (
            {"dataset": [{"model": "Mallows", "params": {"phi": [1]}}]},
            "parameter 'phi' must be a number or a string, got [1]",
        ),
        ({"compass": 5}, "compass must be a list, got 5"),
        ({"metrics": 5}, "metrics must be a list, got 5"),
        ({"output": None}, "output must be a string, got None"),
    ],
    ids=[
        "entry", "m", "n", "seed", "dataset", "params", "count", "param-value", "compass",
        "metrics", "output",
    ],
)
def test_config_json_types_are_checked(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, ["map", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def config_without_m(tmp_path):
    cfg = write_config(tmp_path)
    obj = json.loads(cfg.read_text(encoding="utf-8"))
    del obj["m"]
    return write_text(tmp_path, "config.json", json.dumps(obj))


# each error branch of the CLI's input checks: (argv given tmp_path, message)
ERROR_BRANCHES = {
    "config-list": (
        lambda t: ["map", "--config", write_text(t, "config.json", "[]")],
        "config must be a JSON object",
    ),
    "config-no-m": (
        lambda t: ["map", "--config", config_without_m(t)],
        "config is missing required field 'm'",
    ),
    "config-m-zero": (
        lambda t: ["map", "--config", str(write_config(t, m=0))],
        "need m >= 1 and n >= 1, got m=0, n=6",
    ),
    "config-entry-no-model": (
        lambda t: ["map", "--config", str(write_config(t, dataset=[{"count": 2}]))],
        "dataset entry {'count': 2} has no model",
    ),
    "config-no-metrics": (
        lambda t: ["map", "--config", str(write_config(t, metrics=[]))],
        "config needs at least one metric",
    ),
    "empty-matrix-file": (
        lambda t: ["realizable", "position", "--file", write_text(t, "pos.txt", "# none\n\n")],
        "no matrix rows found in {tmp}/pos.txt",
    ),
    "position-ragged-rows": (
        lambda t: ["realizable", "position", "--file", write_text(t, "pos.txt", "1 0\n0\n")],
        "position matrix must be square, got rows of lengths [2, 1]",
    ),
    "majority-ragged-rows": (
        lambda t: [
            "realizable", "majority", "--n", "1", "--file", write_text(t, "maj.txt", "0 1\n0\n")
        ],
        "majority matrix must be square, got rows of lengths [2, 1]",
    ),
    "census-no-m": (
        lambda t: ["census", "--m", ",", "--n", "3"],
        "census needs at least one m and one n",
    ),
    "position-non-integer": (
        lambda t: ["realizable", "position", "--file", write_text(t, "pos.txt", "1 x\n0 1\n")],
        "non-integer token in matrix line '1 x'",
    ),
    "borda-non-integer": (
        lambda t: ["realizable", "borda", "--scores", "1,x", "--n", "2"],
        "non-integer token in list '1,x'",
    ),
    "census-non-integer": (
        lambda t: ["census", "--m", "3,x", "--n", "3"],
        "non-integer token in list '3,x'",
    ),
    "majority-no-file": (
        lambda t: ["realizable", "majority", "--n", "3"],
        "majority needs --file and --n",
    ),
    "position-no-file": (
        lambda t: ["realizable", "position"],
        "position needs --file",
    ),
}


@pytest.mark.parametrize("argv, message", ERROR_BRANCHES.values(), ids=ERROR_BRANCHES.keys())
def test_error_branches_print_one_line(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"dataset": [{"model": "IC", "count": 2}, {"model": "Urn", "params": {"alpha": 1, "beta": 2}}]},
            "unexpected parameters for Urn: ['beta']",
        ),
        ({"n": 4}, "compass election requires m! = 6 divides n (got n=4)"),
        (
            {"dataset": [{"model": "IC", "count": 2}, {"model": "Urn", "params": {"alpha": -1}}]},
            "urn alpha must be nonnegative, got -1.0",
        ),
        (
            {"dataset": [{"model": "IC", "count": 2}, {"model": "Mallows", "params": {"phi": 1.5}}]},
            "mallows phi must lie in [0, 1], got 1.5",
        ),
        (
            {"dataset": [{"model": "IC", "count": 2}, {"model": "Euclidean", "params": {"shape": "cube_4d"}}]},
            "unknown shape 'cube_4d', expected one of "
            "('interval_1d', 'sphere_2d', 'disc_2d', 'cube_3d')",
        ),
        (
            {"dataset": [{"model": "IC", "count": 2}, {"model": "GroupSeparable", "params": {"tree": "tall"}}]},
            "unknown tree 'tall', expected one of ('balanced', 'caterpillar')",
        ),
    ],
    ids=["culture", "compass", "urn-alpha", "mallows-phi", "euclidean-shape", "group-separable-tree"],
)
def test_build_dataset_checks_every_entry_before_the_first_draw(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    with mock.patch.object(cultures, "sample") as sample:
        code, out, err = run(capsys, ["map", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert sample.call_count == 0
    assert not (tmp_path / "out").exists()


def test_format_value():
    assert cli.format_value(Fraction(3, 2)) == "3/2"
    assert cli.format_value(Fraction(4, 2)) == "2"
    assert cli.format_value(7) == "7"


# correlate

def test_correlate_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos", "discrete", "bordawise"])
    code, out, _ = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind_a,kind_b,pearson,spearman,pairs"
    assert len(lines) == 4
    assert lines[1].startswith("emdpos,discrete,")
    assert lines[1].split(",")[4] == "21"


def test_correlate_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # the second run finds the first run's matrices kept by `correlation`;
    # its progress lines on stderr are the same all the same
    first = run(capsys, ["correlate", "--config", str(cfg)])
    second = run(capsys, ["correlate", "--config", str(cfg)])
    assert first[0] == second[0] == 0
    assert first == second


def test_correlate_rows_equal_library_correlation(tmp_path, capsys):
    # the repeated discrete is computed and correlated once
    cfg = write_config(tmp_path, metrics=["emdpos", "discrete", "bordawise", "discrete"])
    code, out, _ = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 0
    config = ExperimentConfig.from_json(json.loads(cfg.read_text(encoding="utf-8")))
    _, elections, _ = build_dataset(config)
    expected = [
        correlation(elections, a, b).to_csv_row()
        for a, b in itertools.combinations(["emdpos", "discrete", "bordawise"], 2)
    ]
    assert out.strip().splitlines()[1:] == expected


def test_correlate_builds_every_matrix_once_before_printing(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos", "discrete", "bordawise"])
    build = analysis.distance_matrix
    with mock.patch.object(analysis, "distance_matrix", wraps=build) as built:
        code, out, _ = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 0
    assert [c.args[1] for c in built.call_args_list] == ["emdpos", "discrete", "bordawise"]

    # on a new dataset, a matrix that cannot be built leaves stdout empty,
    # header included
    def fail_on_bordawise(dataset, kind, **kwargs):
        if kind == "bordawise":
            raise ValueError("no bordawise here")
        return build(dataset, kind, **kwargs)

    cfg = write_config(tmp_path, seed=12, metrics=["emdpos", "discrete", "bordawise"])
    with mock.patch.object(analysis, "distance_matrix", fail_on_bordawise):
        code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.endswith("error: no bordawise here\n")


def test_correlate_prints_one_row_for_a_repeated_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos", "swap", "emdpos"])
    code, out, _ = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("emdpos,swap,")


def test_correlate_rejects_one_election_before_sampling(tmp_path, capsys):
    # a compass kind named twice is one election
    for dataset, compass in (([{"model": "IC", "count": 1}], []), ([], ["ID", "ID"])):
        cfg = write_config(tmp_path, dataset=dataset, compass=compass, metrics=["emdpos", "swap"])
        with mock.patch.object(cli, "build_dataset", wraps=cli.build_dataset) as sampled:
            code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == "error: correlation needs at least two elections\n"
        assert sampled.call_count == 0


def test_correlate_fails_fast_on_guarded_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, m=13, metrics=["emdpos", "pairwise"])
    code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == "error: pairwise distance guarded at m <= 12 (got m=13)\n"


def test_correlate_rejects_one_metric_before_sampling(tmp_path, capsys):
    # the Urn entry cannot be sampled, so only an up-front check names the metrics
    for metrics in (["emdpos"], ["emdpos", "emdpos"]):
        cfg = write_config(tmp_path, dataset=[{"model": "Urn", "count": 2}], metrics=metrics)
        code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == "error: correlation needs at least two metrics\n"


@pytest.mark.parametrize("command", ["generate", "map", "correlate"])
def test_sampling_errors_leave_no_output(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dataset=[{"model": "Urn", "count": 2}])
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == "error: Urn requires parameter 'alpha'\n"
    assert not (tmp_path / "out").exists()


# map

def test_map_fails_fast_on_guarded_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, m=9, metrics=["emdpos", "swap"])
    code, out, err = run(capsys, ["map", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == "error: swap distance guarded at m <= 8 (got m=9)\n"
    assert not (tmp_path / "out").exists()


def test_map_rejects_a_negative_seed_before_any_output(tmp_path, capsys):
    # from the config and from the flag alike, before sampling or writing
    for overrides, flags in (({"seed": -1}, []), ({}, ["--seed", "-1"])):
        for dataset in ([], [{"model": "IC", "count": 2}]):
            cfg = write_config(
                tmp_path, dataset=dataset, compass=["ID", "AN"], metrics=["emdpos"], **overrides
            )
            code, out, err = run(capsys, ["map", "--config", str(cfg), *flags])
            assert code == 2
            assert out == ""
            assert err == "error: seed must be nonnegative, got -1\n"
            assert not (tmp_path / "out").exists()


def test_map_rejects_nonpositive_threads(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos"])
    code, out, err = run(capsys, ["map", "--config", str(cfg), "--threads", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: threads must be positive, got 0\n"
    assert not (tmp_path / "out").exists()


def test_map_writes_three_files_per_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos"])
    code, out, _ = run(capsys, ["map", "--config", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    for name in ("distances-emdpos.csv", "map-emdpos.csv", "map-emdpos.svg"):
        assert (outdir / name).exists()
        assert str(outdir / name) in out
    lines = (outdir / "map-emdpos.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "id,x,y,class"
    assert len(lines) == 8


def test_map_threads_do_not_change_output(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos"])

    def snapshot(dirname, argv_extra):
        outdir = tmp_path / dirname
        code, _, _ = run(
            capsys,
            ["map", "--config", str(cfg), "--output", str(outdir)] + argv_extra,
        )
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    sequential = snapshot("seq", [])
    assert snapshot("two", ["--threads", "2"]) == sequential
    assert snapshot("three", ["--threads", "3"]) == sequential


def test_map_computes_a_repeated_metric_once(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos", "emdpos"])
    with mock.patch.object(
        mapping, "distance_values", wraps=mapping.distance_values
    ) as values:
        code, out, _ = run(capsys, ["map", "--config", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    assert out.splitlines() == [
        str(outdir / name)
        for name in ("distances-emdpos.csv", "map-emdpos.csv", "map-emdpos.svg")
    ]
    assert values.call_count == 1


def test_map_of_three_metrics_equals_three_single_metric_maps(tmp_path, capsys):
    # the three layouts, of seven points each, move as one stack
    metrics = ["emdpos", "discrete", "pairwise"]

    def snapshot(kinds):
        outdir = tmp_path / "-".join(kinds)
        cfg = write_config(tmp_path, metrics=kinds, output=str(outdir))
        code, out, _ = run(capsys, ["map", "--config", str(cfg)])
        assert code == 0
        names = [Path(line).relative_to(outdir).as_posix() for line in out.splitlines()]
        return names, {name: (outdir / name).read_bytes() for name in names}

    names, files = snapshot(metrics)
    assert sorted(names) == sorted(p.name for p in (tmp_path / "-".join(metrics)).iterdir())
    alone_names = []
    for kind in metrics:
        kind_names, kind_files = snapshot([kind])
        alone_names += kind_names
        assert kind_files == {name: files[name] for name in kind_names}
    assert names == alone_names


def test_map_equals_the_one_layout_oracles(tmp_path, capsys):
    # six layouts of eight points move as one stack; each file equals the one
    # written when every layout runs the one-layout spring phase and tail
    dataset = [
        {"model": "IC"},
        {"model": "Urn", "params": {"alpha": "gamma"}},
        {"model": "Mallows", "params": {"phi": "norm-uniform"}},
        {"model": "SPConitzer"},
        {"model": "Euclidean", "params": {"shape": "disc_2d"}},
        {"model": "GroupSeparable", "params": {"tree": "caterpillar"}},
    ]
    cfg = write_config(
        tmp_path, m=6, n=12, dataset=[dict(c, count=1) for c in dataset],
        compass=["ID", "AN"], metrics=list(electodist.METRIC_KINDS),
    )

    def snapshot(dirname):
        outdir = tmp_path / dirname
        code, _, _ = run(capsys, ["map", "--config", str(cfg), "--output", str(outdir)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    stacked = snapshot("stacked")
    with (
        mock.patch.object(mapping, "_spring_phase", per_layout(single_layout_spring_phase)),
        mock.patch.object(mapping, "_descent_tail", per_layout(single_layout_descent_tail)),
    ):
        assert snapshot("alone") == stacked
    assert len(stacked) == 18


def test_map_writes_a_repeated_compass_kind_once(tmp_path, capsys):
    cfg = write_config(tmp_path, compass=["ID", "ID", "AN"], metrics=["emdpos"])
    code, _, _ = run(capsys, ["map", "--config", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    matrix = (outdir / "distances-emdpos.csv").read_text(encoding="utf-8").splitlines()
    assert matrix[0].split(",")[-2:] == ["ID", "AN"]
    assert [row.split(",")[0] for row in matrix[1:]][-2:] == ["ID", "AN"]
    assert len(matrix) == 7
    points = (outdir / "map-emdpos.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in points].count("ID") == 1
    svg = (outdir / "map-emdpos.svg").read_text(encoding="utf-8")
    assert svg.count("<title>ID (ID)</title>") == 1


# verify-compass

def test_verify_compass_all_pass(capsys):
    code, out, _ = run(capsys, ["verify-compass", "--m", "4", "--n", "24"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,pair,expected,computed,status"
    assert len(lines) == 37
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "swap,AN-UN,[18,72],44,pass" in lines


def test_verify_compass_skips_invalid_shapes(capsys):
    code, out, _ = run(capsys, ["verify-compass", "--m", "3", "--n", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.endswith(",skip") for line in lines[1:])


def test_verify_compass_reports_a_wrong_formula(capsys):
    with mock.patch.object(cli, "compass_distance_formula", return_value=-1):
        code, out, _ = run(capsys, ["verify-compass", "--m", "2", "--n", "2"])
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 37
    assert "emdpos,ID-AN,-1,2,FAIL" in lines
    assert all(line.endswith(",FAIL") for line in lines[1:])


def test_verify_compass_checks_guards_before_output(capsys):
    code, out, err = run(capsys, ["verify-compass", "--m", "10", "--n", "2"])
    assert code == 2
    assert out == ""
    assert err == "error: swap distance guarded at m <= 8 (got m=10)\n"


@pytest.mark.parametrize(
    "m, n, message",
    [("0", "2", "m=0, n=2"), ("4", "-24", "m=4, n=-24")],
)
def test_verify_compass_rejects_nonpositive_shapes(capsys, m, n, message):
    code, out, err = run(capsys, ["verify-compass", "--m", m, "--n", n])
    assert code == 2
    assert out == ""
    assert err == f"error: need m >= 1 and n >= 1, got {message}\n"


# path

def test_path_listing(pair_files, capsys):
    a, b = pair_files
    code, out, _ = run(capsys, ["path", a, b, "--metric", "emdpos"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "steps 2"
    assert lines[1] == "step_distance 2"
    assert lines[2] == "total 2"
    assert lines[3] == "step 0"
    assert lines[7] == "step 1 distance 2"


def test_path_l1_distances_recomputed(pair_files, capsys):
    a, b = pair_files
    code, out, _ = run(capsys, ["path", a, b, "--metric", "l1pos"])
    assert code == 0
    for line in out.strip().splitlines():
        if line.startswith("step ") and "distance" in line:
            assert line.split()[-1] == "4"


# realizable

def test_realizable_borda_witness(capsys):
    import numpy as np
    code, out, _ = run(capsys, ["realizable", "borda", "--scores", "3,5,1", "--n", "3"])
    assert code == 0
    witness = parse_election(out)
    assert np.array_equal(borda_vector(witness), [3, 5, 1])


def test_realizable_borda_none(capsys):
    code, out, _ = run(capsys, ["realizable", "borda", "--scores", "6,6,0,0", "--n", "4"])
    assert code == 0
    assert out == "none\n"


def test_realizable_position_roundtrip(tmp_path, capsys):
    matrix = tmp_path / "pos.txt"
    matrix.write_text("# comment line\n2 1 0\n1 2 0\n0 0 3\n", encoding="utf-8")
    code, out, _ = run(capsys, ["realizable", "position", "--file", str(matrix)])
    assert code == 0
    from electodist import position_matrix
    import numpy as np
    assert np.array_equal(
        position_matrix(parse_election(out)),
        np.array([[2, 1, 0], [1, 2, 0], [0, 0, 3]]),
    )


def test_realizable_majority_roundtrip(tmp_path, capsys):
    from electodist import Election
    import numpy as np
    target = Election(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    matrix = tmp_path / "maj.txt"
    rows = majority_matrix(target)
    matrix.write_text(
        "\n".join(" ".join(str(int(v)) for v in row) for row in rows) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["realizable", "majority", "--file", str(matrix), "--n", "3"])
    assert code == 0
    assert np.array_equal(majority_matrix(parse_election(out)), rows)


def test_realizable_missing_flags(capsys):
    code, _, err = run(capsys, ["realizable", "borda", "--scores", "3,5,1"])
    assert code == 2
    assert "error:" in err
