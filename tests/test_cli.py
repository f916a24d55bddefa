from __future__ import annotations

import itertools
import json
from unittest import mock

import pytest

from electodist import (
    borda_vector,
    correlation,
    majority_matrix,
    parse_election,
    serialize_election,
)
from electodist import cli, mapping
from electodist.cli import ExperimentConfig, build_dataset, main

from conftest import SMALL_A, SMALL_B


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


def test_census_guard(capsys):
    code, _, err = run(capsys, ["census", "--m", "9", "--n", "3"])
    assert code == 2
    assert "guard" in err


def test_census_checks_every_shape_before_output(capsys):
    code, out, err = run(capsys, ["census", "--m", "3,5", "--n", "3"])
    assert code == 2
    assert out == ""
    assert err == "error: census guard: need m <= 4 and n <= 6, got m=5, n=3\n"


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
    first = run(capsys, ["correlate", "--config", str(cfg)])
    second = run(capsys, ["correlate", "--config", str(cfg)])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


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


def test_correlate_prints_one_row_for_a_repeated_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, metrics=["emdpos", "swap", "emdpos"])
    code, out, _ = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("emdpos,swap,")


def test_correlate_rejects_one_election_before_sampling(tmp_path, capsys):
    cfg = write_config(
        tmp_path, dataset=[{"model": "IC", "count": 1}], compass=[], metrics=["emdpos", "swap"]
    )
    with mock.patch.object(cli, "build_dataset", wraps=cli.build_dataset) as sampled:
        code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == "error: correlation needs at least two elections\n"
    assert sampled.call_count == 0


def test_correlate_fails_fast_on_guarded_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, m=11, metrics=["emdpos", "pairwise"])
    code, out, err = run(capsys, ["correlate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == "error: pairwise distance guarded at m <= 10 (got m=11)\n"


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
