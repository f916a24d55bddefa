from __future__ import annotations

import itertools
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest

from electodist import (
    COMPASS_KINDS,
    DEFAULT_CULTURES,
    compass_distance_formula,
    compass_election,
    sample_many,
)
from electodist import mapping
from electodist.mapping import (
    PALETTE,
    DistanceMatrix,
    EmbedConfig,
    distance_matrix,
    embed,
    embed_all,
    embedding_stress,
    export_map,
)

import _oracles
from _oracles import (
    diagonal_zeroing_spring_phase,
    indexing_descent_tail,
    indexing_embedding_stress,
    layout_major,
    per_layout,
    single_layout_descent_tail,
    single_layout_spring_phase,
    stacked_descent_tail,
    stacked_spring_phase,
)
from conftest import SMALL_A, SMALL_B


def euclid(p, q):
    return float(np.linalg.norm(np.asarray(p) - np.asarray(q)))


# distance matrix

def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(("a",), np.ones((1, 2)), "swap")
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0, 1], [2, 0]]), "swap")
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[1, 1], [1, 0]]), "swap")
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0, -1], [-1, 0]]), "swap")
    with pytest.raises(ValueError):
        DistanceMatrix(("a",), np.zeros((2, 2)), "swap")


def test_single_element_dataset():
    dm = distance_matrix([SMALL_A], "swap")
    assert dm.labels == ("0",)
    assert dm.cells.shape == (1, 1)
    assert dm.cells[0, 0] == 0.0


def test_matrix_is_symmetric_with_zero_diagonal():
    dm = distance_matrix([SMALL_A, SMALL_B, compass_election("ID", 3, 3)], "swap")
    assert np.array_equal(dm.cells, dm.cells.T)
    assert np.all(np.diag(dm.cells) == 0)


def test_compass_matrix_matches_closed_forms():
    dataset = [compass_election(k, 4, 24) for k in COMPASS_KINDS]
    dm = distance_matrix(dataset, "emdpos", labels=COMPASS_KINDS)
    for i, j in itertools.combinations(range(4), 2):
        expected = compass_distance_formula(
            "emdpos", (COMPASS_KINDS[i], COMPASS_KINDS[j]), 4, 24
        )
        assert dm.cells[i, j] == expected


def test_matrix_respects_dataset_reordering():
    dataset = [compass_election(k, 4, 24) for k in COMPASS_KINDS]
    perm = [2, 0, 3, 1]
    base = distance_matrix(dataset, "bordawise")
    shuffled = distance_matrix([dataset[p] for p in perm], "bordawise")
    assert np.array_equal(shuffled.cells, base.cells[np.ix_(perm, perm)])


def test_distance_matrix_errors():
    with pytest.raises(ValueError):
        distance_matrix([SMALL_A, SMALL_B], "taxicab")
    with pytest.raises(ValueError):
        distance_matrix([], "swap")
    with pytest.raises(ValueError):
        distance_matrix([SMALL_A, compass_election("ID", 3, 6)], "swap")
    with pytest.raises(ValueError):
        distance_matrix([SMALL_A, SMALL_B], "swap", labels=("only-one",))


# embedding

def test_two_points_separate_cleanly():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 5.0], [5.0, 0.0]]), "emdpos")
    emb = embed(dm)
    # one pair is always fittable at the optimal scale
    assert euclid(emb.points[0], emb.points[1]) > 0.1
    assert emb.stress == pytest.approx(0.0, abs=1e-12)


def test_three_point_triangle_side_ratios():
    cells = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    dm = DistanceMatrix(("a", "b", "c"), cells, "emdpos")
    emb = embed(dm)
    ab = euclid(emb.points[0], emb.points[1])
    ac = euclid(emb.points[0], emb.points[2])
    bc = euclid(emb.points[1], emb.points[2])
    assert abs(ab / bc - 3.0 / 5.0) <= 0.1 * 3.0 / 5.0
    assert abs(ac / bc - 4.0 / 5.0) <= 0.1 * 4.0 / 5.0


def test_all_zero_matrix_embeds_without_nan():
    dm = DistanceMatrix(("a", "b", "c"), np.zeros((3, 3)), "swap")
    emb = embed(dm)
    assert np.isfinite(emb.points).all()
    assert emb.stress == 0.0


def test_single_point_embedding():
    dm = DistanceMatrix(("a",), np.zeros((1, 1)), "swap")
    emb = embed(dm)
    assert emb.points.shape == (1, 2)
    assert emb.stress == 0.0


def test_embedding_is_deterministic():
    dataset = [compass_election(k, 4, 24) for k in COMPASS_KINDS]
    dm = distance_matrix(dataset, "emdpos")
    first = embed(dm, EmbedConfig(seed=7))
    second = embed(dm, EmbedConfig(seed=7))
    assert np.array_equal(first.points, second.points)
    assert first.stress == second.stress


def test_tail_stress_is_non_increasing_on_random_matrices():
    rng = np.random.default_rng(2)
    for trial in range(5):
        pts = rng.random((20, 2)) * 10
        cells = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        cells += rng.random((20, 20)) * 0.5
        cells = (cells + cells.T) / 2
        np.fill_diagonal(cells, 0.0)
        dm = DistanceMatrix(tuple(map(str, range(20))), cells, "swap")
        emb = embed(dm, EmbedConfig(seed=trial))
        for earlier, later in zip(emb.tail_stress, emb.tail_stress[1:]):
            assert later <= earlier + 1e-12
        assert emb.stress == pytest.approx(emb.tail_stress[-1], abs=1e-12)


def test_mds_method_fits_euclidean_data():
    rng = np.random.default_rng(4)
    pts = rng.random((12, 2))
    cells = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    dm = DistanceMatrix(tuple(map(str, range(12))), cells, "swap")
    emb = embed(dm, EmbedConfig(method="mds"))
    assert emb.stress <= 0.01


def test_mds_tail_moves_points_that_coincide():
    # duplicated elections sit at distance 0, and classical MDS puts each
    # copy on its original's point
    dataset = [
        e for seed, spec in enumerate(DEFAULT_CULTURES[:6]) for e in sample_many(spec, 5, 8, seed, 3)
    ]
    dataset += dataset[:4]
    dm = distance_matrix(dataset, "emdpos")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        emb = embed(dm, EmbedConfig(method="mds"))
    tail = np.array(emb.tail_stress)
    assert np.all(np.isfinite(tail))
    assert np.all(tail[1:] <= tail[:-1])
    assert tail[-1] < tail[0]


def random_distance_matrix(rng, k):
    # integer distances with a duplicated election: its row and column
    # repeat the original's, and the two sit at distance 0
    cells = rng.integers(1, 9, (k, k)).astype(float)
    cells = np.triu(cells, 1)
    cells = cells + cells.T
    if k >= 3:
        cells[k - 1] = cells[0]
        cells[:, k - 1] = cells[:, 0]
        cells[0, k - 1] = cells[k - 1, 0] = cells[k - 1, k - 1] = 0.0
    return DistanceMatrix(tuple(map(str, range(k))), cells, "swap")


@pytest.mark.parametrize("method", ["spring", "mds"])
def test_embed_equals_indexing_tail(method):
    rng = np.random.default_rng(5)
    for trial, k in enumerate([2, 2, 3, 5, 8, 13, 21]):
        dm = random_distance_matrix(rng, k)
        config = EmbedConfig(iterations=60, seed=trial, method=method)
        fast = embed(dm, config)
        with mock.patch.object(mapping, "_descent_tail", per_layout(indexing_descent_tail)):
            slow = embed(dm, config)
        assert fast.points.tobytes() == slow.points.tobytes()
        assert fast.stress == slow.stress
        assert fast.tail_stress == slow.tail_stress


@pytest.mark.parametrize("method", ["spring", "mds"])
def test_embed_equals_spring_and_tail_oracles(method):
    # sampled elections with duplicates at distance 0; k = 1 and the all-zero
    # matrix take the zero-target branch, k = 1 its zero-extent case
    pool = [sample_many(spec, 4, 6, 3, 1)[0] for spec in DEFAULT_CULTURES]
    datasets = [
        pool[:1],
        pool[:2],
        [pool[0], pool[1], pool[0]],
        pool[:6] + [pool[2], pool[5]],
        pool + pool[:8],
        [pool[4]] * 3,
    ]
    for trial, dataset in enumerate(datasets):
        dm = distance_matrix(dataset, "emdpos")
        config = EmbedConfig(iterations=60, seed=trial, method=method)
        fast = embed(dm, config)
        with (
            mock.patch.object(
                mapping, "_spring_phase", per_layout(diagonal_zeroing_spring_phase)
            ),
            mock.patch.object(mapping, "_descent_tail", per_layout(indexing_descent_tail)),
        ):
            slow = embed(dm, config)
        assert fast.points.tobytes() == slow.points.tobytes()
        assert fast.stress == slow.stress
        assert fast.tail_stress == slow.tail_stress
        if len(dataset) == 1:
            assert fast.points.tolist() == [[0.5, 0.5]]
            assert fast.stress == 0.0
            assert fast.tail_stress == (0.0,) * 6


@pytest.mark.parametrize("method", ["spring", "mds"])
def test_embed_all_equals_single_layout_embeds(method):
    # three sizes of several layouts each, an all-zero matrix, k = 1, and
    # duplicated elections whose points the targets pull together; each
    # layout of a stack equals its lone run of the one-layout oracles
    rng = np.random.default_rng(9)
    dms = [random_distance_matrix(rng, k) for k in (8, 15, 8, 3, 8, 15, 2, 2)]
    dms[4:4] = [
        DistanceMatrix(("a", "b", "c", "d"), np.zeros((4, 4)), "swap"),
        DistanceMatrix(("a",), np.zeros((1, 1)), "swap"),
    ]
    config = EmbedConfig(iterations=400, seed=3, method=method)
    together = embed_all(dms, config)
    assert len(together) == len(dms)
    trials = {}

    def counting_tail(points, targets, iterations):
        with mock.patch.object(
            _oracles, "single_layout_measure", wraps=_oracles.single_layout_measure
        ) as measure:
            trace = single_layout_descent_tail(points, targets, iterations)
        trials.setdefault(len(points), []).append(measure.call_count)
        return trace

    with (
        mock.patch.object(mapping, "_spring_phase", per_layout(single_layout_spring_phase)),
        mock.patch.object(mapping, "_descent_tail", per_layout(counting_tail)),
    ):
        alone = [embed(dm, config) for dm in dms]
    for dm, got, want in zip(dms, together, alone):
        assert got.labels == dm.labels
        assert got.points.tobytes() == want.points.tobytes()
        assert repr(got.stress) == repr(want.stress)
        assert got.tail_stress == want.tail_stress
    # the k = 8 layouts tried different numbers of steps, so their line
    # searches accepted on different rounds of one lockstep search
    assert len(set(trials[8])) > 1
    assert embed_all([], config) == []


@pytest.mark.parametrize("method", ["spring", "mds"])
@pytest.mark.parametrize("seed", [0, 7])
def test_embed_all_equals_layout_major_stack_oracles(method, seed):
    # the two stacks of the maps benchmark, six layouts of 8 points and three
    # of 15, at the map command's config; each matrix has a duplicated
    # election, whose copies classical scaling starts at one point
    rng = np.random.default_rng(12 + seed)
    dms = [random_distance_matrix(rng, k) for k in (8,) * 6 + (15,) * 3]
    config = EmbedConfig(seed=seed, method=method)
    fast = embed_all(dms, config)
    with (
        mock.patch.object(mapping, "_spring_phase", layout_major(stacked_spring_phase)),
        mock.patch.object(mapping, "_descent_tail", layout_major(stacked_descent_tail)),
    ):
        slow = embed_all(dms, config)
    for got, want in zip(fast, slow):
        assert got.points.tobytes() == want.points.tobytes()
        assert repr(got.stress) == repr(want.stress)
        assert got.tail_stress == want.tail_stress


def test_embedding_stress_equals_indexing_stress():
    rng = np.random.default_rng(6)
    for k in (1, 2, 3, 7, 12):
        targets = random_distance_matrix(rng, k).cells
        for points in (rng.random((k, 2)), np.zeros((k, 2)), np.repeat(rng.random((1, 2)), k, 0)):
            assert embedding_stress(points, targets) == indexing_embedding_stress(points, targets)
    assert embedding_stress(np.zeros((3, 2)), np.zeros((3, 3))) == 0.0


def test_embed_config_errors():
    dm = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), "swap")
    for bad, message in (
        (EmbedConfig(method="umap"), "unknown embed method 'umap'"),
        (EmbedConfig(iterations=0), "iterations must be positive"),
        (EmbedConfig(iterations=1.5), "iterations must be an integer, got 1.5"),
        (EmbedConfig(temperature=float("nan")), "temperature must be finite and nonnegative, got nan"),
        (EmbedConfig(temperature=float("inf")), "temperature must be finite and nonnegative, got inf"),
        (EmbedConfig(temperature=-0.5), "temperature must be finite and nonnegative, got -0.5"),
        (EmbedConfig(temperature="hot"), "temperature must be a real number, got 'hot'"),
        (EmbedConfig(temperature=True), "temperature must be a real number, got True"),
        (EmbedConfig(seed=1.5), "seed must be an integer, got 1.5"),
        (EmbedConfig(seed=-1), "seed must be nonnegative, got -1"),
    ):
        # the config is checked before any matrix, and with no matrix at all
        for call in (lambda: embed(dm, bad), lambda: embed_all([], bad)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def test_stress_extremes():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = np.sqrt(((square[:, None, :] - square[None, :, :]) ** 2).sum(axis=2))
    assert embedding_stress(square, d) == pytest.approx(0.0, abs=1e-15)
    coincident = np.zeros((3, 2))
    targets = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert embedding_stress(coincident, targets) == 1.0


# export

def small_embedding():
    dataset = [compass_election(k, 4, 24) for k in COMPASS_KINDS]
    dm = distance_matrix(dataset, "emdpos", labels=COMPASS_KINDS)
    return embed(dm)


def test_csv_export_shape():
    emb = small_embedding()
    classes = {k: k for k in COMPASS_KINDS}
    lines = export_map(emb, classes, "csv").strip().splitlines()
    assert lines[0] == "id,x,y,class"
    assert len(lines) == 5
    for line, kind in zip(lines[1:], COMPASS_KINDS):
        parts = line.split(",")
        assert parts[0] == kind
        assert parts[3] == kind
        float(parts[1]), float(parts[2])


def test_svg_export_is_well_formed_xml():
    emb = small_embedding()
    classes = {k: k for k in COMPASS_KINDS}
    svg = export_map(emb, classes, "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox") == "0 0 1000 1000"


def test_svg_escapes_markup_and_leaves_quotes():
    dm = DistanceMatrix(("a<&>\"'b", "c"), np.array([[0.0, 1.0], [1.0, 0.0]]), "swap")
    svg = export_map(embed(dm), {"a<&>\"'b": "x&y"}, "svg")
    assert "<title>a&lt;&amp;&gt;\"'b (x&amp;y)</title>" in svg
    assert '>x&amp;y</text>' in svg
    titles = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}title")]
    assert titles == ["a<&>\"'b (x&y)", "c (unknown)"]


def test_svg_compass_points_marked_distinctly():
    emb = small_embedding()
    classes = {k: k for k in COMPASS_KINDS}
    svg = export_map(emb, classes, "svg")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f"{ns}polygon")
    assert len(polygons) == 4
    assert len(root.findall(f"{ns}circle")) == 0


def test_svg_equal_classes_share_fill_color():
    points = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
    dm = DistanceMatrix(("a", "b", "c"), np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    ), "swap")
    emb = embed(dm)
    classes = {"a": "culture-x", "b": "culture-x", "c": "culture-y"}
    svg = export_map(emb, classes, "svg")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    fills = [c.get("fill") for c in root.findall(f"{ns}circle")]
    assert fills[0] == fills[1] == PALETTE[0]
    assert fills[2] == PALETTE[1]


def test_export_writes_file(tmp_path):
    emb = small_embedding()
    classes = {k: k for k in COMPASS_KINDS}
    target = tmp_path / "map.csv"
    content = export_map(emb, classes, "csv", path=target)
    assert target.read_text(encoding="utf-8") == content


def test_export_format_error():
    emb = small_embedding()
    with pytest.raises(ValueError):
        export_map(emb, {}, "pdf")
