"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS or FAIL line on the terminal (bypassing
capture) and then asserts, so a failed criterion is both visible in the
log and counted by pytest.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from electodist import (
    DEFAULT_CULTURES,
    Election,
    EmbedConfig,
    METRIC_KINDS,
    apply_matchings,
    borda_realizable,
    check_diameter,
    distance,
    distance_matrix,
    embed,
    emd,
    emdpos_intrinsic_path,
    enumerate_anecs,
    export_map,
    l1pos_intrinsic_path,
    matrix_correlation,
    pairwise_cost_at,
    position_matrix,
    positionwise_distance,
    recover_election,
    sample_many,
    solve_assignment,
    vote_swap_distance,
)
from electodist.cli import main as cli_main

from conftest import SMALL_A, SMALL_B
from _oracles import bordawise_census_pearson, brute_force_iso_distance

EXPECTED_CENSUS_ROWS = [
    "3,3,10,10,8,8",
    "3,4,24,23,17,13",
    "3,5,42,40,25,18",
    "4,3,111,93,50,37",
    "4,4,762,465,200,76",
    "4,5,4095,1746,513,131",
]


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_election(rng, m, n):
    return Election(m, [tuple(map(int, rng.permutation(m))) for _ in range(n)])


def test_criterion_01_census_table(capsys):
    code = cli_main(["census", "--m", "3,4", "--n", "3,4,5"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    ok = (
        code == 0
        and lines[0] == "m,n,anecs,positionwise,pairwise,bordawise"
        and lines[1:] == EXPECTED_CENSUS_ROWS
    )
    report(capsys, 1, ok, f"six census rows exact, header fixed, exit {code}")


def test_criterion_02_worked_example_pair(capsys):
    problems = []
    swap_out = distance(SMALL_A, SMALL_B, "swap")
    if swap_out.value != 1:
        problems.append(f"swap minimum {swap_out.value} != 1")
    # the printed value 2 is the cost when candidates keep their names
    swap_at_identity = min(
        sum(
            vote_swap_distance(SMALL_A.votes[i], SMALL_B.votes[rho[i]])
            for i in range(3)
        )
        for rho in itertools.permutations(range(3))
    )
    if swap_at_identity != 2:
        problems.append(f"swap at identity {swap_at_identity} != 2")
    if distance(SMALL_A, SMALL_B, "discrete").value != 1:
        problems.append("discrete != 1")

    emd_out = positionwise_distance(SMALL_A, SMALL_B, "EMD")
    if emd_out.value != 2:
        problems.append(f"emdpos minimum {emd_out.value} != 2")
    pa, pb = position_matrix(SMALL_A), position_matrix(SMALL_B)
    emd_at_identity = sum(emd(pa[:, c], pb[:, c]) for c in range(3))
    if emd_at_identity != 4:
        problems.append(f"emdpos at identity {emd_at_identity} != 4")

    if distance(SMALL_A, SMALL_B, "bordawise").value != 1:
        problems.append("bordawise != 1")

    if pairwise_cost_at(SMALL_A, SMALL_B, (1, 0, 2)) != 2:
        problems.append("pairwise at (1,0,2) != 2")
    pair_min = distance(SMALL_A, SMALL_B, "pairwise").value
    pair_brute = min(
        pairwise_cost_at(SMALL_A, SMALL_B, sigma)
        for sigma in itertools.permutations(range(3))
    )
    if pair_min != pair_brute:
        problems.append(f"pairwise {pair_min} != brute {pair_brute}")

    detail = (
        "discrete 1, swap min 1 (2 at identity), emdpos min 2 (4 at identity), "
        "bordawise 1, pairwise 2 at (1,0,2) = brute minimum"
    )
    report(capsys, 2, not problems, detail if not problems else "; ".join(problems))


def test_criterion_03_compass_formulas(capsys):
    code = cli_main(["verify-compass", "--m", "4", "--n", "24"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()[1:]
    problems = [line for line in lines if not line.endswith(",pass")]
    if code != 0:
        problems.append(f"exit {code}")
    expected_cells = [
        "emdpos,ID-UN,120,120,pass",
        "pairwise,ID-UN,144,144,pass",
        "bordawise,ID-UN,120,120,pass",
        "l1pos,ID-UN,144,144,pass",
        "swap,ID-UN,72,72,pass",
        "discrete,ID-UN,23,23,pass",
        "pairwise,AN-UN,0,0,pass",
        "bordawise,AN-UN,0,0,pass",
    ]
    for cell in expected_cells:
        if cell not in lines:
            problems.append(f"missing {cell}")
    bounds_rows = [line for line in lines if line.startswith(("swap,AN-UN", "swap,AN-ST"))]
    if len(bounds_rows) != 2:
        problems.append("bounded swap rows missing")
    report(
        capsys,
        3,
        not problems,
        f"all {len(lines)} compass cells at m=4 n=24 match formulas, "
        "swap(AN,UN) and swap(AN,ST) inside bounds"
        if not problems
        else "; ".join(problems[:4]),
    )


def test_criterion_04_diameter(capsys):
    rng = np.random.default_rng(41)
    dataset = [random_election(rng, 3, 6) for _ in range(200)]
    problems = []
    for kind in METRIC_KINDS:
        violations = check_diameter(dataset, kind)
        if violations:
            problems.append(f"{kind}: {len(violations)} diameter violations")
    id_e = Election(3, [(0, 1, 2)] * 6)
    from electodist import compass_election

    un_e = compass_election("UN", 3, 6)
    full = distance(id_e, un_e, "bordawise").value
    for i, e in enumerate(dataset):
        left = distance(e, id_e, "bordawise").value
        right = distance(e, un_e, "bordawise").value
        if left + right != full:
            problems.append(f"bordawise split fails at {i}: {left}+{right} != {full}")
            break
    report(
        capsys,
        4,
        not problems,
        "200 elections m=3 n=6: all pairwise distances within d(ID,UN) for all "
        "six metrics; bordawise d(E,ID)+d(E,UN)=d(ID,UN) exact"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_05_intrinsic_paths(capsys):
    rng = np.random.default_rng(52)
    problems = []
    for trial in range(100):
        a = random_election(rng, 4, 6)
        b = random_election(rng, 4, 6)
        for build, variant, step in (
            (l1pos_intrinsic_path, "L1", 4),
            (emdpos_intrinsic_path, "EMD", 2),
        ):
            path = build(a, b)
            d = positionwise_distance(a, b, variant).value
            if path.total > 2 * d:
                problems.append(f"trial {trial} {variant}: total {path.total} > 2*{d}")
            for s, t in zip(path.steps, path.steps[1:]):
                got = positionwise_distance(s, t, variant).value
                if got != step:
                    problems.append(f"trial {trial} {variant}: step {got} != {step}")
        if problems:
            break
    report(
        capsys,
        5,
        not problems,
        "100 pairs m=4 n=6: l1 steps exactly 4, emd steps exactly 2 "
        "(recomputed), totals <= 2d"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_06_oracle_equivalence(capsys):
    problems = []
    reps = list(enumerate_anecs(3, 3))
    for a, b in itertools.combinations_with_replacement(reps, 2):
        for kind in ("swap", "discrete"):
            fast = distance(a, b, kind).value
            brute = brute_force_iso_distance(a, b, kind)
            if fast != brute:
                problems.append(f"{kind} {fast} != brute {brute}")
    rng = np.random.default_rng(63)
    perms = list(itertools.permutations(range(6)))
    for _ in range(500):
        costs = rng.integers(0, 100, size=(6, 6))
        _, total = solve_assignment(costs)
        brute = min(sum(costs[i, p[i]] for i in range(6)) for p in perms)
        if total != brute:
            problems.append(f"assignment {total} != brute {brute}")
            break

    def greedy_transport(x, y):
        surplus = [int(xi) - int(yi) for xi, yi in zip(x, y)]
        donors = [[i, s] for i, s in enumerate(surplus) if s > 0]
        takers = [[i, -s] for i, s in enumerate(surplus) if s < 0]
        cost = di = ti = 0
        while di < len(donors):
            moved = min(donors[di][1], takers[ti][1])
            cost += moved * abs(donors[di][0] - takers[ti][0])
            donors[di][1] -= moved
            takers[ti][1] -= moved
            if donors[di][1] == 0:
                di += 1
            if takers[ti][1] == 0:
                ti += 1
        return cost

    for _ in range(1000):
        length = int(rng.integers(2, 13))
        x = rng.integers(0, 20, size=length)
        y = x.copy()
        for _ in range(int(rng.integers(1, 30))):
            src = rng.choice(np.flatnonzero(y > 0))
            dst = int(rng.integers(0, length))
            y[src] -= 1
            y[dst] += 1
        fast = emd(list(x), list(y))
        slow = greedy_transport(x, y)
        if fast != slow:
            problems.append(f"emd {fast} != transport {slow}")
            break
    report(
        capsys,
        6,
        not problems,
        "iso = brute on all 55 pairs of 3x3 representatives, assignment = "
        "brute on 500 6x6 matrices, emd = greedy transport on 1000 pairs"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_07_metric_axioms(capsys):
    rng = np.random.default_rng(74)
    problems = []
    for trial in range(5000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        a = random_election(rng, m, n)
        b = random_election(rng, m, n)
        c = random_election(rng, m, n)
        sigma = tuple(map(int, rng.permutation(m)))
        rho = tuple(map(int, rng.permutation(n)))
        moved = apply_matchings(a, sigma, rho)
        for kind in METRIC_KINDS:
            dab = distance(a, b, kind).value
            dac = distance(a, c, kind).value
            dbc = distance(b, c, kind).value
            if dab < 0 or dac < 0 or dbc < 0:
                problems.append(f"trial {trial} {kind}: negative value")
            if distance(b, a, kind).value != dab:
                problems.append(f"trial {trial} {kind}: asymmetric")
            if distance(a, moved, kind).value != 0:
                problems.append(f"trial {trial} {kind}: isomorph not at 0")
            if dab > dac + dbc or dac > dab + dbc or dbc > dab + dac:
                problems.append(f"trial {trial} {kind}: triangle violated")
        if problems:
            break
    report(
        capsys,
        7,
        not problems,
        "nonnegativity, identity of isomorphs, symmetry, triangle inequality "
        "hold for all six metrics on 5000 random triples (m <= 4, n <= 5)"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_08_realizability(capsys):
    problems = []
    witness = borda_realizable((3, 5, 1), 3)
    if witness is None:
        problems.append("(3,5,1) with n=3 not realized")
    else:
        from electodist import borda_vector

        if not np.array_equal(borda_vector(witness), [3, 5, 1]):
            problems.append("witness has wrong scores")
    if borda_realizable((6, 6, 0, 0), 2) is not None:
        problems.append("(6,6,0,0) with n=2 wrongly accepted")
    count = 0
    for rep in enumerate_anecs(4, 4):
        pos = position_matrix(rep)
        if not np.array_equal(position_matrix(recover_election(pos)), pos):
            problems.append("position round-trip failed")
            break
        count += 1
    report(
        capsys,
        8,
        not problems,
        f"Borda (3,5,1) realized, (6,6,0,0) rejected, position matrices "
        f"round-trip on all {count} 4x4 representatives"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_09_census_correlations(capsys):
    reps33 = list(enumerate_anecs(3, 3))
    reps43 = list(enumerate_anecs(4, 3))
    chain = ["emdpos", "pairwise", "bordawise", "l1pos", "discrete"]
    swap33 = distance_matrix(reps33, "swap")
    swap43 = distance_matrix(reps43, "swap")
    pearson33 = {}
    pearson43 = {}
    for kind in chain:
        pearson33[kind] = matrix_correlation(swap33, distance_matrix(reps33, kind)).pearson
        pearson43[kind] = matrix_correlation(swap43, distance_matrix(reps43, kind)).pearson
    # The Bordawise figures follow from the metric's definition, recomputed
    # by an independent route: brute-force swap at 3x3; at 4x3 the package's
    # swap, which test_metrics checks against brute force on m <= 4 elections.
    oracle33 = bordawise_census_pearson(
        reps33,
        [brute_force_iso_distance(a, b, "swap") for a, b in itertools.combinations(reps33, 2)],
    )
    oracle43 = bordawise_census_pearson(
        reps43, swap43.cells[np.triu_indices(len(reps43), k=1)].tolist()
    )
    problems = []
    if abs(pearson33["emdpos"] - 0.942) > 0.02:
        problems.append(f"Pearson(swap,emdpos) {pearson33['emdpos']:.4f} not 0.942 +- 0.02")
    if abs(pearson33["bordawise"] - 0.817) > 0.02:
        problems.append(
            f"Pearson(swap,bordawise) {pearson33['bordawise']:.4f} not 0.817 +- 0.02"
        )
    for cell, values, oracle in (("3x3", pearson33, oracle33), ("4x3", pearson43, oracle43)):
        if abs(values["bordawise"] - oracle) > 1e-9:
            problems.append(
                f"{cell}: Pearson(swap,bordawise) {values['bordawise']:.6f} "
                f"!= oracle {oracle:.6f}"
            )
        for high, low in zip(chain, chain[1:]):
            if values[high] <= values[low]:
                problems.append(
                    f"{cell}: {high} {values[high]:.4f} <= {low} {values[low]:.4f}"
                )
    summary = "; ".join(
        f"{cell} Pearson(swap,X): "
        + ", ".join(f"{kind} {values[kind]:.4f}" for kind in chain)
        for cell, values in (("3x3", pearson33), ("4x3", pearson43))
    )
    report(
        capsys,
        9,
        not problems,
        summary if not problems else "; ".join(problems) + " [" + summary + "]",
    )


def test_criterion_10_map_pipeline(capsys):
    elections = []
    labels = []
    classes = {}
    for spec in DEFAULT_CULTURES:
        for i, e in enumerate(sample_many(spec, 6, 12, 2026, 5)):
            label = f"{spec.label()}-{i}"
            elections.append(e)
            labels.append(label)
            classes[label] = spec.label()
    problems = []
    if len(elections) != 65:
        problems.append(f"dataset size {len(elections)} != 65")
    matrices = {
        kind: distance_matrix(elections, kind, labels=labels)
        for kind in ("swap", "emdpos", "discrete")
    }
    iu = np.triu_indices(65, k=1)
    swap_flat = matrices["swap"].cells[iu]
    r_emd = float(np.corrcoef(swap_flat, matrices["emdpos"].cells[iu])[0, 1])
    r_disc = float(np.corrcoef(swap_flat, matrices["discrete"].cells[iu])[0, 1])
    if not r_emd > r_disc:
        problems.append(f"Pearson order violated: emdpos {r_emd:.4f} <= discrete {r_disc:.4f}")
    emb = embed(matrices["emdpos"], EmbedConfig(seed=2026))
    if not emb.stress < 0.25:
        problems.append(f"stress {emb.stress:.4f} >= 0.25")
    svg = export_map(emb, classes, "svg")
    try:
        root = ET.fromstring(svg)
        if not root.tag.endswith("svg"):
            problems.append("root element is not svg")
    except ET.ParseError as exc:
        problems.append(f"svg does not parse: {exc}")
    report(
        capsys,
        10,
        not problems,
        f"13 cultures x 5 at m=6 n=12: Pearson(swap,emdpos) {r_emd:.4f} > "
        f"Pearson(swap,discrete) {r_disc:.4f}; map stress {emb.stress:.4f} < 0.25; "
        "SVG parses"
        if not problems
        else "; ".join(problems[:3]),
    )
