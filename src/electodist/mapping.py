"""Distance matrices over datasets, 2-D embeddings, and map export."""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .elections import (
    COMPASS_KINDS, Election, _check_integer, _check_natural, _is_real, _square_matrix, _upper_pairs
)
from .metrics import distance_values

__all__ = [
    "PALETTE",
    "DistanceMatrix",
    "EmbedConfig",
    "Embedding",
    "distance_matrix",
    "embed",
    "embed_all",
    "embedding_stress",
    "export_map",
]

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31", "#843c39", "#7b4173", "#3182bd",
)


def _check_names(names, what: str) -> None:
    # labels and class names are fields of the map's CSV rows and text of
    # its SVG: strings that no separator of a CSV field or row splits
    for name in names:
        if not isinstance(name, str) or any(c in name for c in ",\r\n"):
            raise ValueError(f"{what} must be strings without commas or line breaks, got {name!r}")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative distances between labeled elections.

    Labels are strings without commas or line breaks, so that they can be
    fields of the map's CSV rows.
    """

    labels: tuple[str, ...]
    cells: np.ndarray
    metric: str

    def __post_init__(self):
        if not len(self.labels):
            raise ValueError("need at least one election")
        _check_names(self.labels, "labels")
        arr = _square_matrix(self.cells, "cells", float)
        if arr.shape[0] != len(self.labels):
            raise ValueError(f"{len(self.labels)} labels for {arr.shape[0]} rows")
        if not np.isfinite(arr).all():
            raise ValueError("cells must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("cells must be symmetric")
        if np.any(np.diag(arr) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(arr < 0):
            raise ValueError("cells must be nonnegative")
        object.__setattr__(self, "cells", arr)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class EmbedConfig:
    """Layout parameters; the same config and seed give the same embedding."""

    iterations: int = 400
    seed: int = 0
    temperature: float = 0.15
    method: str = "spring"


@dataclass(frozen=True, eq=False)
class Embedding:
    """2-D points for each label, plus the config that produced them.

    tail_stress records the stress after each of the final descent
    iterations; it is non-increasing by construction.
    """

    labels: tuple[str, ...]
    points: np.ndarray
    config: EmbedConfig
    stress: float
    tail_stress: tuple[float, ...]


def distance_matrix(
    dataset: Sequence[Election],
    kind: str,
    labels: Optional[Sequence[str]] = None,
) -> DistanceMatrix:
    """All unordered pairwise distances, by ``metrics.distance_values``,
    which checks the kind, the inputs, their shapes and the guard."""
    if not dataset:
        raise ValueError("need at least one election")
    k = len(dataset)
    if labels is None:
        labels = [str(i) for i in range(k)]
    elif len(labels) != k:
        raise ValueError(f"{len(labels)} labels for {k} elections")
    _check_names(labels, "labels")
    upper = _upper_pairs(k)
    values = distance_values(dataset, kind)
    cells = np.zeros((k, k), dtype=float)
    cells[upper] = values
    cells[upper[::-1]] = values
    return DistanceMatrix(tuple(labels), cells, kind)


def embedding_stress(points: np.ndarray, targets: np.ndarray) -> float:
    """Normalized squared error between optimally scaled embedded distances
    and target distances; 0 for an all-zero target matrix."""
    t = _square_matrix(targets, "targets", float)
    pts = np.asarray(points, dtype=float)
    if pts.shape != (len(t), 2):
        raise ValueError(f"points must have shape ({len(t)}, 2), got {pts.shape}")
    iu = _upper_pairs(len(t))
    t = t[iu][None]
    denom = (t**2).sum(axis=1)
    if denom[0] == 0.0:
        return 0.0
    return float(_measure(pts.T[None], iu, t, denom)[3][0])


def _measure(
    points: np.ndarray, iu: tuple, t: np.ndarray, denom: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # for a (B, 2, k) stack: the pair differences ([b, c, j, i] = p_i - p_j),
    # the pair distances, the scales that best fit them to the targets and the
    # stresses at those scales.  iu: the cells above the diagonal; t: the
    # C-ordered (B, P) targets there; denom: (t**2).sum(axis=1).  Each row sums
    # and takes its dot by BLAS as a lone 1-D layout would, so no layout's bits
    # depend on the others
    diffs = points[:, :, None, :] - points[:, :, :, None]
    sq = diffs**2
    dists = np.sqrt(sq[:, 0] + sq[:, 1])
    e = np.ascontiguousarray(dists[:, iu[0], iu[1]])
    ee = (e**2).sum(axis=1)
    dot = np.matmul(e[:, None, :], t[:, :, None])[:, 0, 0]
    scale = np.divide(dot, ee, out=np.zeros_like(ee), where=ee > 0)
    return diffs, dists, scale, ((scale[:, None] * e - t) ** 2).sum(axis=1) / denom


def _spring_phase(
    points: np.ndarray, ideal: np.ndarray, iterations: int, temperature: float
) -> None:
    # points (B, k, 2) and ideal (B, k, k): B layouts of k points, moved as
    # one (B, 2, k) stack.  Every operation is elementwise or sums within one
    # layout in the order a lone layout sums, so no layout's bits depend on
    # the others
    p = points.transpose(0, 2, 1).copy()
    eye = np.eye(points.shape[1])
    for it in range(iterations):
        diffs = p[:, :, None, :] - p[:, :, :, None]
        sq = diffs**2
        dists = np.sqrt(sq[:, 0] + sq[:, 1]) + eye
        # spring force toward the ideal length for every pair; a point's
        # own term, -1 times a +0.0 difference, is -0.0 and changes no sum
        coeff = (ideal - dists) / dists
        force = (coeff[:, None] * diffs).sum(axis=2)
        f2 = force**2
        norms = np.sqrt(f2[:, :1] + f2[:, 1:])
        norms[norms == 0] = 1.0
        temp = temperature * (1.0 - it / iterations) + 1e-4
        p += force / norms * np.minimum(norms, temp)
    points[:] = p.transpose(0, 2, 1)


def _descent_tail(
    points: np.ndarray, targets: np.ndarray, iterations: int
) -> list[list[float]]:
    """Gradient steps on the stress with a backtracking line search, for B
    layouts (B, k, 2) in place; returns each layout's stress trace.

    The line searches run in lockstep, but each layout has its own step and
    accepts or rejects its own trials.  targets (B, k, k) must each be
    symmetric, with a nonzero cell above the diagonal.
    """
    iu = _upper_pairs(points.shape[1])
    t = np.ascontiguousarray(targets[:, iu[0], iu[1]])
    denom = (t**2).sum(axis=1)
    p = points.transpose(0, 2, 1).copy()
    # the measurement of the point sets last accepted, or started from
    diffs, dists, scale, current = _measure(p, iu, t, denom)
    step = np.full(len(p), 0.1)
    trace = []
    for _ in range(iterations):
        resid = scale[:, None, None] * dists - targets
        # coincident points pull on each other in no direction, as SMACOF's
        # b_ij = 0 where d_ij = 0
        ratio = np.divide(resid, dists, out=np.zeros(dists.shape), where=dists > 0)
        grad = (2.0 * scale)[:, None, None] * (ratio[:, None] * diffs).sum(axis=2)
        trial_step = step.copy()
        searching = np.ones(len(p), dtype=bool)
        for _ in range(8):
            candidate = p - trial_step[:, None, None] * grad
            measured = _measure(candidate, iu, t, denom)
            accept = searching & (measured[3] < current)
            for held, new in zip((p, diffs, dists, scale, current), (candidate, *measured)):
                held[accept] = new[accept]
            step[accept] = trial_step[accept] * 1.5
            searching &= ~accept
            trial_step[searching] /= 2.0
            if not searching.any():
                break
        step[searching] = trial_step[searching]
        trace.append(current.copy())
    points[:] = p.transpose(0, 2, 1)
    return np.array(trace).T.tolist()


def _classical_mds(targets: np.ndarray) -> np.ndarray:
    # needs k >= 2, so that two eigenvalues are taken
    d2 = targets**2
    k = targets.shape[0]
    j = np.eye(k) - np.full((k, k), 1.0 / k)
    gram = -0.5 * j @ d2 @ j
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1][:2]
    # row-major, as the random spring starts are
    return np.ascontiguousarray(vecs[:, order] * np.sqrt(np.maximum(vals[order], 0.0)))


def _normalize_unit_square(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    shifted = points - lo
    extent = shifted.max()
    if extent == 0:
        return np.full_like(points, 0.5)
    scaled = shifted / extent
    # center the shorter axis inside the square
    pad = (1.0 - scaled.max(axis=0)) / 2.0
    return scaled + pad


def embed(dm: DistanceMatrix, config: EmbedConfig = EmbedConfig()) -> Embedding:
    """Deterministic 2-D layout whose Euclidean distances approximate the
    matrix, by spring forces (or classical scaling) plus a strictly
    non-increasing stress descent tail; ``embed_all`` of the one matrix."""
    return embed_all([dm], config)[0]


def embed_all(
    dms: Sequence[DistanceMatrix], config: EmbedConfig = EmbedConfig()
) -> list[Embedding]:
    """One ``embed`` per matrix, in order, each equal to it byte for byte.

    All layouts with the same number of points move as one coordinate-major
    stack, through the spring phase (or from their classical scaling starts)
    and then one descent tail, so numpy's per-call cost is paid once per step
    for the stack, not once per matrix.  The tail's line searches run in
    lockstep, but each layout accepts or rejects its own trials.
    """
    if config.method not in ("spring", "mds"):
        raise ValueError(f"unknown embed method {config.method!r}")
    _check_integer(config.iterations, "iterations")
    if config.iterations < 1:
        raise ValueError("iterations must be positive")
    _check_natural(config.seed, "seed")
    temperature = config.temperature
    if not _is_real(temperature):
        raise ValueError(f"temperature must be a real number, got {temperature!r}")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature!r}")
    for dm in dms:
        if not isinstance(dm, DistanceMatrix):
            raise ValueError(f"expected distance matrices, got {type(dm).__name__}")
    tail_iterations = max(1, config.iterations // 10)
    points = [np.random.default_rng(config.seed).random((len(dm.labels), 2)) for dm in dms]
    # None for an all-zero matrix, which a single election's matrix is too
    ideals = [dm.cells / dm.cells.max() if dm.cells.max() != 0 else None for dm in dms]
    traces = [[0.0] * tail_iterations for _ in dms]
    by_size: dict[int, list[int]] = {}
    for i, ideal in enumerate(ideals):
        if ideal is not None:
            by_size.setdefault(len(ideal), []).append(i)
    for group in by_size.values():
        ideal = np.stack([ideals[i] for i in group])
        if config.method == "mds":
            stack = np.stack([_classical_mds(ideals[i]) for i in group])
        else:
            stack = np.stack([points[i] for i in group])
            _spring_phase(stack, ideal, config.iterations - tail_iterations, temperature)
        group_traces = _descent_tail(stack, ideal, tail_iterations)
        for i, moved, trace in zip(group, stack, group_traces):
            points[i], traces[i] = moved, trace
    out = []
    for dm, pts, ideal, trace in zip(dms, points, ideals, traces):
        final = _normalize_unit_square(pts)
        stress = 0.0 if ideal is None else embedding_stress(final, ideal)
        out.append(Embedding(dm.labels, final, config, stress, tuple(trace)))
    return out


def _class_order(labels: Sequence[str], classes: Mapping[str, str]) -> list[str]:
    seen: list[str] = []
    for label in labels:
        name = classes.get(label, "unknown")
        if name not in seen:
            seen.append(name)
    return seen


def export_map(
    embedding: Embedding,
    classes: Mapping[str, str],
    fmt: str,
    path=None,
) -> str:
    """Render the embedding as "id,x,y,class" CSV or a 1000x1000 SVG map;
    returns the content and writes it to path when given.

    Labels and class names must be strings without commas or line breaks:
    ValueError otherwise, before anything is written.
    """
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'svg'")
    _check_names(embedding.labels, "labels")
    _check_names([classes.get(label, "unknown") for label in embedding.labels], "class names")
    if fmt == "csv":
        lines = ["id,x,y,class"]
        for label, (x, y) in zip(embedding.labels, embedding.points):
            name = classes.get(label, "unknown")
            lines.append(f"{label},{x:.6f},{y:.6f},{name}")
        content = "\n".join(lines) + "\n"
    else:
        content = _render_svg(embedding, classes)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    return content


def _render_svg(embedding: Embedding, classes: Mapping[str, str]) -> str:
    order = _class_order(embedding.labels, classes)
    color = {
        name: PALETTE[i % len(PALETTE)] for i, name in enumerate(order)
    }
    margin, span = 60.0, 880.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
        'width="1000" height="1000">',
        '<rect x="0" y="0" width="1000" height="1000" fill="#ffffff"/>',
    ]
    for label, (x, y) in zip(embedding.labels, embedding.points):
        name = classes.get(label, "unknown")
        cx = margin + span * x
        cy = margin + span * (1.0 - y)
        fill = color[name]
        title = (
            f"<title>{html.escape(label, quote=False)} "
            f"({html.escape(name, quote=False)})</title>"
        )
        if name in COMPASS_KINDS:
            half = 14.0
            corners = (
                f"{cx:.2f},{cy - half:.2f} {cx + half:.2f},{cy:.2f} "
                f"{cx:.2f},{cy + half:.2f} {cx - half:.2f},{cy:.2f}"
            )
            parts.append(
                f'<polygon points="{corners}" fill="{fill}" stroke="#000000" '
                f'stroke-width="2">{title}</polygon>'
            )
            parts.append(
                f'<text x="{cx + half + 4:.2f}" y="{cy + 5:.2f}" '
                f'font-family="sans-serif" font-size="20">{html.escape(name, quote=False)}</text>'
            )
        else:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="7" fill="{fill}" '
                f'fill-opacity="0.8">{title}</circle>'
            )
    legend_y = 30.0
    for name in order:
        parts.append(
            f'<rect x="20" y="{legend_y - 12:.2f}" width="16" height="16" '
            f'fill="{color[name]}"/>'
        )
        parts.append(
            f'<text x="42" y="{legend_y + 2:.2f}" font-family="sans-serif" '
            f'font-size="16">{html.escape(name, quote=False)}</text>'
        )
        legend_y += 24.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
