"""Distance matrices over datasets, 2-D embeddings, and map export."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .elections import COMPASS_KINDS, Election
from .metrics import distance_values

__all__ = [
    "PALETTE",
    "DistanceMatrix",
    "EmbedConfig",
    "Embedding",
    "distance_matrix",
    "embed",
    "embedding_stress",
    "export_map",
]

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31", "#843c39", "#7b4173", "#3182bd",
)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative distances between labeled elections."""

    labels: tuple[str, ...]
    cells: np.ndarray
    metric: str

    def __post_init__(self):
        arr = np.asarray(self.cells, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"cells must be square, got shape {arr.shape}")
        if arr.shape[0] != len(self.labels):
            raise ValueError(
                f"{len(self.labels)} labels for {arr.shape[0]} rows"
            )
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
    which checks the kind, the shapes and the guard."""
    if not dataset:
        raise ValueError("need at least one election")
    k = len(dataset)
    if labels is None:
        labels = [str(i) for i in range(k)]
    elif len(labels) != k:
        raise ValueError(f"{len(labels)} labels for {k} elections")
    upper = np.triu_indices(k, k=1)
    values = distance_values(dataset, kind)
    cells = np.zeros((k, k), dtype=float)
    cells[upper] = values
    cells[upper[::-1]] = values
    return DistanceMatrix(tuple(labels), cells, kind)


def _condensed(points: np.ndarray) -> np.ndarray:
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    iu = np.triu_indices(points.shape[0], k=1)
    return dists[iu]


def embedding_stress(points: np.ndarray, targets: np.ndarray) -> float:
    """Normalized squared error between optimally scaled embedded distances
    and target distances; 0 for an all-zero target matrix."""
    t = np.asarray(targets, dtype=float)[np.triu_indices(len(points), k=1)]
    denom = float((t**2).sum())
    if denom == 0.0:
        return 0.0
    e = _condensed(np.asarray(points, dtype=float))
    ee = float((e**2).sum())
    scale = float(e @ t) / ee if ee > 0 else 0.0
    return float(((scale * e - t) ** 2).sum() / denom)


def _spring_phase(
    points: np.ndarray, ideal: np.ndarray, iterations: int, temperature: float
) -> None:
    k = points.shape[0]
    for it in range(iterations):
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, 1.0)
        # spring force toward the ideal length for every pair
        coeff = (ideal - dists) / dists
        np.fill_diagonal(coeff, 0.0)
        force = (coeff[:, :, None] * diffs).sum(axis=1)
        norms = np.sqrt((force**2).sum(axis=1, keepdims=True))
        norms[norms == 0] = 1.0
        temp = temperature * (1.0 - it / iterations) + 1e-4
        step = force / norms * np.minimum(norms, temp)
        points += step


def _descent_tail(
    points: np.ndarray, targets: np.ndarray, iterations: int
) -> list[float]:
    trace = []
    current = embedding_stress(points, targets)
    k = points.shape[0]
    iu = np.triu_indices(k, k=1)
    t = targets[iu]
    step = 0.1
    for _ in range(iterations):
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, 1.0)
        e = dists[iu]
        ee = float((e**2).sum())
        scale = float(e @ t) / ee if ee > 0 else 0.0
        resid = np.zeros((k, k))
        resid[iu] = scale * e - t
        resid = resid + resid.T
        # coincident points pull on each other in no direction, as SMACOF's
        # b_ij = 0 where d_ij = 0
        ratio = np.divide(resid, dists, out=np.zeros((k, k)), where=dists > 0)
        grad = 2.0 * scale * (ratio[:, :, None] * diffs).sum(axis=1)
        improved = False
        trial_step = step
        for _ in range(8):
            candidate = points - trial_step * grad
            value = embedding_stress(candidate, targets)
            if value < current:
                points[:] = candidate
                current = value
                step = trial_step * 1.5
                improved = True
                break
            trial_step /= 2.0
        if not improved:
            step = trial_step
        trace.append(current)
    return trace


def _classical_mds(targets: np.ndarray) -> np.ndarray:
    d2 = targets**2
    k = targets.shape[0]
    j = np.eye(k) - np.full((k, k), 1.0 / k)
    gram = -0.5 * j @ d2 @ j
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1][:2]
    coords = vecs[:, order] * np.sqrt(np.maximum(vals[order], 0.0))
    if coords.shape[1] < 2:
        coords = np.hstack([coords, np.zeros((k, 1))])
    return coords


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
    non-increasing stress descent tail."""
    if config.method not in ("spring", "mds"):
        raise ValueError(f"unknown embed method {config.method!r}")
    if config.iterations < 1:
        raise ValueError("iterations must be positive")
    k = len(dm.labels)
    targets = dm.cells
    rng = np.random.default_rng(config.seed)
    points = rng.random((k, 2))
    tail_iterations = max(1, config.iterations // 10)
    if k == 1:
        final = np.array([[0.5, 0.5]])
        return Embedding(dm.labels, final, config, 0.0, (0.0,) * tail_iterations)
    if targets.max() == 0:
        final = _normalize_unit_square(points)
        return Embedding(dm.labels, final, config, 0.0, (0.0,) * tail_iterations)
    ideal = targets / targets.max()
    if config.method == "mds":
        points = _classical_mds(ideal)
    else:
        _spring_phase(
            points, ideal, config.iterations - tail_iterations, config.temperature
        )
    trace = _descent_tail(points, ideal, tail_iterations)
    final = _normalize_unit_square(points)
    stress = embedding_stress(final, ideal)
    return Embedding(dm.labels, final, config, stress, tuple(trace))


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
    returns the content and writes it to path when given."""
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'svg'")
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
        title = f"<title>{escape(label)} ({escape(name)})</title>"
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
                f'font-family="sans-serif" font-size="20">{escape(name)}</text>'
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
            f'font-size="16">{escape(name)}</text>'
        )
        legend_y += 24.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
