"""File formats: newline-delimited bag records, model documents, CSV, SVG.

Bag files are NDJSON, one record per line: {"id", "y", "params"?, "points"}.
A null "y" is allowed only where labels are not needed (prediction inputs).
Model documents are single JSON objects embedding the full training bags;
predictions need the training points, so model files can be large. Floats
are serialized with their shortest round-trip representation, making
save/load exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import Bag, BagParams, EmbeddingKernelSpec
from .errors import InputError
from .gram import GramMatrix, kernel_fingerprint
from .outer import OuterKernelSpec
from .solver import CoefficientModel

MODEL_FORMAT = "distreg-model-v1"


def bag_to_record(bag: Bag) -> dict:
    rec: dict = {"id": bag.id, "y": bag.label, "points": bag.points.tolist()}
    if bag.params is not None:
        rec["params"] = bag.params.to_dict()
    return rec


def bag_from_record(rec: dict, where: str = "") -> Bag:
    try:
        points = rec["points"]
        bag_id = rec["id"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed bag record{where}: missing {exc}") from exc
    label = rec.get("y")
    if label is not None and (isinstance(label, bool) or not isinstance(label, (int, float))):
        raise InputError(f"malformed bag record{where}: y must be a number or null, got {label!r}")
    params = None
    if rec.get("params") is not None:
        p = rec["params"]
        try:
            params = BagParams(theta=np.asarray(p["theta"], dtype=np.float64), scale=float(p["s"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed bag params{where}: {exc}") from exc
    try:
        return Bag(
            id=str(bag_id),
            points=points,
            label=None if label is None else float(label),
            params=params,
        )
    except InputError as exc:
        raise InputError(f"{exc}{where}") from exc


def write_bags(bags: Iterable[Bag], path: str | Path) -> None:
    with open(path, "w") as fh:
        for bag in bags:
            fh.write(json.dumps(bag_to_record(bag)) + "\n")


def read_bags(path: str | Path, require_labels: bool = False) -> list[Bag]:
    """Read an NDJSON bag file; enforces one shared point dimension."""
    bags = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                bags.append(bag_from_record(rec, where=f" at {path}:{lineno}"))
    except OSError as exc:
        raise InputError(f"cannot read bag file {path}: {exc}") from exc
    dims = {b.dim for b in bags}
    if len(dims) > 1:
        raise InputError(f"bag file {path} mixes point dimensions {sorted(dims)}")
    if require_labels:
        missing = [b.id for b in bags if b.label is None]
        if missing:
            raise InputError(
                f"bag file {path} has unlabeled bags (need y for fitting): {missing[:5]}"
            )
    return bags


def save_model(model: CoefficientModel, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "scheme": model.scheme,
        "lambda": model.lam,
        "embedding_kernel": model.embedding_kernel.to_dict(),
        "outer_kernel": model.outer_kernel.to_dict(),
        "kernel_fingerprint": kernel_fingerprint(model.outer_kernel, model.embedding_kernel),
        "alpha": [float(a) for a in model.alpha],
        "train_bags": [bag_to_record(b) for b in model.train_bags],
    }
    # One json.dumps goes through the C encoder; json.dump streams through the
    # pure-Python one. The bytes are the same.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_model(path: str | Path) -> CoefficientModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise InputError(f"model file {path} has format {found!r}, expected {MODEL_FORMAT!r}")
    try:
        return CoefficientModel(
            alpha=np.asarray(doc["alpha"], dtype=np.float64),
            lam=float(doc["lambda"]),
            train_bags=tuple(
                bag_from_record(r, where=f" in model file {path}") for r in doc["train_bags"]
            ),
            outer_kernel=OuterKernelSpec.from_dict(doc["outer_kernel"]),
            embedding_kernel=EmbeddingKernelSpec.from_dict(doc["embedding_kernel"]),
            scheme=doc["scheme"],
        )
    except KeyError as exc:
        raise InputError(f"model file {path} has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc


def format_cell(value) -> str:
    # repr round-trips floats exactly; everything else prints plainly.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def write_gram_csv(g: GramMatrix, path: str | Path) -> None:
    """Row-major Gram dump with a header of column bag ids, for debugging."""
    write_csv(path, ["row_id", *g.col_ids], (
        [rid, *row] for rid, row in zip(g.row_ids, (list(map(float, r)) for r in g.values))
    ))


def write_svg_loglog(
    path: str | Path,
    points: Sequence[tuple[float, float]],
    xlabel: str,
    ylabel: str,
    fit_slope: float | None = None,
    fit_intercept: float | None = None,
    title: str = "",
) -> None:
    """Minimal hand-rolled log-log plot: one polyline of data, optional fit line."""
    if any(x <= 0 or y <= 0 for x, y in points):
        raise InputError("log-log plot needs strictly positive coordinates")
    width, height, margin = 640, 480, 70
    xs = np.log10([p[0] for p in points])
    ys = np.log10([p[1] for p in points])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = 0.05 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 20}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="20" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {height / 2:.1f})">{ylabel}</text>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="30" text-anchor="middle" font-size="16">{title}</text>'
        )
    for log_x, log_y in zip(xs, ys):
        parts.append(
            f'<text x="{px(log_x):.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" '
            f'font-size="11">{10 ** log_x:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{py(log_y) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{10 ** log_y:.3g}</text>'
        )
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="steelblue"/>')
    if fit_slope is not None and fit_intercept is not None:
        # fit was done in natural log; convert to log10 coordinates
        y0 = (fit_slope * (x_lo * np.log(10)) + fit_intercept) / np.log(10)
        y1 = (fit_slope * (x_hi * np.log(10)) + fit_intercept) / np.log(10)
        parts.append(
            f'<line x1="{px(x_lo):.2f}" y1="{py(float(y0)):.2f}" x2="{px(x_hi):.2f}" '
            f'y2="{py(float(y1)):.2f}" stroke="firebrick" stroke-dasharray="6,4"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
