"""File formats: newline-delimited bag records, model documents, CSV.

Bag files are NDJSON, one record per line: {"id", "y", "params"?, "points"}.
A null "y" is allowed only where labels are not needed (prediction inputs).
Model documents are single JSON objects embedding the full training bags;
predictions need the training points, so model files can be large. They are
written and read one training-bag record at a time: each record is encoded
on its own and its points are parsed straight into an array, so neither the
whole document string nor Python lists of every point exist at once. Floats
are serialized with their shortest round-trip representation, making
save/load exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence, TextIO

import numpy as np

from .embedding import Bag, BagParams, EmbeddingKernelSpec, float_points
from .errors import ConfigError, InputError, config_float
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
            theta = float_points(p["theta"])
            if theta.ndim > 1 or not np.isfinite(theta).all():
                raise ValueError(f"theta must be a finite number or flat list, got {p['theta']!r}")
            params = BagParams(theta=theta, scale=config_float(p["s"], "'s'"))
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise InputError(f"malformed bag params{where}: {exc}") from exc
    try:
        return Bag(str(bag_id), points, label, params)
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
                except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
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
    """Write the model document, the bytes of json.dumps(doc) + "\\n", one
    training-bag record at a time."""
    head = {
        "format": MODEL_FORMAT,
        "scheme": model.scheme,
        "lambda": model.lam,
        "embedding_kernel": model.embedding_kernel.to_dict(),
        "outer_kernel": model.outer_kernel.to_dict(),
        "kernel_fingerprint": kernel_fingerprint(model.outer_kernel, model.embedding_kernel),
        "alpha": [float(a) for a in model.alpha],
        "train_bags": [],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-2])  # all but the empty list's "]}"
        for k, bag in enumerate(model.train_bags):
            fh.write((", " if k else "") + json.dumps(bag_to_record(bag)))
        fh.write("]}\n")


def _points_as_array(obj: dict) -> dict:
    """json object_hook: a record's "points" list becomes a float64 array as soon
    as the record is parsed, by Bag's own rule (`float_points`). A list that
    does not convert is left for Bag to reject with its own message."""
    points = obj.get("points")
    if isinstance(points, list):
        try:
            obj["points"] = float_points(points)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def load_model(path: str | Path) -> CoefficientModel:
    try:
        with open(path) as fh:
            doc = json.load(fh, object_hook=_points_as_array)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise InputError(f"model file {path} has format {found!r}, expected {MODEL_FORMAT!r}")
    try:
        kspec = OuterKernelSpec.from_dict(doc["outer_kernel"])
        espec = EmbeddingKernelSpec.from_dict(doc["embedding_kernel"])
        stored, computed = doc.get("kernel_fingerprint"), kernel_fingerprint(kspec, espec)
        if stored != computed:
            raise ValueError(f"kernel_fingerprint is {stored!r}, its kernels hash to {computed!r}")
        if not isinstance(doc["alpha"], list):
            raise ValueError("'alpha' must be a list of numbers")
        lam = config_float(doc["lambda"], "'lambda'")
        if not lam > 0:
            raise ValueError(f"'lambda' must be positive, got {lam!r}")
        return CoefficientModel(
            alpha=np.array([config_float(a, "'alpha' entry") for a in doc["alpha"]]),
            lam=lam,
            train_bags=tuple(
                bag_from_record(r, where=f" in model file {path}") for r in doc["train_bags"]
            ),
            outer_kernel=kspec,
            embedding_kernel=espec,
            scheme=doc["scheme"],
        )
    except KeyError as exc:
        raise InputError(f"model file {path} has no field {exc}") from exc
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc


def write_csv(out: str | Path | TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV rows to a path or an open text stream, each ending in '\\n'.

    Fields holding ',', '"', '\\n' or '\\r' are quoted. A Python float prints as
    its shortest round-trip repr; convert numpy scalars to float first.
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            return write_csv(fh, header, rows)
    # csv quotes fields holding a character of its terminator; one write per row.
    lines = SimpleNamespace(write=lambda line: out.write(line[:-2] + "\n"))
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_gram_csv(g: GramMatrix, path: str | Path) -> None:
    """Row-major Gram dump with a header of column bag ids, for debugging."""
    write_csv(path, ["row_id", *g.ids], ([i, *r.tolist()] for i, r in zip(g.ids, g.values)))

