"""Loading and validation of prediction files (wide CSV and JSON)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DuplicateModelName,
    LengthMismatch,
    MalformedHeader,
    NonFinite,
    NonNumeric,
    UnknownModel,
)
from .metrics import ErrorVector, compute_errors


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Ground truth plus one float64 prediction column per named model.

    Model column order is significant and preserved from the source file.
    Instance ids are opaque; duplicates are legal but worth a warning.
    """

    instance_ids: tuple[str, ...]
    y_true: np.ndarray  # (n,)
    model_names: tuple[str, ...]
    predictions: np.ndarray  # (n, m); column j holds model_names[j]

    def __post_init__(self):
        object.__setattr__(self, "y_true", np.asarray(self.y_true, dtype=float))
        object.__setattr__(self, "predictions", np.asarray(self.predictions, dtype=float))
        n = self.y_true.size
        if self.y_true.ndim != 1 or n < 1:
            raise LengthMismatch("prediction set must contain at least one instance")
        if len(self.instance_ids) != n:
            raise LengthMismatch(f"{len(self.instance_ids)} ids for {n} target values")
        names = self.model_names
        if not names:
            raise MalformedHeader("at least one model column is required")
        if "" in names:
            raise DuplicateModelName("model names must be non-empty")
        if len(set(names)) != len(names):
            dupes = sorted({m for m in names if names.count(m) > 1})
            raise DuplicateModelName(f"duplicate model column(s): {', '.join(dupes)}")
        if self.predictions.shape != (n, len(names)):
            raise LengthMismatch(
                f"prediction matrix has shape {self.predictions.shape} for {n} "
                f"instances of {len(names)} models"
            )
        bad = ~np.isfinite(np.column_stack([self.y_true, self.predictions]))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            label = ("y_true",) + names
            raise NonFinite(f"non-finite value in {label[j]!r} at instance {i}")

    def __eq__(self, other):
        if not isinstance(other, PredictionSet):
            return NotImplemented
        return (self.instance_ids == other.instance_ids
                and self.model_names == other.model_names
                and np.array_equal(self.y_true, other.y_true)
                and np.array_equal(self.predictions, other.predictions))

    @property
    def n(self) -> int:
        return self.y_true.size

    def column(self, name: str) -> np.ndarray:
        """Predictions of one model, looked up by name."""
        if name not in self.model_names:
            raise UnknownModel(name)
        return self.predictions[:, self.model_names.index(name)]

    def duplicate_ids(self) -> list[str]:
        """Instance ids that occur more than once, in first-seen order."""
        seen, dups = set(), []
        for iid in self.instance_ids:
            if iid in seen and iid not in dups:
                dups.append(iid)
            seen.add(iid)
        return dups

    def to_csv(self) -> str:
        """Canonical wide-CSV serialization (parse is its left inverse)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("id", "y_true") + self.model_names)
        # tolist() gives Python floats, whose repr is the shortest exact form;
        # converting whole columns avoids a list object per row.
        columns = [self.y_true.tolist()] + self.predictions.T.tolist()
        writer.writerows(zip(self.instance_ids, *(map(repr, c) for c in columns)))
        return buf.getvalue()


def _non_numeric(row: list[str], header: list[str], lineno: int) -> NonNumeric:
    """The error naming the first cell of a row that is not a number."""
    for text, column in zip(row[1:], header[1:]):
        try:
            float(text)
        except ValueError:
            break
    return NonNumeric(f"cannot parse {text!r} as a number (row {lineno}, column {column!r})")


def _parse_csv(text: str) -> PredictionSet:
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise MalformedHeader("empty file")
    if len(header) < 3 or header[0] != "id" or header[1] != "y_true":
        raise MalformedHeader(
            "header must be 'id,y_true,<model>...', got " + ",".join(header)
        )
    ids: list[str] = []
    values: list[float] = []  # row-major, len(header) - 1 per row
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise LengthMismatch(
                f"row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        ids.append(row[0])
        try:
            values.extend(map(float, row[1:]))
        except ValueError:
            raise _non_numeric(row, header, lineno) from None
    table = np.array(values, dtype=float).reshape(len(ids), len(header) - 1)
    return PredictionSet(tuple(ids), table[:, 0], tuple(header[2:]), table[:, 1:])


def _number(value, where: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise NonNumeric(f"{where} is not a number")
    return value


def _parse_json(text: str) -> PredictionSet:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"invalid JSON: {exc}") from None
    instances = payload.get("instances") if isinstance(payload, dict) else None
    if not isinstance(instances, list) or not instances:
        raise MalformedHeader("JSON must contain a non-empty 'instances' array")

    model_names: list[str] = []
    ids, rows = [], []
    for i, inst in enumerate(instances):
        preds = inst.get("predictions", {}) if isinstance(inst, dict) else None
        if not isinstance(preds, dict):
            raise MalformedHeader(f"instance {i} is not an object with a 'predictions' object")
        if i == 0:
            model_names = list(preds)
            if not model_names:
                raise MalformedHeader("instances must carry a non-empty 'predictions' map")
        elif set(preds) != set(model_names):
            raise LengthMismatch(f"instance {i} lists a different model set than instance 0")
        ids.append(str(inst.get("id", i)))
        rows.append([_number(inst.get("y_true"), f"instance {i}: y_true")]
                    + [_number(preds[m], f"instance {i}: prediction {m!r}") for m in model_names])
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:
        raise NonFinite("a number is too large for float64") from None
    return PredictionSet(tuple(ids), values[:, 0], tuple(model_names), values[:, 1:])


def parse_predictions(content: bytes | str, format: str = "csv") -> PredictionSet:
    """Parse raw file content into a validated PredictionSet.

    Column order of models is preserved; rows are kept in file order. Bytes
    are decoded as UTF-8, skipping a leading byte-order mark.
    """
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"file is not UTF-8 text: {exc}") from None
    if format == "csv":
        return _parse_csv(content)
    if format == "json":
        return _parse_json(content)
    raise ValueError(f"unknown format {format!r}")


def select_pair(ps: PredictionSet, name_a: str, name_b: str) -> tuple[ErrorVector, ErrorVector]:
    """Error vectors for two named models (A drawn on x, B on y downstream)."""
    return (
        compute_errors(ps.y_true, ps.column(name_a), model_name=name_a),
        compute_errors(ps.y_true, ps.column(name_b), model_name=name_b),
    )
