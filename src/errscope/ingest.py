"""Loading and validation of prediction files (wide CSV and JSON)."""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .exceptions import (
    DuplicateModelName,
    LengthMismatch,
    MalformedHeader,
    NonFinite,
    NonNumeric,
    UnknownModel,
)

# Rows converted to Python objects at a time: it bounds a writer's memory, not its bytes.
ROW_CHUNK = 1 << 14
_NEEDS_QUOTES = re.compile('[,"\r\n]')
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # not valid Unicode; a JSON escape can carry one


def rows(template: str, *columns):
    """template % row over the rows of the equal-length columns, ROW_CHUNK rows at a time.

    A numpy column goes through tolist(), so a float64 formats as a Python float; any
    other sequence is sliced as it is. chain, not a generator: no frame resumes per row.
    """
    def chunk(i):
        part = slice(i, i + ROW_CHUNK)
        return map(template.__mod__, zip(*(
            c[part].tolist() if isinstance(c, np.ndarray) else c[part] for c in columns)))
    return chain.from_iterable(map(chunk, range(0, len(columns[0]), ROW_CHUNK)))


def _csv_field(text: str) -> str:
    """One CSV field: quoted, with each quote doubled, when it holds a comma, quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Ground truth plus one float64 prediction column per named model.

    Model column order is significant and preserved from the source file.
    Instance ids are opaque; duplicates are legal but worth a warning.
    errors holds the signed errors prediction - truth (positive means
    overestimation), computed once and checked finite here.
    """

    instance_ids: tuple[str, ...]
    y_true: np.ndarray  # (n,)
    model_names: tuple[str, ...]
    predictions: np.ndarray  # (n, m); column j holds model_names[j]
    errors: np.ndarray = field(init=False, repr=False)  # (n, m), like predictions

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
        for name in filter(_LONE_SURROGATE.search, names):  # raises on the first
            raise MalformedHeader(f"model name {name!r} is not valid Unicode")
        if len(set(names)) != len(names):
            dupes = sorted({m for m in names if names.count(m) > 1})
            raise DuplicateModelName(f"duplicate model column(s): {', '.join(dupes)}")
        if self.predictions.shape != (n, len(names)):
            raise LengthMismatch(
                f"prediction matrix has shape {self.predictions.shape} for {n} "
                f"instances of {len(names)} models"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            errors = self.predictions - self.y_true[:, None]
        # A non-finite input always gives a non-finite error, so the inputs
        # are searched only when some error is not finite.
        if not np.isfinite(errors).all():
            bad = ~np.isfinite(np.column_stack([self.y_true, self.predictions]))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                label = ("y_true",) + names
                raise NonFinite(f"non-finite value in {label[j]!r} at instance {i}")
            i, j = np.argwhere(~np.isfinite(errors))[0]
            raise NonFinite(f"error of model {names[j]!r} at instance {i} "
                            "overflows float64")
        object.__setattr__(self, "errors", errors)

    @property
    def n(self) -> int:
        return self.y_true.size

    def index(self, name: str) -> int:
        """Column of one model in predictions and errors, looked up by name."""
        if name not in self.model_names:
            raise UnknownModel(name)
        return self.model_names.index(name)

    def duplicate_ids(self) -> list[str]:
        """Instance ids that occur more than once, ordered by each id's first repeat."""
        seen, dups = set(), {}
        for iid in self.instance_ids:
            if iid in seen:
                dups[iid] = None
            seen.add(iid)
        return list(dups)

    def write_csv(self, fh) -> None:
        """Write the canonical wide CSV to an open text file (parse is its left inverse).

        Open the file with newline="". Rows are streamed from the arrays through
        rows(), so no copy of the table or the text is built.
        """
        fh.write(",".join(map(_csv_field, ("id", "y_true") + self.model_names)) + "\n")
        ids = self.instance_ids
        if _NEEDS_QUOTES.search("".join(ids)):  # plain ids pass through untouched
            ids = tuple(map(_csv_field, ids))
        fh.writelines(rows("%s" + ",%r" * (1 + len(self.model_names)) + "\n",
                           ids, self.y_true, *self.predictions.T))


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

