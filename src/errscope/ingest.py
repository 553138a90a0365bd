"""Loading and validation of prediction files (wide CSV and JSON)."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from ._text import _LOW_BYTES, Strings, decimals, row_chunks
from .exceptions import (
    DuplicateModelName,
    LengthMismatch,
    MalformedHeader,
    NonFinite,
    NonNumeric,
    UnknownModel,
)

_NEEDS_QUOTES = re.compile('[,"\r\n]')
_QUOTED_BYTES = np.frombuffer(b',"\r\n', dtype=np.uint8)
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # not valid Unicode; a JSON escape can carry one


def _csv_field(text: str) -> str:
    """One CSV field: quoted, with each quote doubled, when it holds a comma, quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _new(ordered: np.ndarray) -> np.ndarray:
    """Whether each value of a sorted array differs from the one before it."""
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return new


def _words(blob: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 8 bytes of blob from each offset at, clipped to its bytes, as a little-endian
    uint64; the bytes past its end read as 0."""
    if blob.size < 8:
        blob = np.append(blob, np.zeros(8, dtype=np.uint8))
    cut = blob.size - 8
    out = np.ndarray((cut + 1,), "<u8", blob, 0, (1,))[np.clip(at, 0, cut)]  # one at each byte
    late = at > cut  # only the last 8 bytes are copied, with 8 zeros after them
    tail = np.append(blob[cut:], np.zeros(8, dtype=np.uint8))
    out[late] = np.ndarray((9,), "<u8", tail, 0, (1,))[at[late] - cut]
    return out.astype(np.uint64, copy=False)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Ground truth plus one float64 prediction column per named model.

    Model column order is significant and preserved from the source file.
    Instance ids are opaque; duplicates are legal but worth a warning. They are kept
    as Strings, their UTF-8 bytes; any sequence of str is encoded once.
    errors holds the signed errors prediction - truth (positive means
    overestimation), computed once and checked finite here.
    """

    instance_ids: Strings
    y_true: np.ndarray  # (n,)
    model_names: tuple[str, ...]
    predictions: np.ndarray  # (n, m); column j holds model_names[j]
    errors: np.ndarray = field(init=False, repr=False)  # (n, m), like predictions

    def __post_init__(self):
        if not isinstance(self.instance_ids, Strings):
            object.__setattr__(self, "instance_ids", Strings.of(self.instance_ids))
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
            raise DuplicateModelName(
                f"duplicate model column(s): {', '.join(map(repr, dupes))}")
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
            raise UnknownModel(f"unknown model {name!r}; models: "
                               f"{', '.join(map(repr, self.model_names))}")
        return self.model_names.index(name)

    def duplicate_ids(self, limit: int | None = None) -> list[str]:
        """Instance ids that occur more than once, ordered by each id's first repeat; only
        the first limit of them are decoded, when a limit is given.

        Ids are matched by their bytes. Rows are sorted by width, first 8 bytes and last 8
        bytes at once. Those three are the whole of an id of at most 16 bytes; a longer id
        is compared whole only when all three repeat.
        """
        blob, offsets = self.instance_ids.blob, self.instance_ids.offsets
        width = np.diff(offsets)
        first = _words(blob, offsets[:-1])
        first &= _LOW_BYTES.take(np.minimum(width, 8))
        last = _words(blob, offsets[1:] - 8)
        np.copyto(last, first, where=width <= 8)
        # Equal ids have equal last words and equal first words. Most often the words of one
        # kind never repeat, and no argsort is needed.
        if _new(np.sort(last)).all() or _new(np.sort(first)).all():
            return []
        order = np.lexsort((last, first, width))  # stable: the rows of a group ascend
        new = _new(width[order]) | _new(first[order]) | _new(last[order])
        repeated = ~(new & np.append(new[1:], True))  # in a group of two rows or more
        long = width[order] > 16
        # A short id is first repeated at the second row of its group.
        short = order[~new & np.append(False, new[:-1]) & ~long]
        rows = np.sort(order[repeated & long])
        seen, repeats, view = set(), {}, memoryview(blob)
        for row, a, b in zip(rows.tolist(), offsets[rows].tolist(), offsets[rows + 1].tolist()):
            iid = view[a:b].tobytes()
            if iid in seen:
                repeats.setdefault(iid, row)
            seen.add(iid)
        rows = np.sort(np.append(short, np.fromiter(repeats.values(), short.dtype)))[:limit]
        return [str(view[a:b], "utf-8", "surrogatepass")
                for a, b in zip(offsets[rows].tolist(), offsets[rows + 1].tolist())]

    def write_csv(self, fh) -> None:
        """Write the canonical wide CSV to an open text file (parse is its left inverse).

        Open it as every output is opened, with encoding="utf-8" and newline="\\n", so LF
        is written untranslated. Rows are written from the arrays one chunk at a time, so
        no copy of the table or the text is built.
        """
        fh.write(",".join(map(_csv_field, ("id", "y_true") + self.model_names)) + "\n")
        ids = self.instance_ids  # written as bytes; plain ids pass through untouched
        if np.isin(ids.blob, _QUOTED_BYTES, kind="table").any():
            ids = Strings.of(map(_csv_field, ids.tolist()))
        rows = row_chunks("%s" + ",%r" * (1 + len(self.model_names)) + "\n",
                          ids, self.y_true, *self.predictions.T)
        with contextlib.closing(rows):  # a failed write joins the writer's helper too
            fh.writelines(rows)


def _non_numeric(row: list[str], header: list[str], lineno: int) -> NonNumeric:
    """The error naming the first cell of a row that is not a number."""
    for text, column in zip(row[1:], header[1:]):
        try:
            float(text)
        except ValueError:
            break
    return NonNumeric(f"cannot parse {text!r} as a number (row {lineno}, column {column!r})")


def _header_ok(header: list[str]) -> bool:
    return len(header) >= 3 and header[0] == "id" and header[1] == "y_true"


def _read_csv(text: str) -> tuple[Strings, list[str], np.ndarray]:
    """(ids, header, values) through the csv module: y_true then the models, one row per id.

    This path names every error of the file.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    ids: list[str] = []
    values: list[float] = []  # row-major, len(header) - 1 per row
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedHeader("empty file")
        if not _header_ok(header):
            raise MalformedHeader(
                f"header must be 'id,y_true,<model>...', got {','.join(header)!r}"
            )
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
    except csv.Error as exc:  # such as a cell past csv.field_size_limit()
        raise MalformedHeader(f"row {reader.line_num}: {exc}") from None
    values = np.array(values, dtype=float).reshape(len(ids), len(header) - 1)
    return Strings.of(ids), header, values


# A quote needs the csv module; a CR left after CRLF ends a line for csv but not for the
# split on LF; csv before Python 3.11 rejects NUL.
_NOT_PLAIN = ('"', "\r", "\x00")


def _read_plain_csv(text: str) -> tuple[Strings, list[str], np.ndarray] | None:
    """What _read_csv returns, read from the text's bytes, or None to hand the text over.

    Only a file that _read_csv reads the same, bit for bit, is taken: one with no quote,
    no lone CR, no line past csv.field_size_limit(), at least one row, and as many commas
    on each line as on the header's, so no blank line either. Its numbers are read by
    decimals(), whose None, for a cell float() refuses, hands the text over too. Anything
    else, errors included, goes to _read_csv, which names them.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in _NOT_PLAIN):
        return None
    header = text[:text.find("\n") % (len(text) + 1)].split(",")  # no copy of the rest
    k = len(header)
    if not _header_ok(header):
        return None
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    lfs = np.flatnonzero(data == ord("\n"))
    if not text.endswith("\n"):
        lfs = np.append(lfs, data.size)  # the last line ends at the end
    commas = np.flatnonzero(data == ord(","))
    if lfs.size < 2 or commas.size != (k - 1) * lfs.size:  # a header and a row or more
        return None
    # The k separators of each line, its k - 1 commas then its LF. With k - 1 commas to a
    # line on the whole, each line holds exactly its own when the first lies past the LF
    # before it and the last before its own LF.
    seps = np.empty((lfs.size, k), dtype=np.int64)
    seps[:, :-1] = commas.reshape(-1, k - 1)
    seps[:, -1] = lfs
    del lfs, commas
    ends = seps[:, -1]
    if (seps[1:, 0] < ends[:-1]).any() or (seps[:, -2] > ends).any():
        return None
    # A line's bytes, never fewer than the characters that csv's field limit counts.
    if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    # Row j's id runs from one past the LF that ends line j to its first comma. The ids are
    # cut 2^16 rows at a time: an index over every id byte at once takes 8 bytes per id
    # byte, and set the parse's peak at 10^6 rows.
    starts = ends[:-1] + 1
    lengths = seps[1:, 0] - starts
    offsets = np.zeros(len(seps), dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    blob = np.empty(offsets[-1], dtype=np.uint8)
    for a in range(0, lengths.size, 1 << 16):
        b = min(a + (1 << 16), lengths.size)
        at = np.repeat(starts[a:b] - offsets[a:b], lengths[a:b])
        at += np.arange(offsets[a], offsets[b])
        blob[offsets[a]:offsets[b]] = data[at]
    ids = Strings(blob, offsets)
    del starts, lengths, at
    values = decimals(data, seps[1:])
    return None if values is None else (ids, header, values)


def _parse_csv(text: str) -> PredictionSet:
    ids, header, values = _read_plain_csv(text) or _read_csv(text)
    return PredictionSet(ids, values[:, 0], tuple(header[2:]), values[:, 1:])


def _number(value, where: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise NonNumeric(f"{where} is not a number")
    return value


def _parse_json(text: str) -> PredictionSet:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
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
        iid = inst.get("id", i)
        if isinstance(iid, bool) or not isinstance(iid, (str, int)):
            raise MalformedHeader(f"instance {i}: id is not a string or an integer")
        ids.append(str(iid))
        rows.append([_number(inst.get("y_true"), f"instance {i}: y_true")]
                    + [_number(preds[m], f"instance {i}: prediction {m!r}") for m in model_names])
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:
        raise NonFinite("a number is too large for float64") from None
    return PredictionSet(ids, values[:, 0], tuple(model_names), values[:, 1:])


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

