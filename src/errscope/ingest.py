"""Loading and validation of prediction files (wide CSV and JSON)."""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from ._text import Strings, row_chunks
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
_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)  # odd, so each power is too
_HASH_ROWS = 1 << 16
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # not valid Unicode; a JSON escape can carry one


def _hash64(ids: Strings) -> np.ndarray:
    """A 64-bit polynomial hash of each id's bytes, mod 2^64: equal ids hash equal."""
    lengths = np.diff(ids.offsets)
    powers = np.cumprod(np.full(int(lengths.max(initial=0)), _HASH_BASE))  # wraps mod 2^64
    hashes = np.zeros(len(ids), dtype=np.uint64)  # an empty id hashes to 0
    for a in range(0, len(ids), _HASH_ROWS):  # bounds the per-byte temporaries
        rows = slice(a, a + _HASH_ROWS)
        starts, first = ids.offsets[:-1][rows], ids.offsets[a]
        last = ids.offsets[a + starts.size]
        # Each byte's place in its id, which picks its power.
        at = np.arange(first, last) - np.repeat(starts, lengths[rows])
        terms = (ids.blob[first:last] + np.uint64(1)) * powers[at]
        full = lengths[rows] > 0
        if full.any():
            hashes[rows][full] = np.add.reduceat(terms, starts[full] - first)
    return hashes


def _csv_field(text: str) -> str:
    """One CSV field: quoted, with each quote doubled, when it holds a comma, quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


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

    def duplicate_ids(self) -> list[str]:
        """Instance ids that occur more than once, ordered by each id's first repeat."""
        ids = self.instance_ids
        hashes = _hash64(ids)
        order = np.sort(hashes)
        repeated = order[1:][order[1:] == order[:-1]]
        if not repeated.size:
            return []
        # Only the ids whose hash repeats are compared, by their bytes: hashes can collide.
        raw, bounds = ids.blob.tobytes(), ids.offsets.tolist()
        seen, dups = set(), {}
        for i in np.flatnonzero(np.isin(hashes, repeated)).tolist():
            iid = raw[bounds[i]:bounds[i + 1]]
            if iid in seen:
                dups[iid] = None
            seen.add(iid)
        return [iid.decode("utf-8", "surrogatepass") for iid in dups]

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
        fh.writelines(row_chunks("%s" + ",%r" * (1 + len(self.model_names)) + "\n",
                           ids, self.y_true, *self.predictions.T))


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


# A quote needs the csv module; a CR left after CRLF ends a line for csv but not for
# the split on LF; loadtxt strips \x1c-\x1f as space, which float() does not; csv before
# Python 3.11 rejects NUL.
_NOT_PLAIN = ('"', "\r", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain_csv(text: str) -> tuple[Strings, list[str], np.ndarray] | None:
    """What _read_csv returns, read by numpy's C tokenizer, or None to hand the text over.

    Only a file that _read_csv reads the same, bit for bit, is taken: one with no quote,
    no lone CR, no blank line, no line past csv.field_size_limit() and exactly one cell
    per header column on each row. Anything else, errors included, goes to _read_csv,
    which names them.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in _NOT_PLAIN):
        return None
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    lfs = np.flatnonzero(data == ord("\n"))
    rows = lfs.size - text.endswith("\n")  # the lines after the header
    header = text.partition("\n")[0].split(",")
    k = len(header)
    if rows < 1 or not _header_ok(header):  # with no rows, loadtxt would warn
        return None
    commas = np.flatnonzero(data == ord(","))
    # A line's bytes, never fewer than the characters that csv's field limit counts.
    widest = np.diff(lfs, prepend=-1, append=data.size).max() - 1
    if commas.size != (rows + 1) * (k - 1) or widest > csv.field_size_limit():
        return None
    # Line j starts one past LF j - 1; with k - 1 commas on each line, its id ends at comma
    # (k - 1) j. The ids are cut out here, so the bytes are not held while loadtxt runs.
    starts = lfs[:rows] + 1
    lengths = commas[k - 1::k - 1] - starts
    del lfs, commas
    if (lengths < 0).any():  # some line lacks its commas
        return None
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    ids = Strings(data[np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])],
                  offsets)
    del data
    # The header stays in the list of lines: no copy of the text without it.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # after the LF that ends the last line
    try:
        # The same list of lines, not a StringIO of the text: no second copy of the file.
        values = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1,
                            usecols=range(1, k), ndmin=2)
    except ValueError:
        return None
    # loadtxt skips a blank line, which csv skips too but which has an id here. With one
    # row per line, each reaching column k - 1, the comma count leaves no extra cell.
    if values.shape != (rows, k - 1):
        return None
    return ids, header, values


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
        ids.append(str(inst.get("id", i)))
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

