"""The text of every output file except saved models, and the row reader of every CSV input.

`write_csv` and `write_json` give every CSV output and every JSON side file
one layout each. The integer tables, features.csv and labels.csv, have their
own codec: a line is one or two text fields (a patient id, a measure name)
followed by integer cells. `write_table` formats each distinct value of a
block of rows once and writes the block as joined lines; `parse_digit_cells`
parses comma-separated ASCII digits in one numpy pass. Both keep the bytes
and values of `csv.writer` and `int()` on the text they accept, and neither
builds a Python object per cell of the whole table, so peak memory stays near
the size of the integer array itself. `csv_rows` is every per-row CSV parser's reader.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

# about this many cells are formatted or parsed per block: large enough that numpy's per-call
# cost is spread thin, small enough that a block's text and object arrays stay well under 1 MB
BLOCK_CELLS = 1 << 15

# csv.writer's excel dialect quotes no field that holds none of these characters
_MAY_NEED_QUOTES = re.compile('[,"\r\n]')
_DIGITS_AND_COMMAS = b"0123456789,"
_INT64_MAX = np.iinfo(np.int64).max


def _writer(fh):
    """The one CSV dialect of every output: csv.writer's excel dialect with "\\n" line ends."""
    return csv.writer(fh, lineterminator="\n")


def csv_field(value) -> str:
    """`value` as csv.writer writes it as one field of a row of several."""
    if isinstance(value, str) and not _MAY_NEED_QUOTES.search(value):
        return value
    buf = io.StringIO()
    _writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\n")]


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write `header`, then each row as `rows` yields it; a float cell is its repr, the shortest round-trip text."""
    with open(path, "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload) -> None:
    """Write `payload` as JSON, indented by 2, keys sorted, and a final newline; a value JSON cannot hold is a TypeError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def csv_rows(lines: Iterable[str], path: str | Path) -> Iterator[list[str]]:
    """csv.reader's rows of `lines`; a csv.Error becomes a ValueError "path:row: message", rows counted from 1."""
    row = 0
    try:
        for row, fields in enumerate(csv.reader(lines), start=1):
            yield fields
    except csv.Error as exc:
        raise ValueError(f"{path}:{row + 1}: {exc}") from None


def write_table(path: str | Path, header: Sequence[str], prefixes: Iterable[str], *blocks: np.ndarray) -> None:
    """Write `header`, then one line per row of `blocks`: the next prefix, then the row's cells side by side.

    Each prefix is its line's text fields as `csv_field` gives them, each
    followed by a comma; they are drawn one block of rows at a time, so a
    generator keeps only that block's prefixes alive. The bytes equal
    csv.writer's (lineterminator "\\n") for the rows [*text fields, *row.tolist()].
    """
    n_rows = blocks[0].shape[0]
    step = max(1, BLOCK_CELLS // max(sum(block.shape[1] for block in blocks), 1))
    prefixes = iter(prefixes)
    with open(path, "w", newline="") as fh:
        _writer(fh).writerow(header)
        for start in range(0, n_rows, step):
            rows = np.hstack([block[start : start + step] for block in blocks])
            low, high = int(rows.min()), int(rows.max())
            if high - low < rows.size:  # a value table no longer than the block: index it by value, no sort
                values, index = range(low, high + 1), np.subtract(rows, low, dtype=np.intp)  # no wrap in a narrow dtype
            else:
                values, index = np.unique(rows, return_inverse=True)
                values, index = values.tolist(), index.reshape(rows.shape)
            text = np.array([str(v) for v in values], dtype=object)[index]
            # text first: zip stops on it without drawing the next block's first prefix
            fh.write("".join([p + ",".join(cells) + "\n" for cells, p in zip(text.tolist(), prefixes)]))


def parse_digit_cells(cells: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """Comma-separated cells as a C-contiguous int64 array of `shape`.

    None unless every cell is a non-empty run of ASCII digits below INT64_MAX
    and the count fills `shape`. np.fromstring saturates values beyond int64 to
    INT64_MAX, so a cell that reads as INT64_MAX is left to the caller's
    per-cell parser too.
    """
    raw = cells.encode()
    if raw.translate(None, _DIGITS_AND_COMMAS):  # a byte other than an ASCII digit or comma
        return None
    try:
        values = np.fromstring(raw, dtype=np.int64, sep=",")
    except ValueError:  # an empty cell before the last; an empty last one is dropped and fails the count
        return None
    if values.size != np.prod(shape) or (values.size and values.max() == _INT64_MAX):
        return None
    return values.reshape(shape)
