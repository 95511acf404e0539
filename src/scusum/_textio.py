"""The dialect of every CSV file the package writes, its one row writer, and its readers' cell converter.

Every value is written with ``repr``, the shortest text that ``float()``
parses back to the same double, and every row ends in ``\\r\\n``, the
terminator ``csv.writer`` emits. Rows are formatted ``CHUNK_ROWS`` at a time
from ``tolist()`` of a slice, so a long stream never holds more than one
chunk of text, nor more than one chunk of its columns stacked side by side.
Readers of text (AMC clips, trajectory CSVs) collect the value cells as
``str`` and convert ``CONVERT_CELLS`` of them per numpy call with
``finite_floats``, so a long file never holds more than one block of them.
"""

from __future__ import annotations

import numpy as np

# Rows per chunk: a chunk of 62-dimensional pair rows is about 0.15 MB of
# text. 256-row chunks wrote no faster and raised the largest `detect_mocap`
# call's peak by about 1 MB (README, "Text I/O").
CHUNK_ROWS = 64

# Value cells converted per numpy call: as str objects they take about 60 B
# each, so this bounds them to about half a megabyte.
CONVERT_CELLS = 8192


def row_chunks(*columns: np.ndarray):
    """Yield (first row, list of row strings) for each chunk of the side-by-side columns.

    Each column is a 1-D or 2-D array of the same length; a chunk's rows
    stack them side by side, so no caller stacks a whole stream.
    """
    for start in range(0, columns[0].shape[0], CHUNK_ROWS):
        rows = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]).tolist()
        yield start, [",".join(map(repr, row)) for row in rows]


def write_rows(fh, rows: list[str]) -> None:
    """Write rows as CSV lines with one ``write`` call."""
    if rows:
        fh.write("\r\n".join([*rows, ""]))


def finite_floats(cells: list[str]) -> np.ndarray | None:
    """The cells as float64, parsed as ``float()`` parses them, or None if one is malformed or not finite."""
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None
