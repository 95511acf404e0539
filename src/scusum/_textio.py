"""The dialect of every CSV file the package writes, and its one row writer.

Every value is written with ``repr``, the shortest text that ``float()``
parses back to the same double, and every row ends in ``\\r\\n``, the
terminator ``csv.writer`` emits. Rows are formatted ``CHUNK_ROWS`` at a time
from ``tolist()`` of a slice, so a long stream never holds more than one
chunk of text.
"""

from __future__ import annotations

import numpy as np

# Rows per chunk: a chunk of 62-dimensional pair rows is about 0.6 MB of text,
# and larger chunks write no faster.
CHUNK_ROWS = 256


def row_chunks(values: np.ndarray):
    """Yield (first row, list of row strings) for each chunk of a 2-D array."""
    for start in range(0, values.shape[0], CHUNK_ROWS):
        rows = values[start : start + CHUNK_ROWS].tolist()
        yield start, [",".join(map(repr, row)) for row in rows]


def write_rows(fh, rows: list[str]) -> None:
    """Write rows as CSV lines with one ``write`` call."""
    if rows:
        fh.write("\r\n".join([*rows, ""]))
