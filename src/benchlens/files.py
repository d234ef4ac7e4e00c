"""How benchlens writes files: a command's files whole and together, or none of them; CSV rows by one line law.

Every file goes through `commit`, which takes (path, writer) pairs. A writer
is called with a text file open on a temporary file beside its target
(`.NAME.PID.tmp`) and streams the file's text into it; the writers run one
after another. Only when every writer has returned do the temporary files
replace their targets, so a writer that fails, or an interrupt, removes every
temporary file and leaves every target as it was. A file that is replaced
keeps its permissions, a symbolic link keeps pointing at the file it named,
and a missing parent directory is created. No pair, no directory.

CSV files are written by one line law (`write_csv`): each number is its
`repr`, each distinct text cell is quoted once by
`csv.writer(lineterminator="\\n")` itself (`CsvText`), each row is one joined
line, and the lines go out `CHUNK` rows per write (`chunks`). The bytes are
those of `csv.writer` writing the same cells.

The rows of a float array are formatted by `float_rows`, a chunk of rows at a
time through `float_json`: a number is still `repr`'s bytes, with the digits taken
from orjson where the two texts are the same. Both write the shortest digits
that read back as the same double (orjson through Ryū), and both write them
without an exponent for 0.0, -0.0 and every finite |x| in [1e-4, 1e16).
orjson writes NaN as "null", which becomes "nan", or the text the caller
writes for NaN (such as "" for a blank cell); a row holding any other cell (an
infinity, or a finite cell that `repr` writes with an exponent) is formatted
by `repr`, with the same text for NaN.
"""

from __future__ import annotations

import csv
import io
import os
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np
import orjson

CHUNK = 512  # rows per write and mixes per proxy block: a chunk's temporaries stay cache-sized, a file's never exist
POSITIONAL = (1e-4, 1e16)  # the |x| that repr, like orjson, writes without an exponent: [1e-4, 1e16)
Writer = Callable[[TextIO], object]  # streams one file's text into the open file it is given


class CsvText(dict):
    """Text cells as `csv.writer(lineterminator="\\n")` writes them, asked of csv once per distinct text.

    The quoting rule is csv's own, not a copy of it: it differs between Python
    versions (3.11 quotes a cell holding "\\n" but not one holding only "\\r").
    """

    def __missing__(self, text: str) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, ""])  # a lone "" cell would be quoted
        quoted = self[text] = buffer.getvalue()[: -len(",\n")]
        return quoted


def unquoted(texts: Sequence[str]) -> bool:
    """Whether each of `texts`, none of which holds a ",", is its own `CsvText` value, asked of csv in one row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([*texts, "", ""])  # no cell is a lone ""
    return buffer.getvalue() == "".join(f"{text}," for text in texts) + ",\n"  # quoting only ever adds


def commit(artifacts: Iterable[tuple[str | Path, Writer]]) -> None:
    """Write each (path, writer) pair's file, then replace every target (see the module docstring)."""
    written = []  # (temporary file, target) of each file begun
    try:
        for path, write in artifacts:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            path = Path(path).resolve()
            partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            written.append((partial, path))
            with open(partial, "w", newline="", encoding="utf-8") as fh:
                write(fh)
            if path.exists():
                os.chmod(partial, path.stat().st_mode & 0o7777)
        for partial, path in written:
            os.replace(partial, path)
    except BaseException:
        for partial, _ in written:
            partial.unlink(missing_ok=True)
        raise


def chunks(lines: Iterable[str]) -> Iterator[str]:
    """`lines` (each one row ending in "\\n") joined CHUNK at a time."""
    lines = iter(lines)
    return iter(lambda: "".join(islice(lines, CHUNK)), "")  # every line holds at least its "\\n"


def write_csv(fh: TextIO, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a CSV to `fh`: the header row, then `lines` (each one row ending in "\\n"), CHUNK rows per write."""
    text = CsvText()
    fh.write(",".join(map(text.__getitem__, header)) + "\n")
    fh.writelines(chunks(lines))


def float_rows(values: np.ndarray, nan: str = "nan") -> Iterator[str]:
    """Each row of the 2-D float array `values` as `",".join(map(repr, row))`, NaN cells as `nan`.

    Rows are formatted CHUNK at a time, each chunk by one `float_json` call, as they are iterated.
    """
    for lo in range(0, len(values), CHUNK):
        block = np.ascontiguousarray(values[lo:lo + CHUNK], dtype=np.float64)
        text, unlike = float_json(block, nan)
        rows = text[2:-2].decode().split("],[")
        for i in np.flatnonzero(unlike).tolist():
            rows[i] = ",".join(map(repr, block[i].tolist())).replace("nan", nan)
        yield from rows


def float_json(block: np.ndarray, nan: str) -> tuple[bytes, np.ndarray]:
    """orjson's text of the C-contiguous float64 `block`, `[[a,b],[c,d]]` with NaN cells as `nan`, and which of
    its rows hold a cell that orjson writes unlike `repr` (see the module docstring)."""
    low, high = POSITIONAL
    size, missing = np.abs(block), np.isnan(block)
    same = (size == 0.0) | ((size >= low) & (size < high)) | missing
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    if missing.any():  # a search for "null" costs a third of the dumps
        text = text.replace(b"null", nan.encode())
    return text, ~same.all(axis=1)
