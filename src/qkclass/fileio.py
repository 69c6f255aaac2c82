"""JSON and CSV files without numpy: the JSON reader, the streamed JSON
writer, atomic writes, and the flat plot-data CSV.

Output files are written to a temporary sibling and renamed into place, so
a failure never leaves a partial file behind. Nothing here imports numpy:
``emit-plot`` reads a results file and writes its CSV from this module
alone, and :func:`jsonable` converts numpy values only once numpy is loaded.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

from .errors import DataError


def read_json(path: str, what: str):
    """The parsed content of a JSON file; invalid JSON raises DataError
    naming ``what``."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid {what}: {exc}") from exc


def _one_per_line(value) -> bool:
    """Whether a dict key's value is written one item per line: a non-empty
    list of lists or dicts, or a 2-D array with at least one row."""
    if getattr(value, "ndim", None) == 2:
        return len(value) > 0
    return isinstance(value, list) and bool(value) and all(
        isinstance(v, (list, dict)) for v in value)


def dump_json(payload: dict | list, handle, default=None):
    """Stream a dict or list as JSON: a list, or a dict key's list of lists or
    dicts or 2-D array, one item per line; a dict one sorted key per line.
    Each piece is ``json.dumps(piece, sort_keys=True, default=default)``,
    written as made, so an array's row reaches ``default`` only when it is
    written and a 2-D array is written as its ``tolist()`` would be."""
    encode = json.JSONEncoder(sort_keys=True, default=default).encode

    def lines(items, brackets: str = "[]"):
        handle.write(brackets[0])
        for n, (prefix, value) in enumerate(items):
            handle.write((",\n" if n else "\n") + prefix)
            if prefix and _one_per_line(value):
                lines(("", v) for v in value)
            else:
                handle.write(encode(value))
        handle.write("\n" + brackets[1])

    if isinstance(payload, dict):
        lines(((encode(key) + ": ", payload[key]) for key in sorted(payload)), "{}")
    else:
        lines(("", item) for item in payload)
    handle.write("\n")


def atomic_write(path: str, writer):
    """Write through a temporary sibling and rename, so a failure cannot
    leave a partial output file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = tempfile.NamedTemporaryFile("w", dir=directory, delete=False,
                                         suffix=".tmp", newline="")
    try:
        with handle:
            writer(handle)
        os.replace(handle.name, path)
    except Exception:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def jsonable(value):
    """``default`` hook of the JSON encoder: numpy scalars and arrays as
    Python values. The payload itself is encoded as it stands, not copied.
    Without numpy loaded no numpy value can exist, so numpy is looked up,
    never imported."""
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_results(payload: dict, path: str):
    """Write a results object as streamed JSON (see :func:`dump_json`)."""
    atomic_write(path, lambda handle: dump_json(payload, handle, default=jsonable))


PLOT_COLUMNS = ("index", "expectation", "predicted_label", "shots_total",
                "shots_plus", "shots_minus", "freq_plus")


def emit_plot_data(payload: dict, path: str):
    """Flatten a results object to CSV, one row per test point.

    Column order is fixed: index, expectation, predicted_label, shots_total,
    shots_plus, shots_minus, freq_plus; the shot columns stay empty for
    exact (shots=0) runs. Floats use repr and parse back to full precision.
    """
    if "results" not in payload or not isinstance(payload["results"], list):
        raise DataError("results payload has no 'results' list")

    def writer(handle):
        out = csv.writer(handle)
        out.writerow(PLOT_COLUMNS)
        for entry in payload["results"]:
            shots = entry.get("shots")
            if shots:
                shot_cols = [shots["total"], shots["plus"], shots["minus"],
                             repr(shots["plus"] / shots["total"])]
            else:
                shot_cols = ["", "", "", ""]
            out.writerow([entry["index"], repr(float(entry["expectation"])),
                          entry["predicted_label"], *shot_cols])

    atomic_write(path, writer)
