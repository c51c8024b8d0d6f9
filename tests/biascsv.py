"""Reading a bias CSV back into records, used by the tests to check what
``experiments.write_bias_csv`` writes."""

import csv
from dataclasses import MISSING, fields

from nmixfit import DataError
from nmixfit.experiments import BiasRecord

# a parser per field type; a failed fit's estimate and bias are empty cells
_READ_CELL = {
    "int": int,
    "float": lambda text: float(text or "nan"),
    "str": str,
    "bool": {"true": True, "false": False}.__getitem__,
}


def read_bias_csv(path) -> list[BiasRecord]:
    """Load records previously written by write_bias_csv; DataError names
    the file, and the line and column of a cell that does not parse.  The
    columns of fields with a default, each fit's ``kernel_passes`` and
    ``optimizer_message``, may be absent, as in files written before they
    were added; their records then take the defaults."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read bias CSV {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        present = [f for f in fields(BiasRecord) if f.name in (reader.fieldnames or ())]
        missing = [
            f.name for f in fields(BiasRecord) if f not in present and f.default is MISSING
        ]
        if missing:
            raise DataError(f"bias CSV {path} lacks the column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            cells = {}
            for f in present:
                try:
                    cells[f.name] = _READ_CELL[f.type](row[f.name])
                except (KeyError, TypeError, ValueError):
                    raise DataError(
                        f"bias CSV {path}, line {reader.line_num}: cannot parse "
                        f"{f.name}={row[f.name]!r} as {f.type}"
                    ) from None
            records.append(BiasRecord(**cells))
    return records
