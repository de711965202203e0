"""The CLI's file writers the stdlib way, which the tests hold dghlab.cli's
own writers to, byte for byte: JSON through json.dumps on a copy with every
non-finite float made None, CSV cells through one isinstance chain."""
import json
import math

import numpy as np


def finite_or_null(x):
    """The payload x with every non-finite float replaced by None."""
    if isinstance(x, dict):
        return {k: finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def json_text(payload) -> str:
    """The text of a JSON output file holding payload."""
    return json.dumps(finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x.replace(",", ";")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_text(header, rows) -> str:
    """The text of a CSV output file: the header, then one line per row."""
    return ",".join(header) + "\n" + "".join(",".join(cell(v) for v in row) + "\n" for row in rows)
