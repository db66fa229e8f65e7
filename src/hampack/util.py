"""Small shared helpers: seed derivation, Mersenne Twister draws in bulk,
the input checks shared by every module (probabilities, non-negative values,
integers), canonical JSON, JSON files read with the cyclic collector paused,
file digests."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import operator
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, TextIO, TypeVar

import numpy as np

from .errors import InvalidInputError, ParseError

T = TypeVar("T")


def derive_seed(master: int, label: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a label.

    All randomness in the toolkit flows from one master seed through labeled
    derivations, so reordered work stays reproducible.
    """
    h = hashlib.sha256(f"{master}/{label}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def random_stream(seed: int) -> np.random.RandomState:
    """A numpy generator whose `random_sample` draws continue, bit for bit, the
    `random()` draws of `random.Random(seed)`.

    Both seed the Mersenne Twister by `init_by_array` on the 32-bit
    little-endian words of |seed| (at least one), which `RandomState` takes as
    a list: a one-word array is seeded as a scalar, by `init_genrand`.  Both
    turn two 32-bit outputs into a double by genrand_res53, and NEP 19 freezes
    the `RandomState` stream, so n `random_sample` draws are n `random()` draws.
    """
    seed = abs(operator.index(seed))
    return np.random.RandomState([(seed >> shift) & 0xFFFFFFFF
                                  for shift in range(0, max(seed.bit_length(), 1), 32)])


def check_probability(p: float, name: str = "probability") -> None:
    """Reject a probability, or another fraction called `name`, outside
    [0, 1], NaN included."""
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"{name} {p} not in [0, 1]")


def check_nonnegative(x: float, name: str) -> None:
    """Reject a count or a tolerance called `name` below 0, NaN included."""
    if not x >= 0:
        raise InvalidInputError(f"{name} must be >= 0, got {x}")


def integer(v) -> int:
    """operator.index that refuses bools, which input readers must not take as 0/1."""
    if isinstance(v, bool):
        raise TypeError("bool is not an integer")
    return operator.index(v)


def canonical_json(obj: Any) -> str:
    """Serialize byte-stably: sorted keys, separators "," and ": ", indent 1.

    Dataclasses are written as dicts of their fields, tuples as lists, sets
    and frozensets as sorted lists, dict keys through `str`, and non-finite
    floats as null; otherwise the bytes are those of `json.dumps(obj,
    sort_keys=True, separators=(",", ": "), indent=1)`.  Two kinds of numpy
    array, where large documents spend their bytes, are written with one row
    template and one format: a 2-d integer array as its `.tolist()`, and a
    1-d structured array whose fields all share one integer dtype, each a
    scalar or a 1-d sub-array, as the list of its records, each a dict from
    field name to value.  Any other numpy value raises TypeError, as it does
    in `json.dumps`.
    """
    return _encode(obj, "\n")


def _encode(value: Any, newline: str) -> str:
    """`value` written at the indent that `newline` (a newline and the
    current indent) ends with."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, np.ndarray):
        return _encode_table(value, newline)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    inner = newline + " "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted({str(key): item for key, item in value.items()}.items())
        return ("{" + inner + sep.join(
            [_quote(key) + ": " + _encode(item, inner) for key, item in items])
            + newline + "}")
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    return "[" + inner + sep.join([_encode(item, inner) for item in value]) + newline + "]"


def _int_list(width: int, newline: str) -> str:
    """The `%` template of a list of `width` ints closed at the indent that
    `newline` ends with."""
    if not width:
        return "[]"
    inner = newline + " "
    return "[" + inner + ("," + inner).join(["%d"] * width) + newline + "]"


def _encode_table(value: np.ndarray, newline: str) -> str:
    """The numpy array `value` written at the indent that `newline` ends
    with: a 2-d integer array as its list of rows, a 1-d structured array as
    its list of records, fields in sorted order.  One row template is filled
    for every row by one `%`; any other array raises TypeError."""
    inner = newline + " "
    if value.ndim == 2 and value.dtype.kind in "iu":
        row, cells = _int_list(value.shape[1], inner), value
    elif value.ndim == 1 and value.dtype.names:
        key_inner = inner + " "
        first = value.dtype.fields[value.dtype.names[0]][0].base
        parts, columns = [], []
        for name in sorted(value.dtype.names):
            field = value.dtype.fields[name][0]
            if field.base != first or first.kind not in "iu" or field.ndim > 1:
                raise TypeError(f"structured field {name!r} of type {field} is not an integer "
                                f"or a 1-d sub-array of the first field's dtype {first}")
            key = _quote(name).replace("%", "%%") + ": "
            if field.ndim:
                parts.append(key + _int_list(field.shape[0], key_inner))
                columns.append(value[name])
            else:
                parts.append(key + "%d")
                columns.append(value[name][:, None])
        row = "{" + key_inner + ("," + key_inner).join(parts) + inner + "}"
        cells = np.concatenate(columns, axis=1)     # one dtype: never promoted to float64
    else:
        raise TypeError(f"numpy array of dtype {value.dtype} and shape {value.shape} is not "
                        "a 2-d integer table or a 1-d array of integer records")
    if not len(value):
        return "[]"
    body = ("," + inner).join([row] * len(value)) % tuple(cells.ravel().tolist())
    return "[" + inner + body + newline + "]"


def read_json(path: str, build: Callable[[Any], T]) -> T:
    """Return `build(document)` for the JSON document in the file at `path`.

    The text is decoded, and `build` run, with the cyclic garbage collector
    paused if it was running: a document is mostly small acyclic lists, which
    the collector would otherwise scan again and again while `json` creates
    them.  The document is released when `build` returns, before the
    collector resumes, so its next pass does not scan it either; `build` must
    not keep it.  Bytes that are not UTF-8, invalid JSON and nesting too deep
    to decode raise ParseError naming the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        enabled = gc.isenabled()
        gc.disable()
        try:
            # the document is only `build`'s argument: it is freed when `build` returns
            return build(_decode(path, fh))
        finally:
            if enabled:
                gc.enable()


def _decode(path: str, fh: TextIO) -> Any:
    try:
        return json.loads(fh.read())
    except (ValueError, RecursionError) as exc:    # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc


def write_json(obj: Any, path: str) -> None:
    """Write `canonical_json(obj)` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
