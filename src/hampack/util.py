"""Small shared helpers: seed derivation, canonical JSON, JSON files, file digests."""
from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import ParseError

MASK64 = (1 << 64) - 1


def derive_seed(master: int, label: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a label.

    All randomness in the toolkit flows from one master seed through labeled
    derivations, so reordered work stays reproducible.
    """
    h = hashlib.sha256(f"{master}/{label}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") & MASK64


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators (byte-stable output)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def read_json(path: str) -> Any:
    """Load a JSON file; invalid JSON raises ParseError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
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
