"""The one JSON serialization policy for bench artifacts and RunRecords.

Every machine-readable artifact the repo persists -- the committed
``BENCH_*.json`` files at the repo root, ``--record`` RunRecords, the
committed sentinel baselines -- goes through this module so they
agree on shape:

* one ``schema_version`` key (bumped when a consumer-visible field
  changes meaning, never for additions);
* floats in *timing/derived* sections rounded to a fixed number of
  decimals (:func:`round_floats`) so re-running a bench on the same
  machine produces minimal diffs, while **result pins are never
  rounded** -- byte-identical pins are the regression contract;
* no wall-clock timestamps (committed artifacts must be reproducible
  byte-for-byte);
* a canonical encoding (sorted keys, no whitespace) for comparing
  values by what they say, not by how the writer happened to indent
  them.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: Bump only on a breaking shape change; consumers tolerate additions.
SCHEMA_VERSION = 1

#: The key every persisted payload carries.
SCHEMA_KEY = "schema_version"

#: Decimal places kept for timing/ratio floats in bench payloads.
BENCH_FLOAT_DECIMALS = 9


def round_floats(obj: Any, decimals: int = BENCH_FLOAT_DECIMALS) -> Any:
    """Recursively round every float in a JSON-shaped structure.

    Sub-nanosecond noise in ``seconds`` fields is measurement residue,
    not signal; rounding it keeps committed bench JSON diffs focused
    on real movement.  Ints and bools pass through untouched.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round(obj, decimals)
    if isinstance(obj, dict):
        return {k: round_floats(v, decimals) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, decimals) for v in obj]
    return obj


def canonical_dumps(payload: Any) -> str:
    """Canonical encoding: sorted keys, minimal separators, no NaN.

    Two payloads with equal content produce the same string --
    indentation and key order are presentation, not content.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def write_json(path, payload: Any, indent: int = 2) -> None:
    """Pretty, key-sorted writer with a trailing newline (git-friendly)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bench_payload(bench: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize one bench artifact: schema key, name, rounded floats."""
    out: Dict[str, Any] = {SCHEMA_KEY: SCHEMA_VERSION, "bench": bench}
    out.update(round_floats(payload))
    return out


def write_bench_json(path, bench: str, payload: Dict[str, Any]) -> None:
    """Persist one ``BENCH_*.json`` artifact through the shared policy."""
    write_json(path, bench_payload(bench, payload))

