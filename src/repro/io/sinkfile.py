"""Plain-text sink lists.

Format (whitespace-separated, ``#`` comments)::

    # name  x  y  load_cap  [module]
    s0  1200.0  340.5  0.05  0
    s1  8000.0  910.0  0.03  1

``module`` defaults to the line's position so external sink files
(e.g. converted Tsay benchmarks) can omit it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Union

from repro.check.errors import InputError
from repro.cts.topology import Sink
from repro.geometry.point import Point

PathLike = Union[str, Path]


def _parse(handle: TextIO, source: Optional[str] = None) -> List[Sink]:
    sinks: List[Sink] = []
    seen = {}
    for lineno, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise InputError(
                "line %d: expected 'name x y cap [module]', got %r" % (lineno, raw),
                source=source,
                line=lineno,
            )
        name = parts[0]
        try:
            x, y, cap = (float(p) for p in parts[1:4])
            module = int(parts[4]) if len(parts) == 5 else len(sinks)
        except ValueError as exc:
            raise InputError(
                "line %d: %s" % (lineno, exc), source=source, line=lineno
            ) from exc
        for field, value in (("x", x), ("y", y)):
            if not math.isfinite(value):
                raise InputError(
                    "coordinate %s is %r; coordinates must be finite"
                    % (field, value),
                    source=source,
                    line=lineno,
                    field=field,
                )
        if not math.isfinite(cap) or cap < 0:
            raise InputError(
                "load cap is %r; load capacitance must be finite "
                "and non-negative" % cap,
                source=source,
                line=lineno,
                field="load_cap",
            )
        if module < 0:
            raise InputError(
                "module id is %d; module ids must be non-negative" % module,
                source=source,
                line=lineno,
                field="module",
            )
        if name in seen:
            raise InputError(
                "duplicate sink name %r (first defined on line %d); "
                "sink names must be unique" % (name, seen[name]),
                source=source,
                line=lineno,
                field="name",
            )
        seen[name] = lineno
        sinks.append(
            Sink(name=name, location=Point(x, y), load_cap=cap, module=module)
        )
    if not sinks:
        raise InputError("sink file contains no sinks", source=source)
    return sinks


def read_sinks(source: Union[PathLike, TextIO]) -> List[Sink]:
    """Read a sink file (path or open text handle).

    Malformed lines raise :class:`~repro.check.errors.InputError` with
    the offending file, line, and field; NaN/inf coordinates, negative
    or non-finite load caps, negative module ids, and duplicate sink
    names are all rejected here rather than deep inside the DME merge.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _parse(handle, source=str(source))
    return _parse(source, source=getattr(source, "name", None))


def write_sinks(sinks: Sequence[Sink], target: Union[PathLike, TextIO]) -> None:
    """Write sinks in the format :func:`read_sinks` accepts."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            write_sinks(sinks, handle)
        return
    target.write("# name x y load_cap module\n")
    for sink in sinks:
        target.write(
            "%s %.6f %.6f %.9f %d\n"
            % (sink.name, sink.location.x, sink.location.y, sink.load_cap, sink.module)
        )
