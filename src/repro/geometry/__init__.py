"""Manhattan-plane geometry substrate for clock-tree construction.

The deferred-merge embedding (DME) machinery used by both the buffered
baseline and the gated clock router works on *Manhattan arcs* (segments
of slope +/-1) and *tilted rectangle regions* (TRRs).  Both become
axis-aligned objects in the rotated coordinate system

    u = x + y,    v = x - y,

where the Manhattan (L1) distance between two points equals the
Chebyshev (L-infinity) distance of their (u, v) images.  Every geometric
operation needed by the router -- distance between merging segments,
"core" expansion by a radius, intersection of cores -- is an interval
computation in (u, v).

Public names:

``Point``
    Immutable 2-D point with Manhattan-distance helpers.
``Trr``
    Tilted rectangle region, also used (degenerate) for Manhattan arcs
    -- the merging segments -- and single points.
"""

from repro.geometry.point import Point
from repro.geometry.trr import Trr

__all__ = ["Point", "Trr"]
