"""The shared float-agreement check: one explicit tolerance policy.

The auditor needs "do these two quantities agree?" checks on
accumulated float sums.  Exact ``==`` on such values is forbidden
(lint rule REP001): whether ``a - b`` is exactly ``0.0`` depends on
association order, which the vectorized kernels deliberately vary
batch by batch.  :func:`relatively_close` gives every caller the same
explicit policy instead of scattered ad-hoc epsilons.

NaN is never "close", so silent NaN propagation surfaces as a finding
rather than vacuous truth.
"""

from __future__ import annotations

import math

#: Default relative tolerance for agreement checks between a recomputed
#: quantity and its bookkept counterpart (matches the auditor's
#: geometry tolerance scale).
REL_TOL = 1e-9


def relatively_close(
    a: float, b: float, rel: float = REL_TOL, floor: float = 1.0
) -> bool:
    """Do ``a`` and ``b`` agree to ``rel`` of their magnitude?

    The comparison scale is ``max(|a|, |b|, floor)`` -- the ``floor``
    keeps the test meaningful near zero, where a pure relative test
    degenerates to exact equality.  NaN on either side -> False.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)
