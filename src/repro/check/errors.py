"""Typed error taxonomy for the whole flow.

Every failure the library can diagnose is raised as a subclass of
:class:`ReproError` carrying structured location data -- the offending
file and line for input errors, the field for parameter errors, the
node id for invariant violations.  The CLI renders
:meth:`ReproError.diagnostic` as a one-line message and exits with
code 2 instead of dumping a traceback.

Compatibility: the input/parameter/geometry branches also subclass
:class:`ValueError`, so callers (and tests) written against the old
bare ``ValueError`` behaviour keep working unchanged.

Hierarchy::

    ReproError
    +-- InputError          (ValueError)  malformed user input
    +-- TechnologyError     (ValueError)  bad technology parameters
    +-- GeometryError       (ValueError)  geometric/merge infeasibility
    |   +-- SkewBalanceError              no wire assignment balances
    +-- ContractError       (ValueError)  library API misuse
    +-- ContractTypeError   (TypeError)   wrong kind/type at an API
    +-- InternalInvariantError (RuntimeError)  "cannot happen" states
    +-- AuditError                        post-hoc invariant violations
        +-- SkewAuditError                skew / delay recheck failed
        +-- CapAuditError                 capacitance bookkeeping drift
        +-- EnableAuditError              P(EN) hierarchy broken
        +-- EmbeddingAuditError (ValueError)  TRR / placement invalid
        +-- ControllerAuditError          enable-star inconsistency

The ``REP002`` rule (``tests/test_invariants.py``) enforces the
taxonomy: a bare ``raise ValueError/RuntimeError/TypeError`` anywhere
in ``src/repro`` outside this package fails the test suite.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base of every typed error raised by the repro flow.

    Parameters beyond ``message`` are optional location data; whatever
    is provided is rendered into :meth:`diagnostic` (and therefore into
    ``str(exc)``), so a bare ``except ReproError`` handler can print a
    precise one-line diagnosis.
    """

    def __init__(
        self,
        message: str,
        *,
        source: Optional[str] = None,
        line: Optional[int] = None,
        field: Optional[str] = None,
        node: Optional[int] = None,
    ) -> None:
        self.message = message
        self.source = None if source is None else str(source)
        self.line = line
        self.field = field
        self.node = node
        super().__init__(self.diagnostic())

    def diagnostic(self) -> str:
        """The one-line, located message the CLI prints."""
        prefix = []
        if self.source is not None:
            prefix.append(self.source)
        if self.line is not None:
            prefix.append("line %d" % self.line)
        if self.node is not None:
            prefix.append("node %d" % self.node)
        if self.field is not None:
            prefix.append("field %r" % self.field)
        if prefix:
            return "%s: %s" % (": ".join(prefix), self.message)
        return self.message

    def __repr__(self) -> str:  # keep reprs debuggable in logs
        return "%s(%r)" % (type(self).__name__, self.diagnostic())


class InputError(ReproError, ValueError):
    """Malformed user input: sink files, ISA/trace files, CLI values."""


class TechnologyError(ReproError, ValueError):
    """Invalid technology parameters (non-finite, negative, zero R/C)."""


class GeometryError(ReproError, ValueError):
    """Geometric or electrical infeasibility during construction."""


class SkewBalanceError(GeometryError):
    """No wire assignment can balance the two subtrees.

    Happens only in degenerate technologies (both wire RC products and
    cell drive terms zero), never for physical parameter sets.
    """


class ContractError(ReproError, ValueError):
    """A library API was called with values outside its contract.

    Distinct from :class:`InputError`: the offending value came from
    *calling code* (a bad knob, a wrong call order, an out-of-domain
    parameter), not from a user-supplied file.  Also a ``ValueError``
    for compatibility with callers written against the old bare
    raises.
    """


class ContractTypeError(ReproError, TypeError):
    """A library API was called with the wrong *kind* of value.

    Also a ``TypeError`` so generic callers keep working (e.g. the
    metrics registry's kind-aliasing guard raised ``TypeError`` before
    the taxonomy existed).
    """


class InternalInvariantError(ReproError, RuntimeError):
    """A "cannot happen" internal state was reached.

    Raised when the library detects that one of its own invariants
    broke mid-run (a heap drained while nodes stayed active, a table
    lost an entry it must contain).  Always a bug in the library, not
    in the caller's input; the ``node`` field locates the offender
    when one is known.  Also a ``RuntimeError`` for compatibility.
    """


class AuditError(ReproError):
    """A post-hoc network invariant failed verification."""


class SkewAuditError(AuditError):
    """Recomputed skew or delay disagrees with the router's bookkeeping."""


class CapAuditError(AuditError):
    """Recomputed downstream capacitance disagrees with the router's."""


class EnableAuditError(AuditError):
    """Enable-probability monotonicity or module-mask unions broken."""


class EmbeddingAuditError(AuditError, ValueError):
    """Merging-segment / placement geometry of the routed tree invalid.

    Also a ``ValueError``: ``ClockTree.validate_embedding`` raised bare
    ``ValueError`` before the taxonomy existed, and callers written
    against that contract keep working.
    """


class ControllerAuditError(AuditError):
    """Enable-star routing inconsistent with the tree's gates."""
