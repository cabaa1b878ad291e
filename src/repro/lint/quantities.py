"""Seed catalog of the quantity and fork-safety analyses.

Three kinds of seeds feed :mod:`repro.lint.quantity`:

``ALIAS_KINDS``
    Names of the ``Annotated`` aliases exported by
    :mod:`repro.quantity`.  An annotation whose terminal name appears
    here declares the kind of the annotated parameter / return /
    field, wherever the alias was imported from (the analyzer never
    imports the code it checks; recognition is purely syntactic).

``ATTRIBUTE_KINDS``
    Attribute *names* with a project-wide unambiguous kind:
    ``anything.unit_wire_capacitance`` is wire capacitance per unit
    length no matter which object carries it.  Dataclass fields
    annotated with a quantity alias register themselves here
    automatically during the catalog pass; this table covers the
    remainder -- attributes of third-party-shaped or dynamically built
    objects (``NodeArrays`` columns, split results) that cannot carry
    an alias.  A name must mean *one* kind everywhere to qualify; the
    catalog pass drops any name that the declarations contradict.

``FUNCTION_RETURNS`` / ``METHOD_RETURNS`` / ``PRESERVING_CALLS``
    Return kinds of fully-qualified project/third-party functions, of
    methods matched by bare name on unresolvable receivers, and the
    kind-preserving numeric builtins (``min`` of lengths is a length).

The fork-safety rules (REP011/REP012) use two more tables:
``UNSAFE_WORKER_CALLS`` names process-global observability state that
must never be touched from a ``ProcessPoolExecutor`` worker, and
``UNPICKLABLE_CLASSES`` names types known not to survive pickling into
a worker (the :class:`~repro.activity.probability.ActivityOracle`
carries per-instance ``lru_cache`` wrappers; ship its tables instead).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.lint.kinds import Kind, named

__all__ = [
    "ALIAS_KINDS",
    "ATTRIBUTE_KINDS",
    "FUNCTION_RETURNS",
    "METHOD_RETURNS",
    "PRESERVING_CALLS",
    "SQRT_CALLS",
    "UNPICKLABLE_CLASSES",
    "UNSAFE_WORKER_CALLS",
]


def _k(name: str) -> Kind:
    kind = named(name)
    assert kind is not None, name
    return kind


#: ``repro.quantity`` alias name -> kind name.
ALIAS_KINDS: Dict[str, Kind] = {
    "LengthUm": _k("length_um"),
    "AreaUm2": _k("area_um2"),
    "CapacitanceFF": _k("capacitance_fF"),
    "CapPerLength": _k("cap_per_length"),
    "ResistanceOhm": _k("resistance_ohm"),
    "ResPerLength": _k("res_per_length"),
    "DelayPs": _k("delay_ps"),
    "Probability": _k("probability"),
    "SwitchedCap": _k("switched_cap"),
    "NodeId": _k("node_id"),
    "Count": _k("count"),
    "Dimensionless": _k("dimensionless"),
}

#: Attribute name -> kind, for attributes that cannot carry an alias
#: (NumPy struct-of-array columns, third-party shapes).  Annotated
#: dataclass fields extend this table during the catalog pass.
ATTRIBUTE_KINDS: Dict[str, Kind] = {
    # repro.cts.kernels.NodeArrays columns (NumPy arrays per node).
    "cap": _k("capacitance_fF"),
    "enable_p": _k("probability"),
    "enable_ptr": _k("probability"),
    "ulo": _k("length_um"),
    "uhi": _k("length_um"),
    "vlo": _k("length_um"),
    "vhi": _k("length_um"),
}

#: Fully-qualified callable -> return kind (third-party shapes and
#: NumPy kernels whose signatures cannot carry a quantity alias).
FUNCTION_RETURNS: Dict[str, Kind] = {
    "repro.cts.kernels.batch_manhattan": _k("length_um"),
    "repro.geometry.point.manhattan_distance": _k("length_um"),
}

#: Bare method name -> return kind, consulted when the receiver's type
#: is unknown.  Only names whose meaning is unambiguous project-wide
#: may appear here (the planted-bug tests pin several of them).
METHOD_RETURNS: Dict[str, Kind] = {
    "manhattan_to": _k("length_um"),
    "euclidean_to": _k("length_um"),
    "distance_to": _k("length_um"),
    "wire_cap": _k("capacitance_fF"),
    "wire_res": _k("resistance_ohm"),
    "wire_area": _k("area_um2"),
    "signal_probability": _k("probability"),
    "transition_probability": _k("probability"),
    "batch_probabilities": _k("probability"),
    "batch_transition_probabilities": _k("probability"),
    "unloaded_delay": _k("delay_ps"),
    "edge_delay": _k("delay_ps"),
    "max_delay": _k("delay_ps"),
    "total_wirelength": _k("length_um"),
    "cell_area": _k("area_um2"),
}

#: Builtins / NumPy reductions that return the kind of their operands
#: (the join of the argument kinds: ``min(w_a, w_b)`` of two
#: probabilities is a probability; mixed kinds join to unknown).
PRESERVING_CALLS: FrozenSet[str] = frozenset(
    {
        "builtins.min",
        "builtins.max",
        "builtins.abs",
        "builtins.sum",
        "builtins.float",
        "builtins.round",
        "builtins.sorted",
        "numpy.minimum",
        "numpy.maximum",
        "numpy.abs",
        "numpy.absolute",
        "numpy.sum",
        "numpy.asarray",
        "numpy.float64",
        "math.fsum",
        "math.fabs",
    }
)

#: Square-root shapes: even dimension vectors halve (the snaking
#: quadratic's discriminant is delay^2), anything else goes unknown.
SQRT_CALLS: FrozenSet[str] = frozenset({"math.sqrt", "numpy.sqrt"})

#: Process-global observability state a ProcessPoolExecutor worker must
#: not reach: qualified callable name -> short description of the
#: hazard.  Mitigating resets (``set_tracer``, ``set_registry``,
#: ``tracemalloc.stop``) are deliberately absent -- they are how a
#: worker initializer makes itself safe.
UNSAFE_WORKER_CALLS: Dict[str, str] = {
    "repro.obs.get_tracer": "the process-global span tracer",
    "repro.obs.tracer.get_tracer": "the process-global span tracer",
    "repro.obs.enable_tracing": "the process-global span tracer",
    "repro.obs.tracer.enable_tracing": "the process-global span tracer",
    "repro.obs.get_registry": "the process-global metrics registry",
    "repro.obs.metrics.get_registry": "the process-global metrics registry",
    "repro.obs.ledger.RunLedger": "the parent-side run ledger",
    "repro.obs.RunLedger": "the parent-side run ledger",
    "repro.obs.ledger.record_from_trace": "the parent-side run ledger",
    "repro.obs.record_from_trace": "the parent-side run ledger",
    "repro.obs.memory.MemorySampler": "tracemalloc-backed memory sampling",
    "repro.obs.MemorySampler": "tracemalloc-backed memory sampling",
    "tracemalloc.start": "process-wide allocation tracing",
    "tracemalloc.take_snapshot": "process-wide allocation tracing",
}

#: Class names (bare and qualified) whose instances are known not to
#: pickle into a worker, with the fix to suggest.
UNPICKLABLE_CLASSES: Dict[str, str] = {
    "ActivityOracle": "pass oracle.tables and rebuild worker-side",
    "repro.activity.probability.ActivityOracle": (
        "pass oracle.tables and rebuild worker-side"
    ),
    "Tracer": "workers must install their own tracer",
    "repro.obs.tracer.Tracer": "workers must install their own tracer",
    "MemorySampler": "tracemalloc state is per-process",
    "repro.obs.memory.MemorySampler": "tracemalloc state is per-process",
}


def alias_kind(name: Optional[str]) -> Optional[Kind]:
    """Kind declared by an annotation name (terminal path segment)."""
    if name is None:
        return None
    return ALIAS_KINDS.get(name.rsplit(".", 1)[-1])


def method_return_kind(name: str) -> Optional[Kind]:
    """Seeded return kind of a bare method name, if catalogued."""
    return METHOD_RETURNS.get(name)
