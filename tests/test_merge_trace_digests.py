"""Merge-trace and tree digests: construction decisions, pinned byte for byte.

Every configuration below routes r1 at scale 0.2 (53 sinks).  The
greedy configurations run :class:`~repro.cts.dme.BottomUpMerger` and
hash the full ``merge_trace`` together with the exact (``float.hex``)
clock-tree switched capacitance and wirelength.  The other
construction paths -- sharded routing and its stitch (gate-every,
merge-time and post-stitch demote reduction), the annealing refiner
and the bisection topology -- are pinned by a *tree digest*: every node's fields in id
order, floats as ``float.hex``.  A refactor of the merger, its costs,
cell policies, kernels or the shared merge/placement steps must leave
every digest unchanged; an intentional algorithm change updates the
pins together with a DESIGN.md note.

Run this module as a script to print the current digests::

    PYTHONPATH=src python tests/test_merge_trace_digests.py
"""

import dataclasses
import hashlib

import pytest

from repro.activity.probability import ActivityOracle
from repro.activity.tables import ActivityTables
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated, route_sharded
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.core.switched_cap import clock_tree_switched_cap
from repro.cts.bisection import build_bisection_tree
from repro.cts.dme import (
    BottomUpMerger,
    BufferEveryEdgePolicy,
    GateEveryEdgePolicy,
    nearest_neighbor_cost,
)
from repro.cts.refine import RefineConfig
from repro.tech import date98_technology

SCALE = 0.2
COSTS = {
    "incremental": incremental_switched_capacitance_cost,
    "eq3": switched_capacitance_cost,
}


def _case():
    return load_benchmark("r1", scale=SCALE)


def _wide_oracle(case):
    """An oracle over an 80-instruction ISA (signatures wider than 63 bits)."""
    cpu = CpuModel(
        CpuModelConfig(num_modules=len(case.sinks), num_instructions=80, seed=1001)
    )
    return ActivityOracle(ActivityTables.from_stream(cpu.isa, cpu.stream(4000)))


def _configs():
    """``name -> merger keyword arguments`` (``oracle`` is resolved later)."""
    configs = {}
    for cost_name in COSTS:
        for policy_name in ("gate-every", "reduction"):
            for limit in (None, 16):
                name = "%s-%s-%s" % (
                    cost_name,
                    policy_name,
                    "exact" if limit is None else "k%d" % limit,
                )
                configs[name] = dict(
                    cost=COSTS[cost_name],
                    policy=policy_name,
                    candidate_limit=limit,
                )
    for limit in (None, 16):
        suffix = "exact" if limit is None else "k%d" % limit
        configs["sizing-" + suffix] = dict(
            cost=incremental_switched_capacitance_cost,
            policy="reduction",
            candidate_limit=limit,
            cell_sizer=GateSizingPolicy(),
        )
    configs["wide-isa"] = dict(
        cost=incremental_switched_capacitance_cost,
        policy="reduction",
        candidate_limit=None,
        oracle="wide",
    )
    configs["buffered"] = dict(
        cost=nearest_neighbor_cost,
        policy="buffer",
        candidate_limit=16,
        oracle=None,
    )
    configs["nearest-neighbor"] = dict(
        cost=nearest_neighbor_cost,
        policy=None,
        candidate_limit=16,
        oracle=None,
    )
    return configs


def route_digest(case, tech, config) -> str:
    config = dict(config)
    policy = {
        "gate-every": GateEveryEdgePolicy(),
        "reduction": GateReductionPolicy.from_knob(0.5, tech),
        "buffer": BufferEveryEdgePolicy(),
        None: None,
    }[config.pop("policy")]
    oracle = config.pop("oracle", "case")
    if oracle == "case":
        oracle = case.oracle
    elif oracle == "wide":
        oracle = _wide_oracle(case)
    merger = BottomUpMerger(
        case.sinks,
        tech,
        cell_policy=policy,
        oracle=oracle,
        controller_point=case.die.center,
        **config,
    )
    tree = merger.run()
    h = hashlib.sha256()
    h.update(repr(merger.merge_trace).encode())
    h.update(clock_tree_switched_cap(tree, tech).hex().encode())
    h.update(tree.total_wirelength().hex().encode())
    return h.hexdigest()


#: Digests captured before the single-path merger refactor.
DIGESTS = {
    'buffered': 'd76bd06d5d14b6790ccf006ac8f7c4ce19f0da296f78f2d3e68516c662106cd3',
    'eq3-gate-every-exact': 'e4eafae1e586ca60c8297152b621f6e93f3e6399304f9009ee4615d7118e3137',
    'eq3-gate-every-k16': '386b1f4690fb989189d36221f5a01491ad548178a61dcba53342b5c4d5f467ae',
    'eq3-reduction-exact': 'db8f5ccf035a19017811833034763066fec6d568990094c5af161b1e179cef4f',
    'eq3-reduction-k16': 'db8f5ccf035a19017811833034763066fec6d568990094c5af161b1e179cef4f',
    'incremental-gate-every-exact': '08d119f47c624d21a8060ac34c124a174a9e7238f6585c6d22a21659782185e2',
    'incremental-gate-every-k16': 'c7c1cd2b0ec43b891ed8214a188d8fb9429b5fd253ece9be3c3f6d48e0a04f15',
    'incremental-reduction-exact': '04ecd11ee2202d872e2398cc7ac4dc793c0fbdb5563ac4847fc275df4e63dad5',
    'incremental-reduction-k16': 'c6002322fc3746c49bfb81d22b8aa7a521b012d8c5ccae12f874925464ef5ab2',
    'nearest-neighbor': '5ee08609d5213e9ef6140778219006560ef0aed130e50397c40efddf63257584',
    'sizing-exact': '859a0f4eadf71f0d48f8acf4ef010a49feaa624c6cf8e8aef7e22342b319d560',
    'sizing-k16': '34173d266b6cd715ce9e54785fd0e5cfd62f9fe90565998f0a6176bbea41415a',
    'wide-isa': 'd36b8b4df66db9d746b4c438dca3663b1608c47aca8cf9960dc3b16ade654a97',
}


def _field(value) -> str:
    """Exact text of one node field (floats as ``float.hex``)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, tuple):
        return "(%s)" % ",".join(_field(v) for v in value)
    # GateModel, Trr and Point: their float fields in declaration order.
    return "<%s>" % ",".join(
        _field(float(getattr(value, f.name))) for f in dataclasses.fields(value)
    )


def tree_digest(tree) -> str:
    """SHA-256 over every node's construction state, in id order."""
    h = hashlib.sha256()
    for node in tree.nodes():
        fields = (
            node.children,
            node.parent,
            node.edge_length,
            node.edge_cell,
            node.edge_maskable,
            node.snaked,
            node.module_mask,
            node.enable_probability,
            node.enable_transition_probability,
            node.subtree_cap,
            node.sink_delay,
            # This slot once held the bounded-skew lower delay bound,
            # which is bit-equal to ``sink_delay`` on every zero-skew
            # tree; hashing ``sink_delay`` twice keeps the pins valid.
            node.sink_delay,
            node.merging_segment,
            node.location,
        )
        h.update(("%d:%s;" % (node.id, "|".join(_field(f) for f in fields))).encode())
    return h.hexdigest()


def _tree_configs():
    """``name -> callable(case, tech) -> ClockTree`` for the non-greedy paths."""

    def knob(tech):
        return GateReductionPolicy.from_knob(0.5, tech)

    def sharded(reduction=None, **kwargs):
        return lambda case, tech: route_sharded(
            case.sinks, tech, case.oracle, die=case.die, num_shards=4,
            candidate_limit=16, reduction=reduction and reduction(tech), **kwargs
        ).tree

    def gated(reduction=None, **kwargs):
        return lambda case, tech: route_gated(
            case.sinks, tech, case.oracle, die=case.die, candidate_limit=16,
            reduction=reduction and reduction(tech), **kwargs
        ).tree

    def bisection(policy):
        return lambda case, tech: build_bisection_tree(
            case.sinks, tech, cell_policy=policy(tech), oracle=case.oracle
        )

    return {
        "sharded-k4-gate-every": sharded(),
        "sharded-k4-demote": sharded(knob, reduction_mode="demote"),
        "sharded-k4-merge-reduced": sharded(knob),
        "gated-refine-gate-every-seed3": gated(
            refine=RefineConfig(moves=200, seed=3)
        ),
        "gated-refine-merge-reduced-seed1": gated(
            knob, reduction_mode="merge", refine=RefineConfig(moves=200, seed=1)
        ),
        "gated-refine-merge-reduced-4ctrl-seed1": gated(
            knob,
            reduction_mode="merge",
            num_controllers=4,
            refine=RefineConfig(moves=200, seed=1),
        ),
        "bisection-gate-every": bisection(lambda tech: GateEveryEdgePolicy()),
        "bisection-reduction": bisection(knob),
    }


#: Tree digests captured before the shared plan/commit/placement refactor;
#: ``sharded-k4-merge-reduced`` was captured through the flow's former
#: ``cell_policy`` argument, before ``route_sharded`` took merge mode.
TREE_DIGESTS = {
    'bisection-gate-every': 'a1967d5552707eed48dc9af07bb66ddb326d5bf2ff80512758c3338566974f12',
    'bisection-reduction': 'ee5b69a6f122a0ace8b183863691086bfc8e951a59151ebdc7d96bf37b31ea3b',
    'gated-refine-gate-every-seed3': '1e464a055015bfb9aca36b7f8a5de98ff4ad191501423d610bdad779ce2a5621',
    'gated-refine-merge-reduced-seed1': '8b8fe9ab0c03e7272eaeca45e34cb9aeeded15b093ca1e0f94d8d149860b03d4',
    'gated-refine-merge-reduced-4ctrl-seed1': 'b2eb13c01e53fefd60791e1af54e4293f048d095917d57f034a3f61a928d31d5',
    'sharded-k4-demote': '1b6cb3e6b690612b467279a2c7ef8ddde4ea68e178b0800beaa2022b83377a10',
    'sharded-k4-gate-every': '8923b5a2beb701ccb8cd286c1d445946ffa49d75b34749090d35a95fb40891b7',
    'sharded-k4-merge-reduced': 'e23e1b17a76be2d73120cc4e55fe24172a527a3940437fc76db5dfbb503d90a3',
}


@pytest.fixture(scope="module")
def case():
    return _case()


@pytest.mark.parametrize("name", sorted(_configs()))
def test_merge_trace_digest(case, name):
    assert route_digest(case, date98_technology(), _configs()[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_tree_configs()))
def test_tree_digest(case, name):
    tree = _tree_configs()[name](case, date98_technology())
    assert tree_digest(tree) == TREE_DIGESTS[name]


if __name__ == "__main__":
    _tech = date98_technology()
    _c = _case()
    for _name in sorted(_configs()):
        print("    %r: %r," % (_name, route_digest(_c, _tech, _configs()[_name])))
    print()
    for _name in sorted(_tree_configs()):
        print("    %r: %r," % (_name, tree_digest(_tree_configs()[_name](_c, _tech))))
