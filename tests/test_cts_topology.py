"""Unit tests for the clock-tree container."""

import pytest

from repro.check.errors import EmbeddingAuditError
from repro.cts import ClockTree, Sink
from repro.geometry import Point, Trr
from repro.tech import unit_technology


def sink(i, x, y, cap=1.0):
    return Sink(name="s%d" % i, location=Point(x, y), load_cap=cap, module=i)


def two_leaf_tree():
    tree = ClockTree(unit_technology())
    a = tree.add_leaf(sink(0, 0, 0))
    b = tree.add_leaf(sink(1, 4, 0))
    root = tree.add_internal(a.id, b.id, Trr.from_point(Point(2, 0)))
    tree.set_root(root.id)
    return tree, a, b, root


class TestSink:
    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            Sink(name="x", location=Point(0, 0), load_cap=-1.0, module=0)

    def test_rejects_negative_module(self):
        with pytest.raises(ValueError):
            Sink(name="x", location=Point(0, 0), load_cap=1.0, module=-1)


class TestConstruction:
    def test_leaf_carries_module_mask(self):
        tree = ClockTree(unit_technology())
        node = tree.add_leaf(sink(5, 1, 1))
        assert node.module_mask == 1 << 5
        assert node.is_sink
        assert node.subtree_cap == 1.0

    def test_internal_links_children(self):
        tree, a, b, root = two_leaf_tree()
        assert a.parent == root.id
        assert b.parent == root.id
        assert root.children == (a.id, b.id)

    def test_remerging_a_child_rejected(self):
        tree, a, b, root = two_leaf_tree()
        c = tree.add_leaf(sink(2, 9, 9))
        with pytest.raises(ValueError):
            tree.add_internal(a.id, c.id, Trr.from_point(Point(0, 0)))

    def test_root_must_be_parentless(self):
        tree, a, b, root = two_leaf_tree()
        with pytest.raises(ValueError):
            tree.set_root(a.id)

    def test_root_access_before_set_raises(self):
        tree = ClockTree(unit_technology())
        tree.add_leaf(sink(0, 0, 0))
        with pytest.raises(ValueError):
            _ = tree.root_id


class TestTraversal:
    def test_len_counts_nodes(self):
        tree, *_ = two_leaf_tree()
        assert len(tree) == 3

    def test_sinks_and_internal_partition(self):
        tree, a, b, root = two_leaf_tree()
        assert {n.id for n in tree.sinks()} == {a.id, b.id}
        assert {n.id for n in tree.internal_nodes()} == {root.id}

    def test_edges_exclude_root(self):
        tree, a, b, root = two_leaf_tree()
        assert {n.id for n in tree.edges()} == {a.id, b.id}

    def test_preorder_visits_parent_first(self):
        tree, a, b, root = two_leaf_tree()
        order = [n.id for n in tree.preorder()]
        assert order[0] == root.id
        assert set(order) == {a.id, b.id, root.id}

    def test_parent_chain_and_depth(self):
        tree, a, b, root = two_leaf_tree()
        chain = [n.id for n in tree.parent_chain(a.id)]
        assert chain == [root.id]
        assert tree.depth(a.id) == 1
        assert tree.depth(root.id) == 0


class TestMetrics:
    def test_total_wirelength(self):
        tree, a, b, root = two_leaf_tree()
        a.edge_length = 2.0
        b.edge_length = 2.0
        assert tree.total_wirelength() == 4.0

    def test_gate_and_cell_counts(self):
        tree, a, b, root = two_leaf_tree()
        tech = tree.tech
        a.edge_cell = tech.masking_gate
        a.edge_maskable = True
        b.edge_cell = tech.buffer
        b.edge_maskable = False
        assert tree.gate_count() == 1
        assert tree.cell_count() == 2
        assert tree.cell_area() == tech.masking_gate.area + tech.buffer.area
        assert [n.id for n in tree.gates()] == [a.id]


class TestValidation:
    def test_unplaced_tree_fails_validation(self):
        tree, *_ = two_leaf_tree()
        with pytest.raises(ValueError):
            tree.validate_embedding()

    def test_placement_off_segment_fails(self):
        tree, a, b, root = two_leaf_tree()
        a.location = Point(9, 9)  # not the sink location
        b.location = Point(4, 0)
        root.location = Point(2, 0)
        a.edge_length = b.edge_length = 100.0
        with pytest.raises(ValueError):
            tree.validate_embedding()

    def test_short_edge_fails(self):
        tree, a, b, root = two_leaf_tree()
        a.location = Point(0, 0)
        b.location = Point(4, 0)
        root.location = Point(2, 0)
        a.edge_length = 0.5  # needs >= 2
        b.edge_length = 2.0
        with pytest.raises(ValueError):
            tree.validate_embedding()

    def test_consistent_embedding_passes(self):
        tree, a, b, root = two_leaf_tree()
        a.location = Point(0, 0)
        b.location = Point(4, 0)
        root.location = Point(2, 0)
        a.edge_length = 2.0
        b.edge_length = 2.5  # snaked edges may be longer
        tree.validate_embedding()


def four_leaf_tree():
    """Leaves at x = 0, 4, 10, 14 merged pairwise, then at the root."""
    tree = ClockTree(unit_technology())
    a = tree.add_leaf(sink(0, 0, 0))
    b = tree.add_leaf(sink(1, 4, 0))
    c = tree.add_leaf(sink(2, 10, 0))
    d = tree.add_leaf(sink(3, 14, 0))
    ab = tree.add_internal(a.id, b.id, Trr.from_point(Point(2, 0)))
    cd = tree.add_internal(c.id, d.id, Trr.from_point(Point(12, 0)))
    root = tree.add_internal(ab.id, cd.id, Trr.from_point(Point(7, 0)))
    tree.set_root(root.id)
    for node in (a, b, c, d):
        node.edge_length = 2.0
    ab.edge_length = cd.edge_length = 5.0
    return tree, (a, b, c, d, ab, cd, root)


class TestIncrementalPlace:
    def test_full_walk_replaces_every_node_in_preorder(self):
        tree, _ = four_leaf_tree()
        assert tree.place() == [n.id for n in tree.preorder()]

    def test_unchanged_walk_stops_below_unmoved_nodes(self):
        tree, (a, b, c, d, ab, cd, root) = four_leaf_tree()
        tree.place()
        assert sorted(tree.place(changed=set())) == sorted([root.id, ab.id, cd.id])

    def test_changed_node_replaces_its_children(self):
        tree, (a, b, c, d, ab, cd, root) = four_leaf_tree()
        tree.place()
        replaced = tree.place(changed={ab.id})
        assert sorted(replaced) == sorted([root.id, ab.id, cd.id, a.id, b.id])

    def test_moved_node_replaces_its_subtree(self):
        tree, (a, b, c, d, ab, cd, root) = four_leaf_tree()
        tree.place()
        ab.merging_segment = Trr.from_point(Point(2, 1))
        a.edge_length = b.edge_length = 3.0
        ab.edge_length = 6.0
        replaced = tree.place(changed={root.id})
        assert sorted(replaced) == sorted([root.id, ab.id, cd.id, a.id, b.id])
        assert ab.location == Point(2, 1)
        tree.validate_embedding()

    def test_replaced_nodes_are_checked(self):
        tree, (a, b, c, d, ab, cd, root) = four_leaf_tree()
        tree.place()
        a.edge_length = 0.5  # needs >= 2
        with pytest.raises(EmbeddingAuditError) as info:
            tree.place(changed={ab.id})
        assert info.value.node == a.id
