"""Unit tests for SVG rendering."""

import pytest

from repro.bench.suite import load_benchmark
from repro.core.controller import ControllerLayout
from repro.core.flow import route_buffered, route_gated
from repro.io.svg import render_svg, save_svg
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def setup():
    case = load_benchmark("r1", scale=0.08)
    tech = date98_technology()
    gated = route_gated(case.sinks, tech, case.oracle, die=case.die)
    layout = ControllerLayout.centralized(case.die)
    return case, gated, layout


class TestRendering:
    def test_produces_svg_document(self, setup):
        case, gated, layout = setup
        svg = render_svg(gated.tree, routing=gated.routing, layout=layout)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg

    def test_draws_every_sink(self, setup):
        case, gated, layout = setup
        svg = render_svg(gated.tree)
        assert svg.count("<circle") >= case.num_sinks

    def test_draws_gates_and_controller(self, setup):
        case, gated, layout = setup
        svg = render_svg(gated.tree, routing=gated.routing, layout=layout)
        assert svg.count("<rect") >= gated.gate_count  # gate markers + die
        assert "#6a1b9a" in svg  # controller marker style

    def test_enables_can_be_hidden(self, setup):
        case, gated, layout = setup
        with_enables = render_svg(
            gated.tree, routing=gated.routing, layout=layout, show_enables=True
        )
        without = render_svg(
            gated.tree, routing=gated.routing, layout=layout, show_enables=False
        )
        assert len(without) < len(with_enables)

    def test_buffered_tree_renders_without_routing(self, setup):
        case, *_ = setup
        buffered = route_buffered(case.sinks, date98_technology())
        svg = render_svg(buffered.tree)
        assert "<path" in svg

    def test_save_svg(self, setup, tmp_path):
        case, gated, layout = setup
        path = tmp_path / "tree.svg"
        save_svg(gated.tree, str(path), routing=gated.routing, layout=layout)
        assert path.read_text().startswith("<svg")

    def test_unembedded_tree_rejected(self):
        from repro.cts import ClockTree
        from repro.tech import unit_technology

        with pytest.raises(ValueError):
            render_svg(ClockTree(unit_technology()))

    def test_snaked_edges_drawn_dashed_with_detours(self):
        # Widely spread sink loads force snaked zero-skew splits (same
        # recipe as the route geometry tests).
        from tests.test_cts_routes import snaky_tree

        tree = snaky_tree()
        assert any(n.snaked for n in tree.edges())
        svg = render_svg(tree)
        assert "stroke-dasharray" in svg
        # The serpentine adds extra path vertices beyond plain L-routes.
        assert svg.count(" L ") > 2 * (len(tree.sinks()) - 1)
