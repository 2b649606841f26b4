"""Tests for the flow-network helper."""

import pytest

from repro.resilience.flownet import FlowNetwork


class TestFlowNetwork:
    def test_simple_cut(self):
        net = FlowNetwork()
        net.source_edge("a_in")
        net.add_unit_edge("a_in", "a_out", payload="A")
        net.sink_edge("a_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads == ["A"]

    def test_parallel_paths(self):
        net = FlowNetwork()
        for name in ("a", "b"):
            net.source_edge(f"{name}_in")
            net.add_unit_edge(f"{name}_in", f"{name}_out", payload=name)
            net.sink_edge(f"{name}_out")
        value, payloads = net.min_cut()
        assert value == 2
        assert set(payloads) == {"a", "b"}

    def test_bottleneck_preferred(self):
        # Two unit edges funnel into one unit edge: cut the bottleneck.
        net = FlowNetwork()
        for name in ("a", "b"):
            net.source_edge(f"{name}_in")
            net.add_unit_edge(f"{name}_in", f"{name}_out", payload=name)
            net.add_inf_edge(f"{name}_out", "mid_in")
        net.add_unit_edge("mid_in", "mid_out", payload="mid")
        net.sink_edge("mid_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads == ["mid"]

    def test_empty_network(self):
        net = FlowNetwork()
        assert net.min_cut() == (0, [])

    def test_no_path(self):
        net = FlowNetwork()
        net.source_edge("a")
        net.sink_edge("b")  # disconnected from a
        value, payloads = net.min_cut()
        assert value == 0 and payloads == []

    def test_infinite_path_raises(self):
        net = FlowNetwork()
        net.source_edge("a")
        net.sink_edge("a")
        with pytest.raises(RuntimeError):
            net.min_cut()

    def test_duplicate_unit_edge_rejected(self):
        net = FlowNetwork()
        net.add_unit_edge("u", "v", payload=1)
        with pytest.raises(ValueError):
            net.add_unit_edge("u", "v", payload=2)

    def test_duplicate_inf_edge_is_noop(self):
        net = FlowNetwork()
        net.add_inf_edge("u", "v")
        net.add_inf_edge("u", "v")
        assert net.graph.number_of_edges() == 1

    def test_series_cuts_pay_once(self):
        """With two equal unit cuts in series, exactly one is charged."""
        net = FlowNetwork()
        net.source_edge("x_in")
        net.add_unit_edge("x_in", "x_out", payload="near")
        net.add_inf_edge("x_out", "y_in")
        net.add_unit_edge("y_in", "y_out", payload="far")
        net.sink_edge("y_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads in (["near"], ["far"])


def test_repro_resilience_is_the_subpackage():
    """``repro.resilience`` names the subpackage, so dotted imports of
    its modules work; the ``resilience`` function stays one level down."""
    import types

    import repro
    import repro.resilience.flownet as flownet

    assert isinstance(repro.resilience, types.ModuleType)
    assert flownet.FlowNetwork is FlowNetwork
    assert repro.resilience.resilience is repro.resilience.solver.resilience
    assert "resilience" not in repro.__all__
