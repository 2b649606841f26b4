"""Tests for the flow-network helper."""

import os
import subprocess
import sys
from pathlib import Path

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
        assert net.number_of_edges() == 1

    def test_accessors(self):
        """``edges()`` yields (u, v, capacity, payload) in insertion
        order, infinite edges as capacity None; ``has_node`` knows the
        terminals and every endpoint; ``graph`` is the network."""
        net = FlowNetwork()
        net.source_edge("a")
        net.add_unit_edge("a", "b", payload="ab", capacity=3)
        net.sink_edge("b")
        assert list(net.edges()) == [
            (net.SOURCE, "a", None, None),
            ("a", "b", 3, "ab"),
            ("b", net.SINK, None, None),
        ]
        for node in (net.SOURCE, net.SINK, "a", "b"):
            assert net.has_node(node)
        assert not net.has_node("c")
        assert net.graph is net and net.graph.number_of_edges() == 3

    def test_rejected_unit_edge_adds_nothing(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_unit_edge("u", "v", payload=1, capacity=0)
        assert not net.has_node("u") and net.number_of_edges() == 0
        net.add_inf_edge("u", "v")
        with pytest.raises(ValueError):
            net.add_unit_edge("u", "v", payload=1)
        assert list(net.edges()) == [("u", "v", None, None)]

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


def test_import_repro_does_not_load_networkx():
    """networkx is a test oracle and a display helper only: a plain
    ``import repro`` must not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; assert 'networkx' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
