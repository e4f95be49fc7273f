"""Tests for view-graph statistics and partition detection."""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core import LpbcastConfig
from repro.metrics import (
    dissemination_reachable,
    find_partitions,
    in_degree_distribution,
    in_degree_stats,
    is_partitioned,
    view_graph,
    view_uniformity_chi2,
)
from repro.metrics.views import in_degrees, weak_components
from repro.sim import build_lpbcast_nodes

from ..helpers import make_node


def chain_nodes():
    """0 -> 1 -> 2 (directed knows-about chain)."""
    return [
        make_node(pid=0, view=(1,), view_max=3, fanout=1),
        make_node(pid=1, view=(2,), view_max=3, fanout=1),
        make_node(pid=2, view=(), view_max=3, fanout=1),
    ]


class TestViewGraph:
    def test_edges_follow_views(self):
        graph = view_graph(chain_nodes())
        assert graph == {0: (1,), 1: (2,), 2: ()}

    def test_all_nodes_present(self):
        graph = view_graph(chain_nodes())
        assert list(in_degrees(graph)) == [0, 1, 2]

    def test_strangers_are_nodes(self):
        # 7 is in a view but no process: a node with in-degree 1.
        nodes = chain_nodes() + [make_node(pid=3, view=(0, 7), view_max=3)]
        assert in_degrees(view_graph(nodes)) == {0: 1, 1: 1, 2: 1, 3: 0, 7: 1}
        assert in_degree_distribution(nodes) == {1: 4, 0: 1}
        assert dissemination_reachable(nodes, 7) == {7}


class TestInDegree:
    def test_stats(self):
        stats = in_degree_stats(chain_nodes())
        assert stats.mean == pytest.approx(2 / 3)
        assert stats.minimum == 0
        assert stats.maximum == 1
        assert stats.isolated == 1  # nobody knows node 0

    def test_uniform_bootstrap_mean_equals_l(self):
        nodes = build_lpbcast_nodes(60, LpbcastConfig(view_max=10), seed=0)
        stats = in_degree_stats(nodes)
        assert stats.mean == pytest.approx(10.0)
        assert stats.isolated == 0

    def test_distribution_sums_to_n(self):
        nodes = build_lpbcast_nodes(30, LpbcastConfig(view_max=5), seed=0)
        histogram = in_degree_distribution(nodes)
        assert sum(histogram.values()) == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            in_degree_stats([])


class TestPartitions:
    def test_connected_system_single_component(self):
        nodes = build_lpbcast_nodes(30, LpbcastConfig(view_max=5), seed=0)
        assert not is_partitioned(nodes)
        assert len(find_partitions(nodes)) == 1

    def test_two_islands_detected(self):
        island1 = [
            make_node(pid=0, view=(1,), view_max=2, fanout=1),
            make_node(pid=1, view=(0,), view_max=2, fanout=1),
        ]
        island2 = [
            make_node(pid=2, view=(3,), view_max=2, fanout=1),
            make_node(pid=3, view=(2,), view_max=2, fanout=1),
        ]
        nodes = island1 + island2
        assert is_partitioned(nodes)
        partitions = find_partitions(nodes)
        assert {frozenset(p) for p in partitions} == {
            frozenset({0, 1}), frozenset({2, 3})
        }

    def test_one_directional_edge_joins_components(self):
        # 2 knows 0: the membership knowledge can still flow.
        nodes = [
            make_node(pid=0, view=(1,), view_max=2, fanout=1),
            make_node(pid=1, view=(0,), view_max=2, fanout=1),
            make_node(pid=2, view=(0, 3), view_max=2, fanout=1),
            make_node(pid=3, view=(2,), view_max=2, fanout=1),
        ]
        assert not is_partitioned(nodes)


class TestReachability:
    def test_chain_reachability(self):
        nodes = chain_nodes()
        assert dissemination_reachable(nodes, 0) == {0, 1, 2}
        assert dissemination_reachable(nodes, 2) == {2}

    def test_unknown_origin(self):
        assert dissemination_reachable(chain_nodes(), 99) == set()


class TestUniformity:
    def test_uniform_views_score_low(self):
        nodes = build_lpbcast_nodes(100, LpbcastConfig(view_max=8), seed=1)
        chi2 = view_uniformity_chi2(nodes, view_size=8)
        assert chi2 < 100

    def test_skewed_views_score_higher(self):
        # Everyone knows only node 0's neighbourhood: highly non-uniform.
        nodes = [make_node(pid=i, view=tuple(j for j in range(1, 9) if j != i),
                           view_max=8, fanout=2) for i in range(100)]
        skewed = view_uniformity_chi2(nodes, view_size=8)
        uniform_nodes = build_lpbcast_nodes(100, LpbcastConfig(view_max=8), seed=1)
        uniform = view_uniformity_chi2(uniform_nodes, view_size=8)
        assert skewed > uniform * 5

    def test_small_population_rejected(self):
        with pytest.raises(ValueError):
            view_uniformity_chi2([make_node(pid=0)], view_size=3)


@st.composite
def view_systems(draw):
    """Processes ``0..n-1`` with random self-free views (repeats allowed)
    over ``0..n+2``: ids ``>= n`` are strangers no process owns."""
    n = draw(st.integers(1, 10))
    return [SimpleNamespace(pid=pid, view=draw(st.lists(
        st.integers(0, n + 2).filter(lambda q, pid=pid: q != pid),
        max_size=4))) for pid in range(n)]


class TestNetworkxTwin:
    """The mapping against the networkx digraph this module used to build
    (networkx is installed for the twin but no dependency)."""

    @staticmethod
    def reference(nodes):
        nx = pytest.importorskip("networkx")
        graph = nx.DiGraph()
        for node in nodes:
            graph.add_node(node.pid)
        for node in nodes:
            for target in node.view:
                graph.add_edge(node.pid, target)
        return nx, graph

    @given(view_systems())
    def test_same_graph_components_reach_and_degrees(self, nodes):
        nx, reference = self.reference(nodes)
        graph = view_graph(nodes)
        assert {(p, q) for p, qs in graph.items() for q in qs} \
            == set(reference.edges)
        assert list(in_degrees(graph).items()) == list(reference.in_degree)
        assert find_partitions(nodes) \
            == [set(c) for c in nx.weakly_connected_components(reference)]
        histogram = {}
        for _, degree in reference.in_degree:
            histogram[degree] = histogram.get(degree, 0) + 1
        assert in_degree_distribution(nodes) == histogram
        for origin in [*reference.nodes, len(nodes) + 3]:
            expected = ({origin, *nx.descendants(reference, origin)}
                        if origin in reference else set())
            assert dissemination_reachable(nodes, origin) == expected


def heavy_modules_after(code):
    """Which of networkx, numpy's core and scipy a fresh interpreter has
    loaded after running ``code``.  A ``numpy`` entry alone does not count:
    only ``numpy._core`` means numpy's import ran."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = code + ("\nimport sys\nprint([m for m in ('networkx', "
                    "'numpy._core', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1]


class TestNoGraphLibrary:
    def test_engines_import_without_networkx(self):
        # Nor numpy nor scipy: a columnar build, a bitset call or an
        # analysis command loads them, importing the engines does not.
        loaded = heavy_modules_after(
            "import repro, repro.sim, repro.sim.columnar_runner, "
            "repro.metrics, repro.runtime.udp, repro.dst, repro.cli\n"
            "from repro.core import LpbcastConfig\n"
            "nodes = repro.sim.build_lpbcast_nodes("
            "20, LpbcastConfig(fanout=3, view_max=8), seed=1)\n"
            "sim = repro.sim.create_simulation(seed=1)\n"
            "sim.add_nodes(nodes)\n"
            "event = nodes[0].lpb_cast('x', 0.0).event_id\n"
            "sim.run(1)\n"
            "assert sum(node.has_delivered(event) for node in nodes) > 1")
        assert loaded == "[]"

    def test_columnar_build_loads_numpy(self):
        loaded = heavy_modules_after(
            "from repro.core import LpbcastConfig\n"
            "from repro.sim import ColumnarRoundSimulation\n"
            "ColumnarRoundSimulation.build("
            "1000, LpbcastConfig(fanout=3, view_max=8), seed=1)")
        assert loaded == "['numpy._core']"

    def test_union_find_on_a_mapping(self):
        views = {0: [1], 1: [], 2: [9], 3: [2]}
        assert weak_components(views) == [{0, 1}, {2, 3, 9}]
