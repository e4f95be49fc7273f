"""Membership-view statistics and partition detection.

Sec. 4.3/6.1: ideally "every process should ... be known by exactly l other
processes" — in-degree statistics quantify how close a run gets to that
ideal.  Sec. 4.4 defines partitioning: "two or more distinct subsets of
processes in the system, in each of which no process knows about any process
outside its partition" — on the *knows-about* digraph this is exactly the
condition that some union of strongly-connected-and-closed subsets splits the
graph; we detect it as the graph not being weakly connected *or* containing a
closed proper subset (no edges leaving the subset in either direction is the
paper's two-sided isolation).

The graph is a plain ``{pid: targets}`` mapping: no graph library needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..core.ids import ProcessId


def view_graph(nodes: Iterable) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
    """Directed *knows-about* graph ``{pid: tuple(view)}``, one edge per
    distinct view member; a target that is no pid is a node too."""
    return {node.pid: tuple(dict.fromkeys(node.view)) for node in nodes}


def in_degrees(graph: Mapping) -> Dict[ProcessId, int]:
    """In-degree of every node of a ``{pid: targets}`` graph: the pids in
    order, then the targets that are no pid in order of first mention."""
    degree = dict.fromkeys(graph, 0)
    for targets in graph.values():
        for target in targets:
            degree[target] = degree.get(target, 0) + 1
    return degree


def weak_components(graph: Mapping) -> List[Set[ProcessId]]:
    """Weakly connected components of a ``{pid: targets}`` graph by
    union-find, ordered by their first node as :func:`in_degrees` is."""
    parent: Dict[ProcessId, ProcessId] = dict(zip(graph, graph))

    def find(x: ProcessId) -> ProcessId:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pid, targets in graph.items():
        for target in targets:
            parent[find(pid)] = find(target)
    components: Dict[ProcessId, Set[ProcessId]] = {}
    for node in parent:  # pids, then the other targets by first mention
        components.setdefault(find(node), set()).add(node)
    return list(components.values())


@dataclass(frozen=True)
class InDegreeStats:
    """Summary of how many processes know each process."""

    mean: float
    std: float
    minimum: int
    maximum: int
    isolated: int  # processes nobody knows (in-degree 0)

    def coefficient_of_variation(self) -> float:
        return self.std / self.mean if self.mean else math.inf


def in_degree_stats(nodes: Iterable) -> InDegreeStats:
    """In-degree statistics over the knows-about graph.

    With perfectly uniform views of size ``l`` the mean in-degree is exactly
    ``l`` (every view contributes l edges) and the distribution is
    approximately binomial with small variance.
    """
    degrees = list(in_degrees(view_graph(nodes)).values())
    if not degrees:
        raise ValueError("no nodes")
    mean = sum(degrees) / len(degrees)
    var = sum((d - mean) ** 2 for d in degrees) / len(degrees)
    return InDegreeStats(
        mean=mean,
        std=math.sqrt(var),
        minimum=min(degrees),
        maximum=max(degrees),
        isolated=sum(1 for d in degrees if d == 0),
    )


def in_degree_distribution(nodes: Iterable) -> Dict[int, int]:
    """Histogram: in-degree -> number of processes with that in-degree."""
    histogram: Dict[int, int] = {}
    for degree in in_degrees(view_graph(nodes)).values():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def find_partitions(nodes: Iterable) -> List[Set[ProcessId]]:
    """Partition components in the paper's sense (Sec. 4.4).

    Returns the weakly connected components of the knows-about graph.  More
    than one component means membership knowledge has split into mutually
    oblivious islands — the unrecoverable situation the analysis bounds with
    Ψ.  (A weakly connected graph cannot be partitioned in the paper's
    two-sided sense: any edge across a candidate split, in either direction,
    means one side knows about the other.)
    """
    return weak_components(view_graph(nodes))


def is_partitioned(nodes: Iterable) -> bool:
    return len(find_partitions(nodes)) > 1


def dissemination_reachable(nodes: Iterable, origin: ProcessId) -> Set[ProcessId]:
    """Processes reachable from ``origin`` along view edges — an upper bound
    on who could ever be infected by a notification published at ``origin``
    if the views froze now."""
    graph = view_graph(nodes)
    if origin not in in_degrees(graph):
        return set()
    reachable, frontier = {origin}, [origin]
    while frontier:
        fresh = set(graph.get(frontier.pop(), ())) - reachable
        reachable |= fresh
        frontier.extend(fresh)
    return reachable


def view_uniformity_chi2(nodes: Sequence, view_size: int) -> float:
    """Pearson χ² statistic of observed in-degrees against the uniform-view
    ideal (binomial with mean ``view_size``).

    Under perfectly uniform independent views each process is in any other's
    view with probability l/(n-1), so the in-degree of every process is
    Binomial(n-1, l/(n-1)) with mean l.  We bin observed in-degrees and
    compare against that law; smaller is more uniform.  Used comparatively
    (weighted vs plain views), not as a formal hypothesis test.
    """
    from scipy import stats as scipy_stats

    nodes = list(nodes)
    n = len(nodes)
    if n < 2:
        raise ValueError("need at least two nodes")
    in_degree = in_degrees(view_graph(nodes))
    degrees = [in_degree[node.pid] for node in nodes]
    p = min(1.0, view_size / (n - 1))
    law = scipy_stats.binom(n - 1, p)

    # Bin: 0..2l individually, tail lumped.
    cap = 2 * view_size
    observed = [0.0] * (cap + 2)
    for degree in degrees:
        observed[min(degree, cap + 1)] += 1
    expected = [n * law.pmf(k) for k in range(cap + 1)]
    expected.append(n * (1.0 - law.cdf(cap)))

    chi2 = 0.0
    for obs, exp in zip(observed, expected):
        if exp > 1e-12:
            chi2 += (obs - exp) ** 2 / exp
    return chi2
