"""Scheduling hypergraphs (Section 3.2).

For a schedule ``S`` of a unit-size instance, the scheduling hypergraph
``H_S = (V, E)`` has one node per job, weighted by its resource
requirement, and one hyperedge per time step containing the jobs active
in that step.  Its connected components carry the structural
information driving the (2 - 1/m) analysis:

* Observation 2: each component's edges are consecutive time steps, so
  components are totally ordered "left to right";
* Definition 1: the *class* ``q_k`` of component ``C_k`` is the size of
  its first edge -- an upper bound on the parallelism available inside
  the component;
* Lemma 2: for balanced, non-wasting, progressive schedules,
  ``|C_k| >= #_k + q_k - 1`` for every non-final component and
  ``|C_N| >= #_N`` for the final one.

The module builds these objects from any :class:`Schedule` and exposes
:class:`Component` records used by the Lemma 5/6 lower bounds and the
Theorem 7 accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from ..exceptions import MissingDependencyError, UnitSizeRequiredError
from .job import JobId
from .schedule import Schedule

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Component", "SchedulingGraph", "build_scheduling_graph"]


@dataclass(frozen=True, slots=True)
class Component:
    """One connected component of the scheduling graph.

    Attributes:
        index: 0-based component index in left-to-right order (the
            paper's ``k``, shifted by one).
        nodes: the jobs in the component (``C_k``).
        first_step: first time step (0-based) whose edge lies in the
            component.
        num_edges: the paper's ``#_k``.
        klass: the paper's class ``q_k`` -- the size of the first edge.
    """

    index: int
    nodes: frozenset[JobId]
    first_step: int
    num_edges: int
    klass: int

    @property
    def num_nodes(self) -> int:
        """``|C_k|``."""
        return len(self.nodes)

    @property
    def last_step(self) -> int:
        """Last time step whose edge lies in the component.

        Components cover consecutive steps (Observation 2).
        """
        return self.first_step + self.num_edges - 1


class SchedulingGraph:
    """The hypergraph ``H_S`` of a schedule, with component structure."""

    __slots__ = ("schedule", "edges", "components", "_component_of")

    def __init__(self, schedule: Schedule) -> None:
        if not schedule.instance.is_unit_size:
            raise UnitSizeRequiredError(
                "scheduling hypergraphs are defined for unit-size jobs "
                "(Section 3.2)"
            )
        self.schedule = schedule
        #: ``edges[t]`` is the hyperedge ``e_{t+1}`` of the paper.
        self.edges: list[tuple[JobId, ...]] = [
            schedule.active_jobs(t) for t in range(schedule.makespan)
        ]
        self.components: list[Component] = []
        self._component_of: dict[JobId, int] = {}
        self._build_components()

    # ------------------------------------------------------------------
    def _build_components(self) -> None:
        # Union-find over jobs; each hyperedge merges its members.
        parent: dict[JobId, JobId] = {}

        def find(x: JobId) -> JobId:
            """Union-find root of *x* with path compression."""
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(a: JobId, b: JobId) -> None:
            """Merge the components of *a* and *b*."""
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for (jid, _job) in self.schedule.instance.jobs():
            parent[jid] = jid
        # Steps with no active job (possible only while waiting for an
        # arrival in the release-time extension) contribute no edge.
        for edge in self.edges:
            for other in edge[1:]:
                union(edge[0], other)

        # Group edges and nodes by root; order components by first step.
        root_first_step: dict[JobId, int] = {}
        root_edges: dict[JobId, int] = {}
        for t, edge in enumerate(self.edges):
            if not edge:
                continue
            root = find(edge[0])
            root_first_step.setdefault(root, t)
            root_edges[root] = root_edges.get(root, 0) + 0 + 1
        root_nodes: dict[JobId, set[JobId]] = {}
        for jid in parent:
            root_nodes.setdefault(find(jid), set()).add(jid)

        ordered_roots = sorted(root_first_step, key=root_first_step.get)
        for k, root in enumerate(ordered_roots):
            first = root_first_step[root]
            comp = Component(
                index=k,
                nodes=frozenset(root_nodes[root]),
                first_step=first,
                num_edges=root_edges[root],
                klass=len(self.edges[first]),
            )
            self.components.append(comp)
            for jid in comp.nodes:
                self._component_of[jid] = k

        # Nodes never active in any edge cannot exist in a complete
        # schedule of a valid instance (every job is active at least in
        # its completion step), but guard for isolated roots anyway.
        uncovered = set(parent) - set(self._component_of)
        assert not uncovered, f"jobs missing from all edges: {uncovered}"

    # ------------------------------------------------------------------
    @property
    def num_components(self) -> int:
        """The paper's ``N``."""
        return len(self.components)

    def component_of(self, job: JobId) -> Component:
        """The connected component containing *job*."""
        return self.components[self._component_of[job]]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def node_weight(self, job: JobId) -> Fraction:
        """The node weight -- the job's resource requirement."""
        return self.schedule.instance.job(*job).requirement

    # ------------------------------------------------------------------
    # Structural checks (used by the test-suite)
    # ------------------------------------------------------------------
    def edges_of(self, component: Component) -> list[tuple[JobId, ...]]:
        """The hyperedges of *component*'s consecutive step block."""
        return self.edges[component.first_step : component.last_step + 1]

    def check_observation_2(self) -> bool:
        """Check Observation 2 on this schedule's hypergraph.

        Every component's edges form a consecutive block of time
        steps, and each edge lies inside one component.
        """
        for comp in self.components:
            for t in range(comp.first_step, comp.last_step + 1):
                if not set(self.edges[t]) <= comp.nodes:
                    return False
            # No edge outside the block may touch the component.
            for t, edge in enumerate(self.edges):
                inside = comp.first_step <= t <= comp.last_step
                if not inside and set(edge) & comp.nodes:
                    return False
        return True

    def check_classes_decreasing(self) -> bool:
        """Check the class structure stated after Definition 1.

        Classes ``q_k`` are non-increasing left to right, and edge
        sizes within a component never exceed its class (balanced
        schedules).
        """
        classes = [c.klass for c in self.components]
        if any(a < b for a, b in zip(classes, classes[1:])):
            return False
        for comp in self.components:
            if any(len(e) > comp.klass for e in self.edges_of(comp)):
                return False
        return True

    def check_lemma_2(self) -> bool:
        """Check Lemma 2 for balanced schedules.

        ``|C_k| >= #_k + q_k - 1`` for ``k < N`` and ``|C_N| >= #_N``
        (non-wasting, progressive schedules).
        """
        for comp in self.components:
            if comp.index < self.num_components - 1:
                if comp.num_nodes < comp.num_edges + comp.klass - 1:
                    return False
            else:
                if comp.num_nodes < comp.num_edges:
                    return False
        return True

    def mean_edges_per_component(self) -> Fraction:
        """The Theorem 7 quantity ``#_∅``.

        Average edge count over components (equals ``makespan / N``).
        """
        return Fraction(self.schedule.makespan, self.num_components)

    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Clique expansion of the hypergraph as a ``networkx`` graph.

        Nodes carry ``weight`` (the requirement) and ``component``
        attributes; edges carry the list of time steps whose hyperedge
        contains both endpoints.  Clique expansion preserves
        connectivity, so ``nx.connected_components`` agrees with
        :attr:`components`.

        Raises:
            MissingDependencyError: if networkx is not installed.
        """
        try:
            import networkx as nx
        except ImportError as exc:
            raise MissingDependencyError(
                "to_networkx needs networkx: pip install 'crsharing-repro[graph]'"
            ) from exc
        g = nx.Graph()
        for (jid, job) in self.schedule.instance.jobs():
            g.add_node(jid, weight=job.requirement, component=self._component_of[jid])
        for t, edge in enumerate(self.edges):
            for a_idx in range(len(edge)):
                for b_idx in range(a_idx + 1, len(edge)):
                    a, b = edge[a_idx], edge[b_idx]
                    if g.has_edge(a, b):
                        g.edges[a, b]["steps"].append(t)
                    else:
                        g.add_edge(a, b, steps=[t])
        return g


def build_scheduling_graph(schedule: Schedule) -> SchedulingGraph:
    """Convenience constructor for :class:`SchedulingGraph`."""
    return SchedulingGraph(schedule)
