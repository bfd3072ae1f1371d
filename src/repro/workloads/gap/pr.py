"""PageRank (pull direction, GAP-style).

Per iteration: a sequential pass computes each vertex's outgoing
contribution, then a gather pass walks every vertex's incoming neighbor
list (sequential burst) and fetches the contributions (data-dependent
random loads) — the classic mixed sequential/random pattern of graph
workloads the paper discusses.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import split_by_weight
from repro.workloads.gap.graph import Graph
from repro.workloads.gap.tracer import (
    CoreTracer,
    MemoryLayout,
    barrier_all,
    make_tracers,
)

DAMPING = 0.85


def pagerank_reference(graph: Graph, iterations: int) -> np.ndarray:
    """Pure-numpy PageRank, used to validate the instrumented kernel."""
    n = graph.num_vertices
    scores = np.full(n, 1.0 / n)
    degrees = np.maximum(graph.degrees(), 1)
    base = (1.0 - DAMPING) / n
    src = np.repeat(np.arange(n), graph.degrees())
    for __ in range(iterations):
        contrib = scores / degrees
        gathered = np.bincount(
            graph.neighbors, weights=contrib[src], minlength=n
        )
        scores = base + DAMPING * gathered
    return scores


class PageRankKernel:
    """Instrumented PageRank."""

    name = "pr"

    def __init__(self, graph: Graph, iterations: int = 2) -> None:
        self.graph = graph
        self.iterations = iterations
        self.result: np.ndarray | None = None

    def generate(self, cores: int) -> list[list]:
        """Execute the kernel, emitting per-core traces; returns them."""
        graph = self.graph
        n = graph.num_vertices
        layout = MemoryLayout()
        offsets = layout.array("offsets", n + 1, 8)
        neighbors = layout.array("neighbors", graph.num_edges, 4)
        scores_ref = layout.array("scores", n, 8)
        contrib_ref = layout.array("contrib", n, 8)
        tracers = make_tracers(cores)
        # Balance the gather phase by edge count, not vertex count.
        ranges = split_by_weight(graph.degrees() + 1, cores)

        scores = np.full(n, 1.0 / n)
        degrees = np.maximum(graph.degrees(), 1)
        base = (1.0 - DAMPING) / n
        src = np.repeat(np.arange(n), graph.degrees())

        for __ in range(self.iterations):
            # Phase A: contrib[v] = score[v] / degree[v], fully sequential.
            for tracer, (lo, hi) in zip(tracers, ranges):
                tracer.scan(scores_ref, lo, hi, instructions_per_elem=1)
                tracer.scan(offsets, lo, hi, instructions_per_elem=1)
                tracer.scan(contrib_ref, lo, hi, instructions_per_elem=1,
                            store=True)
            barrier_all(tracers)

            # Phase B: gather contributions along incoming edges.
            for tracer, (lo, hi) in zip(tracers, ranges):
                self._gather(tracer, graph, lo, hi, offsets, neighbors,
                             contrib_ref, scores_ref)
            barrier_all(tracers)

            contrib = scores / degrees
            gathered = np.bincount(
                graph.neighbors, weights=contrib[src], minlength=n
            )
            scores = base + DAMPING * gathered

        self.result = scores
        return [tracer.items for tracer in tracers]

    def _gather(
        self,
        tracer: CoreTracer,
        graph: Graph,
        lo: int,
        hi: int,
        offsets,
        neighbors,
        contrib_ref,
        scores_ref,
    ) -> None:
        graph_offsets = graph.offsets
        graph_neighbors = graph.neighbors
        load = tracer.load
        for v in range(lo, hi):
            start = graph_offsets[v]
            stop = graph_offsets[v + 1]
            tracer.scan(offsets, v, v + 2, instructions_per_elem=1)
            tracer.scan(neighbors, int(start), int(stop),
                        instructions_per_elem=1)
            for u in graph_neighbors[start:stop]:
                load(contrib_ref, int(u), instructions=2, dep=4)
            tracer.store(scores_ref, v, instructions=3)
