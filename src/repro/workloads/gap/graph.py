"""CSR graphs and synthetic generators.

The GAP suite's default input is a Kronecker (R-MAT) graph with a
power-law degree distribution; a uniform Erdos-Renyi-style generator is
provided as a contrast (more regular access pattern).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class Graph:
    """Directed graph in CSR form, with the reverse graph on demand.

    Attributes:
        offsets: int64 array of size n+1; vertex v's neighbors are
            ``neighbors[offsets[v]:offsets[v+1]]``.
        neighbors: int32 array of size m (sorted within each vertex).
        weights: optional int32 edge weights aligned with `neighbors`.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        if offsets.ndim != 1 or neighbors.ndim != 1:
            raise WorkloadError("CSR arrays must be one-dimensional")
        if offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise WorkloadError("malformed CSR offsets")
        self.offsets = offsets.astype(np.int64)
        self.neighbors = neighbors.astype(np.int32)
        self.weights = (
            None if weights is None else weights.astype(np.int32)
        )
        self._reverse: "Graph | None" = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count."""
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        """Out-degree of vertex v."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degrees of all vertices."""
        return np.diff(self.offsets)

    def neighbors_of(self, v: int) -> np.ndarray:
        """Neighbor array of vertex v."""
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def edge_range(self, v: int) -> tuple[int, int]:
        """CSR (start, stop) of vertex v's edges."""
        return int(self.offsets[v]), int(self.offsets[v + 1])

    def reverse(self) -> "Graph":
        """Transpose graph (cached). For undirected inputs it is self."""
        if self._reverse is None:
            self._reverse = from_edges(
                self.num_vertices,
                _edge_destinations(self),
                _edge_sources(self),
                None if self.weights is None else self.weights,
            )
        return self._reverse

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def _edge_sources(graph: Graph) -> np.ndarray:
    return np.repeat(
        np.arange(graph.num_vertices, dtype=np.int32), graph.degrees()
    )


def _edge_destinations(graph: Graph) -> np.ndarray:
    return graph.neighbors


def from_edges(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> Graph:
    """Build a CSR graph from edge lists (sorted, neighbors ordered)."""
    order = np.lexsort((dst, src))
    src = np.asarray(src, dtype=np.int64)[order]
    dst = np.asarray(dst, dtype=np.int32)[order]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int32)[order]
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, dst, weights)


def _finalize_edges(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    undirected: bool,
    weighted: bool,
    rng: np.random.Generator,
) -> Graph:
    """Dedup, drop self-loops, optionally mirror, attach weights."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    # Deduplicate parallel edges.
    key = src.astype(np.int64) * num_vertices + dst.astype(np.int64)
    __, unique_idx = np.unique(key, return_index=True)
    src, dst = src[unique_idx], dst[unique_idx]
    weights = None
    if weighted:
        # Symmetric weights for undirected graphs: derive from the edge
        # key so both directions agree.
        lo = np.minimum(src, dst).astype(np.int64)
        hi = np.maximum(src, dst).astype(np.int64)
        weights = ((lo * 2654435761 + hi * 40503) % 255 + 1).astype(np.int32)
    return from_edges(num_vertices, src, dst, weights)


def kronecker_graph(
    scale: int,
    degree: int = 16,
    undirected: bool = True,
    weighted: bool = False,
    seed: int = 42,
) -> Graph:
    """R-MAT/Kronecker generator with GAP's (0.57, 0.19, 0.19) seeds.

    `scale` is log2 of the vertex count; `degree` the average directed
    degree before symmetrization/dedup.
    """
    if scale < 2 or scale > 26:
        raise WorkloadError(f"kronecker scale out of range: {scale}")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * degree
    a, b, c = 0.57, 0.19, 0.19
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant probabilities: a (0,0), b (0,1), c (1,0), d (1,1).
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = (
            ((r >= a) & (r < a + b)) | (r >= a + b + c)
        ).astype(np.int64)
        src |= src_bit << bit
        dst |= dst_bit << bit
    # GAP permutes vertex ids to avoid locality artifacts from the
    # generator.
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    return _finalize_edges(n, src, dst, undirected, weighted, rng)


def uniform_graph(
    scale: int,
    degree: int = 16,
    undirected: bool = True,
    weighted: bool = False,
    seed: int = 42,
) -> Graph:
    """Uniform random graph with the same interface as kronecker."""
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * degree
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    return _finalize_edges(n, src, dst, undirected, weighted, rng)


def default_source(graph: Graph) -> int:
    """A deterministic, never-isolated BFS/SSSP source.

    GAP draws random sources from the giant component. The deterministic
    equivalent used here is the vertex at the 25th percentile of the
    positive-degree distribution: guaranteed connected-ish but *not* a
    hub, so a BFS from it ramps up over several levels before
    direction-optimization switches to bottom-up (the phase structure of
    the paper's Fig. 7). Falls back to the highest-degree vertex for
    degenerate graphs.
    """
    degrees = graph.degrees()
    positive = np.where(degrees > 0)[0]
    if len(positive) == 0:
        return 0
    order = positive[np.argsort(degrees[positive], kind="stable")]
    return int(order[len(order) // 4])


def path_graph(n: int) -> Graph:
    """A simple undirected path; handy for unit tests."""
    src = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    dst = np.concatenate([np.arange(1, n), np.arange(n - 1)])
    return from_edges(n, src, dst)
