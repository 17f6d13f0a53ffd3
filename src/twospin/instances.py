"""Seeded random instances for verification sweeps.

All generators draw from a caller-supplied ``random.Random`` (Mersenne
Twister), so a seed pins the whole sweep; the test suite and the CLI's
random verification modes both document their seeds.
"""

from __future__ import annotations

import random

from .core import FieldedGraph


MAX_DEGREE = 5


def random_bipartite_graph(rng: random.Random, max_vertices: int = 12
                           ) -> tuple[FieldedGraph, list]:
    """Simple bipartite graph of degree at most MAX_DEGREE; returns (graph, left ids).

    Fields are placeholder 1s; transforms overwrite them.
    """
    n = rng.randint(2, max_vertices)
    n_left = rng.randint(1, n - 1)
    n_right = n - n_left
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{i}" for i in range(n_right)]
    candidates = [(u, v) for u in left for v in right]
    rng.shuffle(candidates)
    degree = {v: 0 for v in left + right}
    edges = []
    p_keep = rng.uniform(0.2, 0.8)
    for u, v in candidates:
        if degree[u] >= MAX_DEGREE or degree[v] >= MAX_DEGREE:
            continue
        if rng.random() < p_keep:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    vertices = tuple((v, 1) for v in left + right)
    return FieldedGraph(vertices, tuple(edges)), left


def random_graph(rng: random.Random, max_vertices: int = 12, field=1) -> FieldedGraph:
    """General multigraph with uniform fields; may include loops/parallel edges."""
    n = rng.randint(1, max_vertices)
    ids = [f"v{i}" for i in range(n)]
    p_edge = rng.uniform(0.15, 0.5)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append((ids[i], ids[j]))
                if rng.random() < 0.08:
                    edges.append((ids[i], ids[j]))
    for v in ids:
        if rng.random() < 0.08:
            edges.append((v, v))
    vertices = tuple((v, field) for v in ids)
    return FieldedGraph(vertices, tuple(edges))

