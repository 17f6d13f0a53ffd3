"""Independent oracles used across the test suite.

These deliberately share no code with the package: a literal sum over all
configurations, or a product of 2x2 transfer matrices, computed with plain
Python products in whatever number type the inputs carry.
"""

import itertools


def brute_z(fields, edges, beta, gamma, pins=None):
    """Sum over all spin configurations of the vertex/edge factor product.

    Each configuration's edge factor is beta**n00 * gamma**n11, read from
    power tables built once per call, where n00 and n11 count its edges
    with both ends at spin 0 and both at spin 1.
    """
    pins = pins or {}
    ids = sorted(fields)
    position = {v: i for i, v in enumerate(ids)}
    ends = [(position[u], position[v]) for u, v in edges]
    beta_pow, gamma_pow = [1], [1]
    for _ in edges:
        beta_pow.append(beta_pow[-1] * beta)
        gamma_pow.append(gamma_pow[-1] * gamma)
    total = 0
    for spins in itertools.product((0, 1), repeat=len(ids)):
        if any(spins[position[v]] != s for v, s in pins.items()):
            continue
        w = 1
        for v, s in zip(ids, spins):
            if s == 0:
                w = w * fields[v]
        n00 = n11 = 0
        for i, j in ends:
            if spins[i] == spins[j]:
                if spins[i]:
                    n11 += 1
                else:
                    n00 += 1
        total = total + w * beta_pow[n00] * gamma_pow[n11]
    return total


def cycle_z(beta, gamma, fields):
    """Z of the cycle fields[0] - fields[1] - ... - fields[-1] - fields[0].

    The trace of the product, over the vertices in cycle order, of
    diag(f_v, 1) A, where A = [[beta, 1], [1, gamma]] holds the edge weight of
    each pair of spins (spin 0 carries the field).
    """
    m = [[1, 0], [0, 1]]
    for f in fields:
        t = [[f * beta, f], [1, gamma]]  # diag(f, 1) A
        m = [[m[i][0] * t[0][j] + m[i][1] * t[1][j] for j in (0, 1)] for i in (0, 1)]
    return m[0][0] + m[1][1]


def brute_effective_field(fields, edges, beta, gamma, output):
    z0 = brute_z(fields, edges, beta, gamma, pins={output: 0})
    z1 = brute_z(fields, edges, beta, gamma, pins={output: 1})
    return z0 / z1


def graph_tuple(graph):
    """(fields dict, edge list) view of a FieldedGraph for the oracles."""
    return dict(graph.vertices), list(graph.edges)
