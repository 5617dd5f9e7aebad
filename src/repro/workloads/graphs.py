"""SNAP-style graph generators (substitute for [34] in the paper).

Triangle counting in the paper runs over SNAP networks, whose key
property for galloping intersections is a heavy-tailed degree
distribution: most neighbor-list intersections pair a short list with
a long one, where lookahead skips most of the long list.  These
generators reproduce that property with fixed seeds.
"""

import numpy as np


def power_law_adjacency(n, exponent=2.2, min_degree=1, seed=0):
    """Undirected simple graph with power-law degrees (configuration
    model, self-loops and multi-edges discarded).  Returns a dense 0/1
    adjacency matrix."""
    rng = np.random.default_rng(seed)
    degrees = np.round(min_degree * (rng.pareto(exponent - 1, n) + 1))
    degrees = np.minimum(degrees.astype(int), n - 1)
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    adj = np.zeros((n, n))
    for a, b in zip(stubs[0::2], stubs[1::2]):
        if a != b:
            adj[a, b] = 1.0
            adj[b, a] = 1.0
    return adj


def erdos_renyi_adjacency(n, p, seed=0):
    """Uniform random graph (flat degree distribution, for contrast)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1).astype(float)
    return upper + upper.T


def adjacency_to_csr(adj):
    """(pos, idx) arrays of a 0/1 adjacency matrix."""
    pos = [0]
    idx = []
    for row in adj:
        nonzeros = np.nonzero(row)[0]
        idx.extend(nonzeros.tolist())
        pos.append(len(idx))
    return np.array(pos, dtype=np.int64), np.array(idx, dtype=np.int64)


def triangle_count_reference(adj):
    """Exact triangle count via matrix powers, times 6 (ordered)."""
    paths = adj @ adj @ adj
    return float(np.trace(paths))


def hub_adjacency(n, hubs, p, seed=0):
    """A few hubs adjacent to everyone, over a sparse periphery.

    The extreme skew regime: neighbor intersections pair length-n hub
    lists with short lists, where galloping skips almost everything.
    """
    adj = erdos_renyi_adjacency(n, p, seed=seed)
    for hub in range(hubs):
        adj[hub, :] = 1.0
        adj[:, hub] = 1.0
    np.fill_diagonal(adj, 0.0)
    return adj


def snap_like_suite(seed=0):
    """Named graphs echoing the SNAP collection's variety.

    Sizes are scaled to pure-Python kernels; the degree skew (the
    property galloping exploits) matches the collection's shape.
    """
    return {
        "ca_like_powerlaw": power_law_adjacency(220, 2.0, 2, seed=seed + 1),
        "email_like_powerlaw": power_law_adjacency(260, 2.2, 1,
                                                   seed=seed + 2),
        "p2p_like_sparse": erdos_renyi_adjacency(160, 0.02, seed=seed + 3),
        "social_like_hubs": hub_adjacency(150, 3, 0.015, seed=seed + 4),
    }
