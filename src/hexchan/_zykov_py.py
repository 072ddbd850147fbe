"""Exact coloring kernel: Zykov branch and bound over bitsets.

The search state is the contracted graph: adjacency rows as arbitrary-size
int bitmasks over "super-vertices", an active-vertex mask, and a map from
original vertices to their super-vertex.  At each node a greedy clique
bounds from below and a DSATUR coloring bounds from above; the branch
merges (same color) or connects (different colors) the non-adjacent pair
with the most common neighbors, merge side first.  A node whose clique
bound reaches the incumbent is pruned; complete graphs terminate because
clique and coloring bounds coincide there.

All tie-breaks take the lowest vertex index, which makes the search, and
therefore the returned coloring, deterministic for a given vertex order.
"""

from __future__ import annotations


def _clique_from_seed(adj: list[int], active: int, seed: int) -> int:
    size = 1
    cand = adj[seed] & active
    while cand:
        best_u = -1
        best_d = -1
        bits = cand
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            d = (adj[u] & cand).bit_count()
            if d > best_d:
                best_d = d
                best_u = u
        size += 1
        cand &= adj[best_u]
        cand &= ~(1 << best_u)
    return size


def _greedy_clique(adj: list[int], active: int, n: int) -> int:
    """Best greedy clique over all seeds; a chromatic lower bound."""
    best = 0
    bits = active
    while bits:
        v = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        size = _clique_from_seed(adj, active, v)
        if size > best:
            best = size
    return best


def _dsatur(adj: list[int], active: int, n: int) -> tuple[int, dict[int, int]]:
    """Deterministic DSATUR coloring of the active subgraph.

    Returns (number of colors, color per active vertex); colors are the
    contiguous range 0..k-1.
    """
    verts = []
    bits = active
    while bits:
        v = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        verts.append(v)
    deg = {v: (adj[v] & active).bit_count() for v in verts}
    neighbor_colors = {v: 0 for v in verts}
    labels: dict[int, int] = {}
    uncolored = set(verts)
    num_colors = 0
    while uncolored:
        best_v = -1
        best_key = (-1, -1)
        for v in verts:
            if v not in uncolored:
                continue
            key = (neighbor_colors[v].bit_count(), deg[v])
            if key > best_key:
                best_key = key
                best_v = v
        uncolored.remove(best_v)
        used = neighbor_colors[best_v]
        c = 0
        while (used >> c) & 1:
            c += 1
        labels[best_v] = c
        if c + 1 > num_colors:
            num_colors = c + 1
        bits = adj[best_v] & active
        while bits:
            w = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if w in neighbor_colors:
                neighbor_colors[w] |= 1 << c
    return num_colors, labels


def _branch_pair(adj: list[int], active: int, n: int) -> tuple[int, int] | None:
    """Non-adjacent active pair with the most common active neighbors."""
    verts = []
    bits = active
    while bits:
        v = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        verts.append(v)
    best = None
    best_score = -1
    for p, u in enumerate(verts):
        row = adj[u]
        for v in verts[p + 1 :]:
            if (row >> v) & 1:
                continue
            score = (adj[u] & adj[v] & active).bit_count()
            if score > best_score:
                best_score = score
                best = (u, v)
    return best


def clique_bound(n: int, edges: list[tuple[int, int]]) -> int:
    """Greedy clique size on the input graph (the solver's lower bound)."""
    if n == 0:
        return 0
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return _greedy_clique(adj, (1 << n) - 1, n)


def solve(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Optimal proper coloring of an n-vertex graph.

    ``edges`` holds index pairs (a < b).  Returns one color label per
    vertex; labels are contiguous from 0 and the assignment is
    deterministic for a given input order.
    """
    if n == 0:
        return []
    adj0 = [0] * n
    for a, b in edges:
        adj0[a] |= 1 << b
        adj0[b] |= 1 << a
    full = (1 << n) - 1

    best_k = n + 1
    best_labels: list[int] = list(range(n))
    stack: list[tuple[list[int], int, list[int]]] = [(adj0, full, list(range(n)))]
    while stack:
        adj, active, rep = stack.pop()
        lb = _greedy_clique(adj, active, n)
        if lb >= best_k:
            continue
        ub, labels = _dsatur(adj, active, n)
        if ub < best_k:
            best_k = ub
            best_labels = [labels[rep[v]] for v in range(n)]
            if lb >= best_k:
                continue
        pair = _branch_pair(adj, active, n)
        if pair is None:
            continue
        u, v = pair
        # Different-color branch: add the edge u-v (explored second).
        adj_conn = adj.copy()
        adj_conn[u] |= 1 << v
        adj_conn[v] |= 1 << u
        stack.append((adj_conn, active, rep))
        # Same-color branch: contract v into u (explored first).
        adj_merge = adj.copy()
        row_v = adj[v] & active
        adj_merge[u] |= row_v
        bits = row_v
        while bits:
            w = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            adj_merge[w] |= 1 << u
        rep_merge = [u if r == v else r for r in rep]
        stack.append((adj_merge, active & ~(1 << v), rep_merge))
    return best_labels
