"""Optimal bipartite assignment over cost matrices with forbidden entries.

Semantics: among all matchings that use only non-FORBIDDEN entries, return
one of maximum cardinality, and among those one of minimum total cost. A
feasible pair is therefore never dropped to save cost, matching the role of
the +infinity entries in the gated association matrices.

Implementation: first peel off lone pairs, a row and a column that are each
other's only finite entry. Such a pair is an isolated edge of the bipartite
graph, so every maximum matching contains it and nothing else competes for
either end; matching it directly keeps minimum cost at maximum cardinality.
In gated association matrices most feasible rows are lone. The rows and
columns that are left and have any finite entry go to successive shortest
augmenting paths with dual potentials (Kuhn-Munkres family). Each phase
runs a multi-source Dijkstra from every unmatched row, so the globally
cheapest augmenting path is used; this is what guarantees minimum cost at
maximum cardinality when some rows are unmatchable. Deterministic:
equal-distance ties settle the lowest column index first and source ties
prefer the lowest row index.
"""

from __future__ import annotations

import math

import numpy as np

FORBIDDEN = math.inf


def solve(cost: np.ndarray | list) -> list[tuple[int, int]]:
    """Solve the assignment problem for a rectangular cost matrix.

    Entries must be finite or FORBIDDEN (+inf). Returns (row, col) pairs
    sorted by row; an empty matrix yields an empty matching.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {c.shape}")
    n_rows, n_cols = c.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if np.isnan(c).any() or np.isneginf(c).any():
        raise ValueError("cost entries must be finite or FORBIDDEN (+inf)")

    finite = np.isfinite(c)
    row_deg = finite.sum(axis=1)
    col_deg = finite.sum(axis=0)
    lone_rows = np.nonzero(row_deg == 1)[0]
    lone_cols = finite[lone_rows].argmax(axis=1)
    mutual = col_deg[lone_cols] == 1
    lone_rows, lone_cols = lone_rows[mutual], lone_cols[mutual]
    pairs = list(zip(lone_rows.tolist(), lone_cols.tolist()))

    row_open = row_deg > 0
    row_open[lone_rows] = False
    col_open = col_deg > 0
    col_open[lone_cols] = False
    rows, cols = np.nonzero(row_open)[0], np.nonzero(col_open)[0]
    if rows.size:
        sub = _solve_dense(c[np.ix_(rows, cols)])
        pairs.extend((int(rows[r]), int(cols[k])) for r, k in sub)
    pairs.sort()
    return pairs


def _solve_dense(c: np.ndarray) -> list[tuple[int, int]]:
    """Shortest augmenting paths over a validated float matrix."""
    n_rows, n_cols = c.shape
    finite = np.isfinite(c)
    if not finite.any():
        return []

    # A uniform shift keeps the per-cardinality ranking and lets the dual
    # potentials start at zero with non-negative reduced costs.
    shift = min(0.0, float(c[finite].min()))
    work = np.where(finite, c - shift, np.inf)

    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    match_row = np.full(n_rows, -1, dtype=int)  # row -> col
    match_col = np.full(n_cols, -1, dtype=int)  # col -> row

    while True:
        free_rows = np.nonzero(match_row == -1)[0]
        if free_rows.size == 0:
            break
        # Multi-source Dijkstra over columns on reduced costs.
        reduced = work[free_rows] - u[free_rows, None] - v[None, :]
        src_idx = np.argmin(reduced, axis=0)  # ties -> lowest free row
        dist = reduced[src_idx, np.arange(n_cols)]
        src = free_rows[src_idx]
        prev_col = np.full(n_cols, -1, dtype=int)
        row_dist = {int(r): 0.0 for r in free_rows}
        settled = np.zeros(n_cols, dtype=bool)

        sink = -1
        while True:
            open_cols = np.nonzero(~settled)[0]
            if open_cols.size == 0:
                break
            best = open_cols[np.argmin(dist[open_cols])]  # ties -> lowest col
            if not np.isfinite(dist[best]):
                break
            settled[best] = True
            owner = match_col[best]
            if owner == -1:
                sink = int(best)
                break
            row_dist[int(owner)] = float(dist[best])
            relax = dist[best] + work[owner] - u[owner] - v
            improve = ~settled & (relax < dist)
            dist[improve] = relax[improve]
            prev_col[improve] = best

        if sink == -1:
            break  # no augmenting path anywhere: matching is maximum

        # Dual update keeps reduced costs non-negative and path edges tight:
        # node potential min(dist, cap), with unreached nodes treated as cap.
        cap = float(dist[sink])
        v += np.minimum(dist, cap)
        row_pi = np.full(n_rows, cap)
        for r, d in row_dist.items():
            row_pi[r] = min(d, cap)
        u -= row_pi

        # Augment along the recorded path.
        col = sink
        while True:
            pc = prev_col[col]
            row = int(src[col]) if pc == -1 else int(match_col[pc])
            match_col[col] = row
            match_row[row] = col
            if pc == -1:
                break
            col = pc

    return [(int(r), int(match_row[r])) for r in range(n_rows) if match_row[r] != -1]
