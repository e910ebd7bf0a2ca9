import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import total_cost
from sttrack.assign import FORBIDDEN, _solve_dense, solve


def brute_force(cost):
    """Exhaustive search over all partial assignments via a bitmask DP.

    Returns (max cardinality, min cost at that cardinality). Independent of
    the solver: plain dynamic programming over (row, used-column set).
    """
    c = np.asarray(cost, dtype=float)
    n_rows, n_cols = c.shape
    n_masks = 1 << n_cols
    best_card = np.zeros(n_masks, dtype=int)
    best_cost = np.full(n_masks, np.inf)
    best_cost[0] = 0.0
    all_masks = np.arange(n_masks)
    for r in range(n_rows):
        card = best_card.copy()
        cost_acc = best_cost.copy()
        for col in range(n_cols):
            if not math.isfinite(c[r, col]):
                continue
            bit = 1 << col
            src = (all_masks & bit) == 0
            idx = np.nonzero(src & np.isfinite(best_cost))[0]
            tgt = idx | bit
            cand_card = best_card[idx] + 1
            cand_cost = best_cost[idx] + c[r, col]
            better = (cand_card > card[tgt]) | (
                (cand_card == card[tgt]) & (cand_cost < cost_acc[tgt])
            )
            card[tgt] = np.where(better, cand_card, card[tgt])
            cost_acc[tgt] = np.where(better, cand_cost, cost_acc[tgt])
        best_card, best_cost = card, cost_acc
    top = best_card.max()
    return int(top), float(best_cost[best_card == top].min())


def random_matrix(rng, n_rows, n_cols, forbid_frac=0.2, lo=0.0, hi=1.0):
    c = rng.uniform(lo, hi, size=(n_rows, n_cols))
    c[rng.random((n_rows, n_cols)) < forbid_frac] = FORBIDDEN
    return c


def matching_is_valid(cost, pairs):
    rows = [r for r, _ in pairs]
    cols = [k for _, k in pairs]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    c = np.asarray(cost, dtype=float)
    assert all(math.isfinite(c[r, k]) for r, k in pairs)


def test_single_entry():
    assert solve([[0.3]]) == [(0, 0)]


def test_identity_cost_diagonal():
    c = np.ones((3, 3))
    np.fill_diagonal(c, 0.0)
    pairs = solve(c)
    assert pairs == [(0, 0), (1, 1), (2, 2)]
    assert total_cost(c, pairs) == 0.0


def test_empty_matrix():
    assert solve(np.zeros((0, 5))) == []
    assert solve(np.zeros((4, 0))) == []


def test_all_forbidden():
    c = np.full((3, 3), FORBIDDEN)
    assert solve(c) == []


def test_prefers_cardinality_over_cost():
    # Matching both rows costs 10 + 1; a single cheap match would cost 0.1,
    # but maximum cardinality must win.
    c = np.array([[0.1, 10.0], [FORBIDDEN, 1.0]])
    pairs = solve(c)
    assert len(pairs) == 2
    assert pairs == [(0, 0), (1, 1)]


def test_unmatchable_row_does_not_steal_cheap_column():
    # Row 0 only reaches col 0; if row 1 grabs it first, cardinality drops.
    c = np.array([[5.0, FORBIDDEN], [1.0, FORBIDDEN]])
    pairs = solve(c)
    assert len(pairs) == 1
    assert total_cost(c, pairs) == 1.0


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    for trial in range(300):
        n_rows = int(rng.integers(1, 8))
        n_cols = int(rng.integers(1, 8))
        c = random_matrix(rng, n_rows, n_cols)
        pairs = solve(c)
        matching_is_valid(c, pairs)
        card, cost = brute_force(c)
        assert len(pairs) == card, f"trial {trial}: cardinality {len(pairs)} != {card}"
        assert total_cost(c, pairs) <= cost + 1e-9, f"trial {trial}"


def test_negative_costs():
    rng = np.random.default_rng(77)
    for _ in range(60):
        c = random_matrix(rng, 5, 5, lo=-3.0, hi=3.0)
        pairs = solve(c)
        card, cost = brute_force(c)
        assert len(pairs) == card
        assert total_cost(c, pairs) <= cost + 1e-9


def test_rectangular_shapes():
    rng = np.random.default_rng(5)
    for n_rows, n_cols in [(2, 6), (6, 2), (1, 7), (7, 1)]:
        c = random_matrix(rng, n_rows, n_cols, forbid_frac=0.3)
        pairs = solve(c)
        card, cost = brute_force(c)
        assert len(pairs) == card
        assert total_cost(c, pairs) <= cost + 1e-9


def test_deterministic():
    rng = np.random.default_rng(9)
    c = random_matrix(rng, 6, 6)
    assert solve(c) == solve(c.copy())


def test_forbidding_never_increases_cardinality():
    rng = np.random.default_rng(42)
    for _ in range(50):
        c = random_matrix(rng, 5, 5, forbid_frac=0.1)
        base = len(solve(c))
        c2 = c.copy()
        live = np.argwhere(np.isfinite(c2))
        kill = live[rng.integers(len(live))]
        c2[kill[0], kill[1]] = FORBIDDEN
        assert len(solve(c2)) <= base


def test_row_permutation_permutes_matching():
    rng = np.random.default_rng(17)
    c = rng.uniform(0, 1, size=(5, 5))  # distinct costs: unique optimum
    perm = rng.permutation(5)
    base = dict(solve(c))
    permuted = dict(solve(c[perm]))
    for new_row, old_row in enumerate(perm):
        assert permuted[new_row] == base[old_row]


def test_rejects_nan():
    with pytest.raises(ValueError):
        solve(np.array([[0.0, np.nan]]))


@st.composite
def gated_matrices(draw, max_side=6):
    """Gated matrices with planted lone pairs: a row and a column whose only
    finite entry is the one they share.

    Entries are distinct powers of two (negated or not), so distinct sets of
    pairs have distinct exact sums and the min-cost maximum matching is
    unique.
    """
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    size = n_rows * n_cols
    exponents = np.array(draw(st.permutations(range(size))), dtype=float)
    sign = draw(st.sampled_from([1.0, -1.0]))
    base = sign * 2.0 ** -exponents.reshape(n_rows, n_cols)
    forbid = np.array(
        draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool
    ).reshape(n_rows, n_cols)
    cost = np.where(forbid, FORBIDDEN, base)
    n_lone = draw(st.integers(0, min(n_rows, n_cols)))
    rows = draw(st.permutations(range(n_rows)))[:n_lone]
    cols = draw(st.permutations(range(n_cols)))[:n_lone]
    for r, k in zip(rows, cols):
        cost[r, :] = FORBIDDEN
        cost[:, k] = FORBIDDEN
        cost[r, k] = base[r, k]
    return cost


ALL_LONE = np.where(np.eye(4, 5, k=1, dtype=bool), 0.25, FORBIDDEN)
NO_LONE = 2.0 ** -np.arange(12, dtype=float).reshape(3, 4)


@settings(max_examples=300, deadline=None)
@given(gated_matrices())
@example(ALL_LONE)
@example(NO_LONE)
@example(np.zeros((0, 5)))
@example(np.zeros((4, 0)))
def test_lone_pair_peeling_matches_brute_force(cost):
    pairs = solve(cost)
    matching_is_valid(cost, pairs)
    assert pairs == sorted(pairs)
    card, best = brute_force(cost)
    assert len(pairs) == card
    assert math.isclose(total_cost(cost, pairs), best, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(gated_matrices())
@example(ALL_LONE)
@example(NO_LONE)
@example(np.zeros((0, 5)))
@example(np.zeros((4, 0)))
def test_lone_pair_peeling_returns_the_dense_solution(cost):
    assert solve(cost) == _solve_dense(cost)


def test_all_lone_and_no_lone_hand_checked():
    assert solve(ALL_LONE) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # Row 0's entries dominate every sum, so it takes its cheapest column,
    # then row 1 and row 2 take theirs among the columns left.
    assert solve(NO_LONE) == [(0, 3), (1, 2), (2, 1)]
