"""Exact minimum-cost bipartite matching.

``solve`` is a shortest-augmenting-path solver (Jonker & Volgenant 1987, in
the rectangular form of Crouse 2016), O(n^3) for an n x n matrix. Column
reduction seeds the dual variables ``u``, ``v`` and a partial matching;
each row it leaves free is then matched along a shortest augmenting path,
found by Dijkstra on the reduced costs ``c - u - v``. Rectangular inputs are
padded to square with a sentinel cost and the padded pairs are stripped
from the result.

Ties are broken deterministically: among equal-cost optima, the pairing
whose (row, column) list sorted by row is lexicographically smallest wins.
By complementary slackness the optimal assignments are exactly the perfect
matchings on the tight edges (``c - u - v <= EPS``) of the final duals, so
``solve`` extracts the lexicographically smallest of those in one
alternating-path pass.

Before any of that, ``solve`` tries a shortcut. Take the shorter side as
rows; if every row's nearest column is distinct and each row's runner-up
entry exceeds its minimum by more than ``2 * dim * EPS`` (dim the longer
side), the nearest columns are returned as they are. This is exact: the
sum of the row minima bounds every injective map of the short side from
below and the nearest map reaches it, while any other map takes a
non-minimum entry in some row and so costs more than the margin extra
(padding lines cost the same in every cell and change no comparison).
Every perfect matching on the dual path's tight edges is within
``dim * EPS`` of the optimum, so with the margin above ``2 * dim * EPS``
(the second ``dim * EPS`` is slack for rounding in the duals) the lex-min
pass could only have returned the nearest map too. Near-ties take the dual
path, so both paths give the same answer.

The staged Hungarian functions follow the paper's worked trace: subtract
each row's minimum (``reduce_rows``) and each column's minimum
(``reduce_cols``), cover every zero with the fewest full rows and columns
(``min_line_cover``, a maximum zero matching plus König's marking), and
shift the zero pattern by the smallest uncovered entry (``shift_zeros``)
until the cover is complete. They stay public for that trace; ``solve``
does not use them.

One iterative augmenting-path search (``_augmenting_path``) serves both
0/1 matchings: the maximum zero matching behind ``min_line_cover`` and
``solve``'s lex-min pass over the tight edges.

``gate`` keeps the pairs of an assignment whose cost is within a gate
distance, and builds its result as ``solve`` does (``_assignment``).

``brute_force_solve`` enumerates every injective assignment and is kept as
an independent verification oracle.

All operations are pure; input matrices are never modified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalError, SizeError

# Zero test tolerance on reduced entries. Costs are pixel-scale distances,
# so anything at 1e-9 is float dust left over from the subtractions.
EPS = 1e-9

# Largest min(n_rows, n_cols) accepted by the exhaustive oracle.
BRUTE_FORCE_CAP = 8


@dataclass(frozen=True)
class CostMatrix:
    """Rectangular nonnegative cost matrix (rows: tracks, cols: detections).

    A malformed matrix raises a plain ValueError, not a UserError: this is a
    value type built from points the callers have already checked, so no
    input file or CLI argument can reach these checks.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("cost matrix must be two-dimensional")
        if v.size:
            # A NaN makes both the min and the max NaN, which fails both
            # comparisons.
            low, high = v.min(), v.max()
            if not (-math.inf < low and high < math.inf):
                raise ValueError("cost matrix entries must be finite")
            if low < -EPS:
                raise ValueError("cost matrix entries must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Assignment:
    """A partial injective row-to-column matching and its cost.

    ``pairs`` together with ``unmatched_rows``/``unmatched_cols`` partitions
    both index sets exactly. ``total_cost`` is the sum of the original
    (unreduced) matrix entries over the selected pairs.
    """

    pairs: frozenset[tuple[int, int]]
    unmatched_rows: frozenset[int]
    unmatched_cols: frozenset[int]
    total_cost: float


def reduce_rows(cost: CostMatrix) -> CostMatrix:
    """Subtract each row's minimum, leaving at least one zero per row."""
    v = cost.values
    if v.size == 0:
        return CostMatrix(v.copy())
    return CostMatrix(v - v.min(axis=1, keepdims=True))


def reduce_cols(cost: CostMatrix) -> CostMatrix:
    """Subtract each column's minimum, leaving at least one zero per column."""
    v = cost.values
    if v.size == 0:
        return CostMatrix(v.copy())
    return CostMatrix(v - v.min(axis=0, keepdims=True))


def _adjacency(mask: np.ndarray) -> list[list[int]]:
    """Column indices of each row's True entries, ascending."""
    rows, cols = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(1, mask.shape[0] + 1)).tolist()
    flat = cols.tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _augmenting_path(
    adjacency: list[list[int]],
    row_of_col: list[int],
    start: int,
    fixed_below: int = -1,
) -> list[tuple[int, int]] | None:
    """Match row ``start`` to a free column along an alternating path, in place.

    Kuhn's depth-first search, with an explicit stack so its depth is not
    bounded by the recursion limit. Columns are tried in adjacency order and
    the path ends at the first free column (``row_of_col`` -1) reached. Rows
    <= ``fixed_below`` keep their columns. On success ``row_of_col`` is
    flipped along the path and the (row, new column) moves are returned;
    otherwise nothing changes and None is returned.
    """
    visited: set[int] = set()
    stack = [(start, iter(adjacency[start]))]
    moves_to: list[int] = []  # the column each stacked row moves to
    while stack:
        for col in stack[-1][1]:
            if col in visited:
                continue
            visited.add(col)
            owner = row_of_col[col]
            if owner < 0:
                moves = [(row, to) for (row, _), to in zip(stack, moves_to + [col])]
                for row, to in moves:
                    row_of_col[to] = row
                return moves
            if owner > fixed_below:
                moves_to.append(col)
                stack.append((owner, iter(adjacency[owner])))
                break
        else:
            stack.pop()
            if moves_to:
                moves_to.pop()
    return None


def _max_zero_matching(zeros: np.ndarray) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching on zero entries (Kuhn augmenting paths).

    Returns (col_of_row, row_of_col) with -1 for unmatched vertices. Rows
    and columns are scanned in ascending order, so the result is
    deterministic.
    """
    n_rows, n_cols = zeros.shape
    adjacency = _adjacency(zeros)
    col_of_row = [-1] * n_rows
    row_of_col = [-1] * n_cols
    for row in range(n_rows):
        for r, c in _augmenting_path(adjacency, row_of_col, row) or ():
            col_of_row[r] = c
    return col_of_row, row_of_col


def min_line_cover(reduced: CostMatrix) -> tuple[set[int], set[int]]:
    """Minimum set of full rows/columns covering every zero entry.

    Realized as a maximum matching on the zero bipartite graph followed by
    the König alternating-reachability marking: starting from unmatched
    rows, alternately reach columns over zero entries and rows over matching
    edges. Covered rows are the unmarked ones, covered columns the marked
    ones; the cover size equals the matching size and is minimum.
    """
    zeros = np.abs(reduced.values) <= EPS
    n_rows = zeros.shape[0]
    adjacency = _adjacency(zeros)
    col_of_row, row_of_col = _max_zero_matching(zeros)

    marked_rows = {r for r in range(n_rows) if col_of_row[r] < 0}
    marked_cols: set[int] = set()
    frontier = list(marked_rows)
    while frontier:
        row = frontier.pop()
        for col in adjacency[row]:
            if col in marked_cols:
                continue
            marked_cols.add(col)
            owner = row_of_col[col]
            if owner >= 0 and owner not in marked_rows:
                marked_rows.add(owner)
                frontier.append(owner)

    covered_rows = set(range(n_rows)) - marked_rows
    return covered_rows, marked_cols


def shift_zeros(reduced: CostMatrix, cover: tuple[set[int], set[int]]) -> CostMatrix:
    """Shift the zero pattern by the smallest uncovered entry.

    The minimum over uncovered entries is subtracted from every uncovered
    entry and added to every doubly-covered one; singly-covered entries are
    unchanged. Each application strictly decreases the entry sum, which is
    what guarantees termination of the solve loop.
    """
    covered_rows, covered_cols = cover
    v = reduced.values.copy()
    n_rows, n_cols = v.shape
    row_covered = np.zeros(n_rows, dtype=bool)
    row_covered[list(covered_rows)] = True
    col_covered = np.zeros(n_cols, dtype=bool)
    col_covered[list(covered_cols)] = True

    uncovered = ~row_covered[:, None] & ~col_covered[None, :]
    doubly = row_covered[:, None] & col_covered[None, :]
    if not uncovered.any():
        raise InternalError("shift_zeros called with a complete cover")
    shift = v[uncovered].min()
    if shift <= EPS:
        raise InternalError("uncovered minimum is zero; cover was not minimal")
    v[uncovered] -= shift
    v[doubly] += shift
    return CostMatrix(v)


def _augment(
    c: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    col_of_row: np.ndarray,
    row_of_col: np.ndarray,
    start: int,
) -> None:
    """Match the free row ``start`` along a shortest augmenting path, in place.

    Dijkstra over the reduced costs ``c - u - v`` grows a tree of alternating
    paths from ``start`` until it settles a free column; the duals are then
    shifted so every edge of the tree stays tight and the matching is flipped
    along the path (Crouse 2016, Algorithm 1). Duals stay feasible and every
    matched pair keeps zero reduced cost.
    """
    dim = c.shape[0]
    dist = np.full(dim, np.inf)  # tentative path length to each column
    unsettled = np.ones(dim, dtype=bool)
    via = np.full(dim, -1)  # row preceding each column on its shortest path
    free_cols = np.flatnonzero(row_of_col < 0)
    rows = []
    row, length = start, 0.0
    while True:
        rows.append(row)
        reach = c[row] - v
        reach += length - u[row]
        better = reach < dist
        better &= unsettled
        np.copyto(dist, reach, where=better)
        via[better] = row
        open_dist = np.where(unsettled, dist, np.inf)
        col = int(open_dist.argmin())
        length = float(open_dist[col])
        if row_of_col[col] >= 0:
            # Prefer a free column among the nearest: the path ends there.
            ties = free_cols[open_dist[free_cols] == length]
            if ties.size:
                col = int(ties[0])
        unsettled[col] = False
        if row_of_col[col] < 0:
            break
        row = int(row_of_col[col])

    tree_rows = np.array(rows[1:], dtype=int)
    u[start] += length
    u[tree_rows] += length - dist[col_of_row[tree_rows]]
    settled = ~unsettled
    v[settled] -= length - dist[settled]
    while True:
        row = int(via[col])
        row_of_col[col] = row
        col_of_row[row], col = col, int(col_of_row[row])
        if row == start:
            break


def _lex_min_tight_matching(
    tight: np.ndarray,
    col_of_row: np.ndarray,
    row_of_col: np.ndarray,
    n_rows: int,
    n_cols: int,
) -> dict[int, int]:
    """Lexicographically smallest perfect matching on the tight edges.

    Starts from the perfect matching (col_of_row, row_of_col) on ``tight``.
    Real rows are fixed in ascending order; each moves to the smallest real
    tight column below its current one that an alternating path through
    later rows can free, handing its current column down the path. Columns
    >= n_cols are padding: any real column is preferred to them, and since
    they are identical, which one a row holds does not matter.

    Returns the {real row: real column} pairs of the selected matching.
    """
    adjacency = _adjacency(tight)
    col_of, row_of = col_of_row.tolist(), row_of_col.tolist()
    for row in range(n_rows):
        current = col_of[row]
        for col in adjacency[row]:
            if col >= min(current, n_cols):
                break
            owner = row_of[col]
            if owner < row:
                continue
            # Give ``col`` to ``row`` and free ``current``; ``owner`` must
            # then reach ``current`` through rows that are not yet fixed.
            row_of[col], row_of[current] = row, -1
            moves = _augmenting_path(adjacency, row_of, owner, fixed_below=row)
            if moves is None:
                row_of[col], row_of[current] = owner, row
                continue
            for r, c in [(row, col)] + moves:
                col_of[r] = c
            break
    return {r: col_of[r] for r in range(n_rows) if col_of[r] < n_cols}


def solve(cost: CostMatrix) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Rectangular matrices are padded to square with (max entry + 1); pairs
    touching padding are dropped afterwards, which preserves the optimum
    over injective maps. Column reduction seeds the duals and a partial
    matching, one shortest augmenting path per remaining free row completes
    it, and the lexicographically smallest perfect matching on the final
    tight edges is returned. ``total_cost`` is summed from the input matrix.
    Edges within ``EPS`` of the duals are tight, so totals within ``EPS``
    per pair of the optimum count as tied and go by the lexicographic rule;
    ``brute_force_solve`` compares exact sums (on ``[[1e-9], [0]]``,
    ``{(0, 0)}`` here and ``{(1, 0)}`` there).

    When each row of the shorter side has its own nearest column, ahead of
    its runner-up by more than ``2 * dim * EPS`` (dim the longer side), that
    nearest map is the answer and the dual pass is skipped; the result is the one the dual
    pass would give (module docstring).

    Raises DimensionError when either dimension is zero.
    """
    n_rows, n_cols = cost.n_rows, cost.n_cols
    if n_rows == 0 or n_cols == 0:
        raise DimensionError("cost matrix must have at least one row and one column")

    # Nearest-column shortcut; see the module docstring for why it is exact.
    dim = max(n_rows, n_cols)
    short = cost.values if n_rows <= n_cols else cost.values.T
    nearest = short.argmin(axis=1).tolist()
    if len(set(nearest)) == len(nearest) and (
        short.shape[1] == 1
        or (np.diff(np.partition(short, 1, axis=1)[:, :2]) > 2 * dim * EPS).all()
    ):
        if n_rows <= n_cols:
            return _assignment(cost, dict(enumerate(nearest)))
        return _assignment(cost, dict(sorted((r, c) for c, r in enumerate(nearest))))

    if n_rows == n_cols:
        padded = cost.values
    else:
        pad_cost = float(cost.values.max()) + 1.0
        padded = np.full((dim, dim), pad_cost)
        padded[:n_rows, :n_cols] = cost.values

    # Column reduction (Jonker & Volgenant): ``v`` is the column minima and
    # ``u`` is zero, so every entry's reduced cost ``c - u - v`` is
    # nonnegative. Columns are taken in ascending order and each goes to its
    # first minimum row while that row is still free; every such pair has
    # zero reduced cost.
    u = np.zeros(dim)
    v = padded.min(axis=0)
    rows, cols = np.unique(padded.argmin(axis=0), return_index=True)
    col_of_row = np.full(dim, -1)
    row_of_col = np.full(dim, -1)
    col_of_row[rows] = cols
    row_of_col[cols] = rows
    for row in np.flatnonzero(col_of_row < 0).tolist():
        _augment(padded, u, v, col_of_row, row_of_col, row)

    tight = padded - u[:, None] - v[None, :] <= EPS
    return _assignment(
        cost, _lex_min_tight_matching(tight, col_of_row, row_of_col, n_rows, n_cols)
    )


def _assignment(cost: CostMatrix, chosen: dict[int, int]) -> Assignment:
    """The Assignment of the {row: column} pairs ``chosen``, rows ascending.

    ``total_cost`` is summed over the pairs in ``chosen``'s order, so both
    paths of ``solve``, and ``gate``, add the same entries in ascending row
    order.
    """
    return Assignment(
        pairs=frozenset(chosen.items()),
        unmatched_rows=frozenset(range(cost.n_rows)).difference(chosen),
        unmatched_cols=frozenset(range(cost.n_cols)).difference(chosen.values()),
        total_cost=float(sum([cost.values.item(r, c) for r, c in chosen.items()])),
    )


def gate(assignment: Assignment, cost: CostMatrix, gate_px: float) -> Assignment:
    """Drop every matched pair whose cost exceeds the gate distance.

    Removed pairs move their row and column back to the unmatched sets, and
    the total cost is summed over the survivors in ascending row order, as
    ``solve``'s is.
    """
    return _assignment(
        cost, {r: c for r, c in sorted(assignment.pairs) if cost.values[r, c] <= gate_px}
    )


def brute_force_solve(cost: CostMatrix) -> Assignment:
    """Exhaustive minimum over all injective assignments (test oracle).

    Enumerates every injective row-to-column map (or column-to-row when
    there are more rows than columns) and keeps the cheapest, breaking ties
    by the same lexicographic rule as ``solve``. Each candidate's costs are
    summed in ascending order, so candidates with equal multisets of costs
    tie exactly, whatever order their pairs come in; sums are compared with
    no ``EPS`` slack, unlike ``solve``'s. Refuses matrices whose smaller
    dimension exceeds BRUTE_FORCE_CAP.
    """
    n_rows, n_cols = cost.n_rows, cost.n_cols
    if n_rows == 0 or n_cols == 0:
        raise DimensionError("cost matrix must have at least one row and one column")
    if min(n_rows, n_cols) > BRUTE_FORCE_CAP:
        raise SizeError(f"brute force capped at min dimension {BRUTE_FORCE_CAP}")

    v = cost.values
    if n_rows <= n_cols:
        perms = np.array(list(itertools.permutations(range(n_cols), n_rows)))
        totals = np.sort(v[np.arange(n_rows)[None, :], perms], axis=1).sum(axis=1)
        # permutations() is lexicographic and rows are taken in order, so the
        # first minimum is already the tie-broken winner.
        best = perms[int(np.argmin(totals))]
        pairs = frozenset((r, int(c)) for r, c in enumerate(best))
        total = float(totals.min())
    else:
        candidates = [
            tuple(zip(rows, cols))
            for rows in itertools.combinations(range(n_rows), n_cols)
            for cols in itertools.permutations(range(n_cols))
        ]
        totals = np.array([sum(sorted(v[r, c] for r, c in cand)) for cand in candidates])
        minimum = totals.min()
        # Enumeration order is not pair-lexicographic here, so compare the
        # tied candidates explicitly.
        best_pairs = min(candidates[i] for i in np.flatnonzero(totals == minimum))
        pairs = frozenset(best_pairs)
        total = float(minimum)

    matched_rows = {r for r, _ in pairs}
    matched_cols = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_rows=frozenset(range(n_rows)) - matched_rows,
        unmatched_cols=frozenset(range(n_cols)) - matched_cols,
        total_cost=total,
    )
