"""Elastic-distance baseline: dynamic time warping over selected feature
columns, plus sequential floating feature selection.

The alignment uses steps {(1,0), (0,1), (1,1)} with squared-Euclidean
local cost and no step weighting. The reported distance is the minimum
total cost divided by the warping-path length; among equally cheap paths
the shortest (fewest cells) defines the length, which makes the value
unique without a tie-break policy. Verification scores are negated
distances so that higher means more similar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import DEVELOPMENT, build_pairs
from .features import N_FEATURES
from .metrics import aggregate_4vs1, compute_eer
from .parallel import fork_map

ALL_COLUMNS = tuple(range(1, N_FEATURES + 1))


@dataclass(frozen=True)
class DtwConfig:
    """Column selection (1-based) and an optional alignment band."""

    selected_columns: tuple = ALL_COLUMNS
    band: int = 0  # 0 disables the |i-j| band constraint

    def __post_init__(self) -> None:
        cols = self.selected_columns
        if not cols:
            raise ValueError("selected_columns must be non-empty")
        for name, values in (("selected_columns", cols), ("band", (self.band,))):
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
                raise ValueError(f"{name} takes integers only, got {getattr(self, name)!r}")
        if len(set(cols)) != len(cols):
            raise ValueError("selected_columns contains duplicates")
        if min(cols) < 1 or max(cols) > N_FEATURES:
            raise ValueError(f"columns must lie in 1..{N_FEATURES}, got {cols}")
        if self.band < 0:
            raise ValueError("band must be >= 0")


def _selected_values(seq, cols: tuple) -> np.ndarray:
    values = np.asarray(getattr(seq, "values", seq), dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("a sequence must be a T x D matrix")
    if values.shape[0] == 0:
        raise ValueError("empty sequence")
    idx = np.array(cols, dtype=np.intp) - 1
    if values.shape[1] <= idx.max():
        raise ValueError(
            f"sequence has {values.shape[1]} columns, selection needs {idx.max() + 1}"
        )
    return values[:, idx]


# Upper bound on the padded cells (pairs x rows x columns) swept together;
# at 16 bytes a cell, one chunk's cost tensor stays within 16 MB.
CHUNK_CELLS = 1 << 20


def dtw_distances(pairs: list, band: int = 0) -> np.ndarray:
    """Normalized alignment distances for column-selected ``(a, b)`` pairs.

    Pairs are sorted by size and swept in chunks of at most
    ``CHUNK_CELLS`` padded cells; within a chunk the anti-diagonals of
    every pair advance together. Each cell sees the same float operations
    as a sweep of its pair alone, so the distances do not depend on how
    pairs are batched, nor on which process sweeps a chunk: ``fork_map``
    spreads the chunks over the caller and one forked process per extra
    usable CPU. Returns the distances in pair order.
    """
    order = sorted(range(len(pairs)), key=lambda p: len(pairs[p][0]) + len(pairs[p][1]))
    chunks: list[list[int]] = []
    rows = cols = 0
    for p in order:
        n, m = len(pairs[p][0]), len(pairs[p][1])
        if not chunks or (len(chunks[-1]) + 1) * max(rows, n) * max(cols, m) > CHUNK_CELLS:
            chunks.append([])
            rows = cols = 0
        chunks[-1].append(p)
        rows, cols = max(rows, n), max(cols, m)
    swept = fork_map(lambda k: _sweep([pairs[q] for q in chunks[k]], band), len(chunks))
    out = np.empty(len(pairs))
    for chunk, distances in zip(chunks, swept):
        out[chunk] = distances
    return out


def _sweep(pairs: list, band: int) -> np.ndarray:
    """One anti-diagonal sweep over a chunk of pairs; see ``dtw_distances``.

    A cell holds the complex number total + 1j * length. numpy orders
    complex numbers lexicographically, so the minimum of the up, left and
    diagonal predecessors is the cheapest one and, among equally cheap
    ones, the shortest: the tie-break. Adding the cell's cost + 1j then
    extends that path by one cell.
    """
    sizes = np.array([(len(a), len(b)) for a, b in pairs])
    n_pairs = len(pairs)
    N, M = sizes.max(axis=0)
    # cost[i, j, p] + 1j; cells outside a pair's own n x m rectangle are inf
    cost = np.full((N, M, n_pairs), complex(np.inf, 1.0))
    for p, (a, b) in enumerate(pairs):
        c = cdist(a, b, "sqeuclidean")
        if band > 0:
            # slope-corrected band: always wide enough to reach the far corner;
            # a width of max(n, m) masks no cell, so a wider band is no band
            n, m = c.shape
            width = min(max(band, abs(n - m)), max(n, m))
            c[~np.tri(n, m, width, dtype=bool) | np.tri(n, m, -width - 1, dtype=bool)] = np.inf
        cost.real[: c.shape[0], : c.shape[1], p] = c
    # diagonal[k, i] = cost[i, k - i]; every offset stays inside the buffer,
    # and the sweep reads only rows with 0 <= k - i < M
    diagonal = np.lib.stride_tricks.as_strided(
        cost, shape=(N + M - 1, N, n_pairs),
        strides=(cost.strides[1], cost.strides[0] - cost.strides[1], cost.strides[2]),
        writeable=False)

    # Diagonal k is stored by row i in slot i + 1 of an (N + 1) x pairs
    # buffer whose slot 0 is an inf sentinel, so the up, left and diagonal
    # predecessors of row i are slots i and i + 1 of diagonal k - 1 and
    # slot i of diagonal k - 2. Only the last two diagonals are kept; slots
    # a diagonal does not reach stay inf.
    state = [np.full((N + 1, n_pairs), complex(np.inf, 1.0)) for _ in range(2)]
    state[0][1] = cost[0, 0]
    # each pair's result sits on its own last diagonal n + m - 2, row n - 1
    last = sizes.sum(axis=1) - 2
    ends = {k: np.flatnonzero(last == k) for k in np.unique(last)}
    out = np.empty(n_pairs)
    for k in range(N + M - 1):
        lo, hi = max(0, k - M + 1), min(N - 1, k)
        prev, cur = state[(k - 1) % 2], state[k % 2]  # cur holds diagonal k - 2
        if k:
            best = np.minimum(np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2]),
                              cur[lo : hi + 1])
            np.add(diagonal[k, lo : hi + 1], best, out=cur[lo + 1 : hi + 2])
        done = ends.get(k)
        if done is not None:
            cell = cur[sizes[done, 0], done]
            out[done] = cell.real / cell.imag
    return out


def dtw_distance(a, b, cfg: DtwConfig = DtwConfig()) -> float:
    """Normalized alignment distance between two feature sequences."""
    cols = cfg.selected_columns
    pair = (_selected_values(a, cols), _selected_values(b, cols))
    return float(dtw_distances([pair], cfg.band)[0])


def score_pairs_dtw(pairs: list, features: dict,
                    cfg: DtwConfig = DtwConfig()) -> np.ndarray:
    """DTW scores for a pair list, in pair order."""
    keys = {k for p in pairs for k in (p.enroll_key, p.probe_key)}
    values = {k: _selected_values(features[k], cfg.selected_columns) for k in keys}
    return -dtw_distances(
        [(values[p.enroll_key], values[p.probe_key]) for p in pairs], cfg.band)


@dataclass
class SffsStep:
    action: str  # "add" | "remove"
    column: int
    eer: float
    subset: tuple


def _complete_probe_subsample(pairs: list, max_pairs: int | None) -> list:
    """Thin a pair list without breaking (user, probe) aggregation groups."""
    if max_pairs is None or len(pairs) <= max_pairs:
        return pairs
    groups: dict[tuple, list] = {}
    for p in pairs:
        groups.setdefault((p.user_id, p.label, p.probe_index), []).append(p)
    keys = sorted(groups)
    per_group = max(1, len(pairs) // len(keys))
    n_groups = max(1, max_pairs // per_group)
    keep = np.unique(np.round(np.linspace(0, len(keys) - 1, n_groups)).astype(int))
    out: list = []
    for k in keep:
        out.extend(groups[keys[k]])
    return out


def sffs_select(
    dev_split,
    features: dict,
    k_max: int = 9,
    max_pairs: int | None = 500,
    band: int = 0,
) -> tuple[tuple, list[SffsStep]]:
    """Sequential floating forward selection of DTW feature columns.

    Each step scores its candidate moves by the development 4vs1 EER of
    the subset they lead to and takes the lowest, ties going to the
    lowest column, so the search is deterministic. An add is taken, up
    to ``k_max`` columns, unless from the second column on its EER is no
    lower than the best at the size below and at its own size: then the
    search stops. After each add, while more than two columns remain,
    the best drop is taken if it beats the best EER at the smaller size.
    Returns the lowest-EER subset among the best at each size, ties
    going to the lexicographically smallest (sorted), and the step log.
    Each subset is scored once, however many moves lead to it.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    pairs = build_pairs(dev_split, DEVELOPMENT)
    if {p.label for p in pairs} != {0, 1}:
        raise ValueError("development set must contain both classes")
    pairs = _complete_probe_subsample(pairs, max_pairs)
    if {p.label for p in pairs} != {0, 1}:
        raise ValueError(f"max_pairs={max_pairs} keeps development pairs of one "
                         "class only; the search needs both")

    eers: dict[tuple, float] = {}  # a floating drop often returns to a scored subset

    def eer_of(cols: tuple) -> float:
        cols = tuple(sorted(cols))
        if cols not in eers:
            scores = score_pairs_dtw(pairs, features, DtwConfig(cols, band))
            eers[cols] = compute_eer(aggregate_4vs1(pairs, scores, system="baseline"))[0]
        return eers[cols]

    selected: list[int] = []
    best_at_size: dict[int, tuple[float, tuple]] = {}
    steps: list[SffsStep] = []

    def best_move(moves) -> tuple[float, int]:  # moves: (column, subset)
        return min((eer_of(subset), col) for col, subset in moves)

    def best_eer(size: int) -> float:
        return best_at_size.get(size, (np.inf,))[0]

    def record(action: str, col: int, eer: float) -> None:
        subset = tuple(sorted(selected))
        steps.append(SffsStep(action, col, eer, subset))
        if eer < best_eer(len(subset)):
            best_at_size[len(subset)] = (eer, subset)

    while len(selected) < min(k_max, N_FEATURES):
        eer, col = best_move((c, (*selected, c)) for c in ALL_COLUMNS if c not in selected)
        size = len(selected) + 1
        if selected and eer >= best_eer(size - 1) and eer >= best_eer(size):
            break  # growing stopped helping
        selected.append(col)
        record("add", col, eer)
        while len(selected) > 2:
            eer, col = best_move((c, tuple(s for s in selected if s != c)) for c in selected)
            if eer >= best_eer(len(selected) - 1):
                break
            selected.remove(col)
            record("remove", col, eer)

    _, best_subset = min(best_at_size.values())
    return best_subset, steps


def write_sffs_report(path, steps: list[SffsStep], final: tuple) -> None:
    """Text log of the selection: one line per step, final subset last."""
    with open(path, "w") as fh:
        fh.write("step\taction\tcolumn\tdev_eer_4vs1\tsubset\n")
        for k, s in enumerate(steps, 1):
            subset = ",".join(str(c) for c in s.subset)
            fh.write(f"{k}\t{s.action}\t{s.column}\t{s.eer:.4f}\t{subset}\n")
        fh.write("selected\t" + ",".join(str(c) for c in final) + "\n")
