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

from .features import N_FEATURES
from .metrics import aggregate_4vs1, compute_eer

ALL_COLUMNS = tuple(range(1, N_FEATURES + 1))


@dataclass(frozen=True)
class DtwConfig:
    """Column selection (1-based) and an optional alignment band."""

    selected_columns: tuple = ALL_COLUMNS
    band: int = 0  # 0 disables the |i-j| band constraint

    def validate(self) -> None:
        cols = self.selected_columns
        if not cols:
            raise ValueError("selected_columns must be non-empty")
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


def dtw_distance(a, b, cfg: DtwConfig = DtwConfig()) -> float:
    """Normalized alignment distance between two feature sequences."""
    cfg.validate()
    va = _selected_values(a, cfg.selected_columns)
    vb = _selected_values(b, cfg.selected_columns)
    cost = cdist(va, vb, "sqeuclidean")
    n, m = cost.shape

    if cfg.band > 0:
        # slope-corrected band: always wide enough to reach the far corner
        width = max(cfg.band, abs(n - m))
        i_idx, j_idx = np.indices((n, m))
        cost = np.where(np.abs(i_idx - j_idx) <= width, cost, np.inf)

    total = np.full((n, m), np.inf)
    length = np.ones((n, m), dtype=np.int64)
    total[0, 0] = cost[0, 0]
    # anti-diagonal sweep: cells on diagonal k depend only on k-1 and k-2
    for k in range(1, n + m - 1):
        i = np.arange(max(0, k - m + 1), min(n, k + 1))
        j = k - i
        up_ok, left_ok = i > 0, j > 0
        iu, jl = np.maximum(i - 1, 0), np.maximum(j - 1, 0)
        c_up = np.where(up_ok, total[iu, j], np.inf)
        c_left = np.where(left_ok, total[i, jl], np.inf)
        c_diag = np.where(up_ok & left_ok, total[iu, jl], np.inf)
        best = np.minimum(np.minimum(c_up, c_left), c_diag)
        l_up = np.where(c_up == best, length[iu, j], np.iinfo(np.int64).max)
        l_left = np.where(c_left == best, length[i, jl], np.iinfo(np.int64).max)
        l_diag = np.where(c_diag == best, length[iu, jl], np.iinfo(np.int64).max)
        total[i, j] = cost[i, j] + best
        length[i, j] = np.minimum(np.minimum(l_up, l_left), l_diag) + 1

    return float(total[n - 1, m - 1] / length[n - 1, m - 1])


def dtw_score(a, b, cfg: DtwConfig = DtwConfig()) -> float:
    """Similarity score: negated normalized distance (higher = closer)."""
    return -dtw_distance(a, b, cfg)


def score_pairs_dtw(pairs: list, features: dict,
                    cfg: DtwConfig = DtwConfig()) -> np.ndarray:
    """DTW scores for a pair list, in pair order."""
    return np.array([
        dtw_score(features[p.enroll_key], features[p.probe_key], cfg)
        for p in pairs
    ])


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

    Greedily adds the column that minimizes development 4vs1 EER, then
    conditionally removes columns while that improves on the best subset
    previously seen at the smaller size. Ties break toward the lowest
    column index, so the search is deterministic. Returns the best
    subset found (sorted) and the step log.
    """
    from .dataset import DEVELOPMENT, build_pairs

    pairs = build_pairs(dev_split, DEVELOPMENT)
    if not any(p.label == 1 for p in pairs) or not any(p.label == 0 for p in pairs):
        raise ValueError("development set must contain both classes")
    pairs = _complete_probe_subsample(pairs, max_pairs)

    def eer_of(cols: tuple) -> float:
        cfg = DtwConfig(selected_columns=tuple(sorted(cols)), band=band)
        scores = score_pairs_dtw(pairs, features, cfg)
        agg = aggregate_4vs1(pairs, scores, system="baseline")
        return compute_eer(agg)[0]

    selected: list[int] = []
    best_at_size: dict[int, tuple[float, tuple]] = {}
    steps: list[SffsStep] = []

    while len(selected) < k_max:
        candidates = [c for c in ALL_COLUMNS if c not in selected]
        if not candidates:
            break
        add_eers = [(eer_of(tuple(selected) + (c,)), c) for c in candidates]
        add_eer, add_col = min(add_eers)
        size = len(selected) + 1
        prev_best = best_at_size.get(size, (np.inf,))[0]
        if size > 1 and add_eer >= best_at_size.get(size - 1, (np.inf,))[0] \
                and add_eer >= prev_best:
            break  # growing stopped helping
        selected.append(add_col)
        if add_eer < prev_best:
            best_at_size[size] = (add_eer, tuple(sorted(selected)))
        steps.append(SffsStep("add", add_col, add_eer, tuple(sorted(selected))))

        # floating phase: drop columns while that beats the smaller sizes
        while len(selected) > 2:
            drop_eers = [
                (eer_of(tuple(c for c in selected if c != col)), col)
                for col in selected
            ]
            drop_eer, drop_col = min(drop_eers)
            smaller = len(selected) - 1
            if drop_eer < best_at_size.get(smaller, (np.inf,))[0]:
                selected.remove(drop_col)
                best_at_size[smaller] = (drop_eer, tuple(sorted(selected)))
                steps.append(
                    SffsStep("remove", drop_col, drop_eer, tuple(sorted(selected)))
                )
            else:
                break

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
