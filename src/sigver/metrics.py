"""Score evaluation: 1vs1 / 4vs1 score sets, EER, and DET curves.

Scores follow the higher-is-more-genuine convention (distance-based
scorers negate). FAR(t) counts impostor scores >= t; FRR(t) counts
genuine scores < t. The EER is located by sweeping every distinct score
as a threshold and linearly interpolating between the two adjacent
operating points when FAR = FRR falls between them; the bracketing is
done in exact integer arithmetic so degenerate inputs (identical
distributions, perfect separation) give exactly 50 and 0.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Protocol(Enum):
    ONE_VS_ONE = "1vs1"
    FOUR_VS_ONE = "4vs1"


# EERs (%) reported for the reimplemented systems on their original
# 400-user corpus, which is not redistributable. Context for reports
# only, never asserted by tests.
REFERENCE_EER = {
    ("proposed", Protocol.ONE_VS_ONE): 6.44,
    ("proposed", Protocol.FOUR_VS_ONE): 5.58,
    ("baseline", Protocol.ONE_VS_ONE): 10.17,
    ("baseline", Protocol.FOUR_VS_ONE): 7.75,
}


@dataclass
class ScoreSet:
    genuine: np.ndarray
    impostor: np.ndarray
    protocol: Protocol = Protocol.ONE_VS_ONE
    system: str = ""

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64)
        self.impostor = np.asarray(self.impostor, dtype=np.float64)

    def validate(self) -> None:
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise ValueError(
                f"score set {self.system!r} needs both genuine and impostor scores"
            )
        if not (np.all(np.isfinite(self.genuine)) and np.all(np.isfinite(self.impostor))):
            raise ValueError(f"score set {self.system!r} has non-finite scores")


def _operating_counts(scores: ScoreSet):
    """False-accept and false-reject counts at every distinct score.

    Returns (thresholds, accepts A_j = #impostor >= t_j, rejects
    R_j = #genuine < t_j) with one trailing sentinel threshold above the
    maximum, where A = 0 and R = n_genuine.
    """
    gen = np.sort(scores.genuine)
    imp = np.sort(scores.impostor)
    thresholds = np.unique(np.concatenate([gen, imp]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    accepts = imp.size - np.searchsorted(imp, thresholds, side="left")
    rejects = np.searchsorted(gen, thresholds, side="left")
    return thresholds, accepts.astype(np.int64), rejects.astype(np.int64)


def compute_eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate in percent, and the threshold where it occurs."""
    scores.validate()
    thresholds, accepts, rejects = _operating_counts(scores)
    n_gen = scores.genuine.size
    n_imp = scores.impostor.size
    # diff_j > 0 while FAR > FRR; it is non-increasing along thresholds
    diff = accepts * n_gen - rejects * n_imp
    j = int(np.argmax(diff <= 0))
    if diff[j] == 0:
        return 100.0 * accepts[j] / n_imp, float(thresholds[j])
    # crossing lies strictly between thresholds j-1 and j: interpolate
    a0, a1 = int(accepts[j - 1]), int(accepts[j])
    d0, d1 = int(diff[j - 1]), int(diff[j])
    eer = 100.0 * (a0 * (d0 - d1) + d0 * (a1 - a0)) / (n_imp * (d0 - d1))
    frac = d0 / (d0 - d1)
    threshold = float(thresholds[j - 1] + frac * (thresholds[j] - thresholds[j - 1]))
    return eer, threshold


def det_curve(scores: ScoreSet, n_points: int | None = None) -> np.ndarray:
    """(FAR, FRR) operating points in probability units, one per threshold.

    Points run from (1, 0) to (0, 1) as the threshold sweeps upward.
    ``n_points`` thins the curve evenly while keeping both endpoints.
    """
    scores.validate()
    _, accepts, rejects = _operating_counts(scores)
    far = accepts / scores.impostor.size
    frr = rejects / scores.genuine.size
    points = np.column_stack([far, frr])
    if n_points is not None and 2 <= n_points < points.shape[0]:
        keep = np.unique(
            np.round(np.linspace(0, points.shape[0] - 1, n_points)).astype(int)
        )
        points = points[keep]
    return points


def make_score_set(
    pairs: list,
    scores: np.ndarray,
    system: str = "",
) -> ScoreSet:
    """The 1vs1 score set: aligned pair scores split by label into
    genuine and impostor lists. aggregate_4vs1 makes the 4vs1 set."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(pairs) != scores.size:
        raise ValueError("pairs and scores must align")
    labels = np.array([p.label for p in pairs])
    return ScoreSet(
        genuine=scores[labels == 1],
        impostor=scores[labels == 0],
        system=system,
    )


def aggregate_4vs1(
    pairs: list,
    scores: np.ndarray,
    system: str = "",
) -> ScoreSet:
    """Average each probe's scores over the user's enrollment signatures.

    Every (user, label, probe) group must contain one score per
    enrollment index of that user; a missing or duplicated score raises
    an error naming the gap. With one enrollment signature per user this
    is the identity.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(pairs) != scores.size:
        raise ValueError("pairs and scores must align")
    enroll_sets: dict[str, set] = {}
    groups: dict[tuple, dict] = {}
    for pair, score in zip(pairs, scores):
        enroll_sets.setdefault(pair.user_id, set()).add(pair.enroll_index)
        group = groups.setdefault((pair.user_id, pair.label, pair.probe_index), {})
        if pair.enroll_index in group:
            raise ValueError(
                f"user {pair.user_id} label {pair.label} probe {pair.probe_index}: "
                f"duplicate score for enrollment {pair.enroll_index}"
            )
        group[pair.enroll_index] = score

    genuine, impostor = [], []
    for (user, label, probe) in sorted(groups, key=lambda k: (k[0], -k[1], k[2])):
        group = groups[(user, label, probe)]
        want = len(enroll_sets[user])
        if len(group) != want:
            raise ValueError(
                f"user {user} label {label} probe {probe}: "
                f"{len(group)} scores, expected {want}"
            )
        mean = float(np.mean(list(group.values())))
        (genuine if label == 1 else impostor).append(mean)
    return ScoreSet(
        genuine=np.array(genuine),
        impostor=np.array(impostor),
        protocol=Protocol.FOUR_VS_ONE,
        system=system,
    )


def write_results_csv(path, rows: list[dict]) -> None:
    """Result table: one row per (system, protocol) evaluation."""
    columns = ["system", "protocol", "eer_percent", "threshold",
               "n_genuine", "n_impostor", "reference_eer_percent"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})


def evaluation_row(scores: ScoreSet) -> dict:
    """Results-CSV row for one score set, with reference context if known."""
    eer, threshold = compute_eer(scores)
    ref = REFERENCE_EER.get((scores.system, scores.protocol), "")
    return {
        "system": scores.system,
        "protocol": scores.protocol.value,
        "eer_percent": f"{eer:.4f}",
        "threshold": f"{threshold:.6g}",
        "n_genuine": scores.genuine.size,
        "n_impostor": scores.impostor.size,
        "reference_eer_percent": ref,
    }


def write_det_csv(path, curves: list[tuple[str, Protocol, np.ndarray]]) -> None:
    """DET operating points: system, protocol, far, frr per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "protocol", "far", "frr"])
        for system, protocol, points in curves:
            for far, frr in points:
                writer.writerow([system, protocol.value, f"{far:.9f}", f"{frr:.9f}"])
