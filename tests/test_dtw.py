import multiprocessing
import threading

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from sigver import dtw, parallel
from sigver.dataset import Pair, ProtocolConfig, build_pairs, build_split, DEVELOPMENT
from sigver.dtw import (
    ALL_COLUMNS,
    DtwConfig,
    SffsStep,
    _complete_probe_subsample,
    dtw_distance,
    dtw_distances,
    score_pairs_dtw,
    sffs_select,
    write_sffs_report,
)
from sigver.features import N_FEATURES
from sigver.metrics import aggregate_4vs1, compute_eer
from sigver.svc import SignatureKind, SignatureRecord
from test_siamese import in_process, pooled

THREE = DtwConfig(selected_columns=(1, 2, 3))


def brute_force_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive enumeration of monotone alignment paths.

    Among the minimum-total-cost paths the shortest one defines the
    normalization, matching the tie-break the DP is expected to make.
    """
    n, m = len(a), len(b)
    cost = [[float(np.sum((a[i] - b[j]) ** 2)) for j in range(m)] for i in range(n)]
    best = [np.inf, np.inf]  # (total cost, path length)

    def walk(i, j, total, steps):
        total += cost[i][j]
        steps += 1
        if i == n - 1 and j == m - 1:
            if (total, steps) < (best[0], best[1]):
                best[0], best[1] = total, steps
            return
        if i + 1 < n:
            walk(i + 1, j, total, steps)
        if j + 1 < m:
            walk(i, j + 1, total, steps)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, total, steps)

    walk(0, 0, 0.0, 0)
    return best[0] / best[1]


def test_matches_brute_force_for_short_sequences(rng):
    for ta in range(1, 6):
        for tb in range(1, 6):
            a = rng.normal(0, 1, (ta, 3))
            b = rng.normal(0, 1, (tb, 3))
            expected = brute_force_dtw(a, b)
            assert dtw_distance(a, b, THREE) == pytest.approx(expected, abs=1e-9)


def test_two_point_alignment_by_hand():
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([[0.0], [2.0]])
    cfg = DtwConfig(selected_columns=(1,))
    # the cheapest path skips the middle row diagonally: cost 1 over 3 cells
    assert dtw_distance(a, b, cfg) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dtw_distance(a, b, cfg) == pytest.approx(brute_force_dtw(a, b), abs=1e-12)


def test_identical_sequences_have_zero_distance(rng):
    a = rng.normal(0, 1, (40, 3))
    assert dtw_distance(a, a, THREE) == 0.0


def test_symmetric_and_nonnegative(rng):
    for _ in range(10):
        a = rng.normal(0, 1, (int(rng.integers(2, 30)), 3))
        b = rng.normal(0, 1, (int(rng.integers(2, 30)), 3))
        d = dtw_distance(a, b, THREE)
        assert d >= 0.0
        assert d == dtw_distance(b, a, THREE)


def test_frame_duplication_keeps_normalized_distance(rng):
    for _ in range(5):
        a = rng.normal(0, 1, (int(rng.integers(3, 15)), 3))
        b = rng.normal(0, 1, (int(rng.integers(3, 15)), 3))
        plain = dtw_distance(a, b, THREE)
        doubled = dtw_distance(np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0), THREE)
        assert doubled == pytest.approx(plain, abs=1e-9)


def test_band_wide_enough_matches_unbanded(rng):
    a = rng.normal(0, 1, (20, 3))
    b = rng.normal(0, 1, (14, 3))
    unbanded = dtw_distance(a, b, THREE)
    wide = DtwConfig(selected_columns=(1, 2, 3), band=50)
    assert dtw_distance(a, b, wide) == unbanded
    # a narrow band stays feasible even with very different lengths
    narrow = DtwConfig(selected_columns=(1, 2, 3), band=1)
    d = dtw_distance(rng.normal(0, 1, (12, 3)), rng.normal(0, 1, (3, 3)), narrow)
    assert np.isfinite(d) and d >= 0.0


def test_input_validation(rng):
    with pytest.raises(ValueError, match="empty sequence"):
        dtw_distance(np.zeros((0, 3)), np.zeros((4, 3)), THREE)
    with pytest.raises(ValueError, match="T x D"):
        dtw_distance(np.zeros(5), np.zeros((4, 3)), THREE)
    with pytest.raises(ValueError, match="selection needs"):
        dtw_distance(np.zeros((4, 2)), np.zeros((4, 2)), THREE)
    with pytest.raises(ValueError, match="non-empty"):
        DtwConfig(selected_columns=()).validate()
    with pytest.raises(ValueError, match="duplicates"):
        DtwConfig(selected_columns=(1, 1)).validate()
    with pytest.raises(ValueError, match="1..23"):
        DtwConfig(selected_columns=(0, 5)).validate()
    with pytest.raises(ValueError, match="band"):
        DtwConfig(selected_columns=(1,), band=-1).validate()


# --- the batched kernel ---

# lengths 1 and 7, very unequal pairs (1 x 300, 300 x 1) and ordinary ones
MIXED_SIZES = [(1, 1), (1, 7), (7, 1), (7, 7), (1, 300), (300, 1),
               (3, 50), (50, 3), (20, 25), (40, 12), (33, 33), (9, 60)]


def scalar_dtw(a: np.ndarray, b: np.ndarray, band: int = 0) -> float:
    """Cell-by-cell dynamic programme in plain Python floats.

    The same local costs, the same min-then-add per cell and the same
    shortest-path tie-break as the kernel, so the results must agree
    bit for bit.
    """
    cost = cdist(a, b, "sqeuclidean")
    n, m = cost.shape
    width = max(band, abs(n - m))
    inf = float("inf")
    total = [[inf] * m for _ in range(n)]
    length = [[1] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            c = inf if band > 0 and abs(i - j) > width else float(cost[i, j])
            if i == j == 0:
                total[0][0] = c
                continue
            up = total[i - 1][j] if i > 0 else inf
            left = total[i][j - 1] if j > 0 else inf
            diag = total[i - 1][j - 1] if i > 0 and j > 0 else inf
            best = min(min(up, left), diag)
            total[i][j] = c + best
            length[i][j] = 1 + min(
                length[i - 1][j] if i > 0 and up == best else np.inf,
                length[i][j - 1] if j > 0 and left == best else np.inf,
                length[i - 1][j - 1] if i > 0 and j > 0 and diag == best else np.inf,
            )
    return total[n - 1][m - 1] / length[n - 1][m - 1]


def mixed_pairs(rng, sizes=MIXED_SIZES, dims=3):
    return [(rng.normal(0, 1, (n, dims)), rng.normal(0, 1, (m, dims)))
            for n, m in sizes]


@pytest.mark.parametrize("band", [0, 2, 10])
def test_batch_equals_per_pair_bit_for_bit(rng, monkeypatch, band):
    pairs = mixed_pairs(rng)
    cfg = DtwConfig(selected_columns=(1, 2, 3), band=band)
    per_pair = np.array([dtw_distance(a, b, cfg) for a, b in pairs])
    reference = np.array([scalar_dtw(a, b, band) for a, b in pairs])
    one_chunk = dtw_distances(pairs, band)
    monkeypatch.setattr(dtw, "CHUNK_CELLS", 700)  # several chunks
    chunked = dtw_distances(pairs, band)
    for got in (per_pair, one_chunk, chunked):
        assert np.array_equal(got, reference)
    # band 2 is narrower than |n - m| for most pairs; the slope
    # correction keeps every distance finite
    assert np.all(np.isfinite(reference))


@pytest.mark.parametrize("band", [0, 2, 10])
def test_forked_chunks_equal_in_process_chunks(rng, monkeypatch, band):
    pairs = mixed_pairs(rng)
    monkeypatch.setattr(dtw, "CHUNK_CELLS", 700)  # several chunks
    in_process(monkeypatch)
    expected = dtw_distances(pairs, band)
    asked = pooled(monkeypatch)
    assert dtw_distances(pairs, band).tobytes() == expected.tobytes()
    assert asked == ["fork"]
    assert multiprocessing.active_children() == []
    reference = np.array([scalar_dtw(a, b, band) for a, b in pairs])
    assert np.array_equal(expected, reference)


def test_forked_chunk_error_is_the_in_process_error(rng, monkeypatch):
    # an 80 x 80 pair with mismatched columns, swept in chunk 7 of 10: with
    # two CPUs that chunk is the forked child's
    pairs = [*mixed_pairs(rng), (rng.normal(0, 1, (80, 3)), rng.normal(0, 1, (80, 2)))]
    monkeypatch.setattr(dtw, "CHUNK_CELLS", 700)
    in_process(monkeypatch)
    with pytest.raises(ValueError) as local:
        dtw_distances(pairs)
    asked = pooled(monkeypatch)
    with pytest.raises(ValueError) as remote:
        dtw_distances(pairs)
    assert asked == ["fork"]
    assert str(remote.value) == str(local.value)
    assert "columns" in str(local.value)
    assert multiprocessing.active_children() == []


def test_one_chunk_one_cpu_or_other_threads_fork_nothing(rng, monkeypatch):
    def no_fork(method=None):
        raise AssertionError("a process was asked for")

    pairs = mixed_pairs(rng)
    expected = np.array([scalar_dtw(a, b) for a, b in pairs])
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    # four pairs, as a verify request aligns, fit in one chunk
    assert np.array_equal(dtw_distances(pairs[6:10]), expected[6:10])
    monkeypatch.setattr(dtw, "CHUNK_CELLS", 700)
    with pytest.raises(AssertionError, match="a process was asked for"):
        dtw_distances(pairs)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert np.array_equal(dtw_distances(pairs), expected)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert np.array_equal(dtw_distances(pairs), expected)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()


def test_batching_and_order_do_not_change_scores(rng):
    pairs = mixed_pairs(rng)
    whole = dtw_distances(pairs)
    perm = rng.permutation(len(pairs))
    shuffled = dtw_distances([pairs[k] for k in perm])
    assert np.array_equal(shuffled, whole[perm])
    halves = np.concatenate([dtw_distances(pairs[:5]), dtw_distances(pairs[5:])])
    assert np.array_equal(halves, whole)


def test_score_pairs_dtw_orders_and_negates(rng):
    features = {f"s{k}": rng.normal(0, 1, (n, N_FEATURES))
                for k, n in enumerate((1, 7, 30, 300))}
    keys = sorted(features)
    pairs = [Pair("w0", 0, k, a, b, 1) for k, (a, b) in
             enumerate((a, b) for a in keys for b in keys)]
    got = score_pairs_dtw(pairs, features, THREE)
    want = [-dtw_distance(features[p.enroll_key], features[p.probe_key], THREE)
            for p in pairs]
    assert np.array_equal(got, want)


def test_empty_pair_list():
    got = score_pairs_dtw([], {}, THREE)
    assert got.dtype == np.float64 and got.shape == (0,)
    assert dtw_distances([]).shape == (0,)


def test_bad_column_selection_raises(rng):
    features = {"a": rng.normal(0, 1, (5, 2)), "b": rng.normal(0, 1, (6, 2))}
    pairs = [Pair("w0", 0, 0, "a", "b", 1)]
    with pytest.raises(ValueError, match="selection needs"):
        score_pairs_dtw(pairs, features, THREE)
    with pytest.raises(ValueError, match="1..23"):
        score_pairs_dtw(pairs, features, DtwConfig(selected_columns=(0,)))


# --- feature selection on a corpus with known informative columns ---

SFFS_PROTOCOL = ProtocolConfig(
    enrollment_per_user=2, test_genuine_per_user=3, forgeries_per_user=3
)


def _stub(user, kind, session, index):
    return SignatureRecord(
        x=np.array([0, 1]), y=np.array([0, 1]),
        pressure=np.array([0, 0]), timestamp=np.array([0, 10]),
        pen_down=np.array([True, True]),
        user_id=user, session=session, kind=kind, sample_index=index,
    )


def informative_corpus(n_users=4, seed=123):
    """Only the first two feature columns separate writers from forgers."""
    rng = np.random.default_rng(seed)
    records, features = [], {}
    for u in range(n_users):
        user = f"w{u}"
        angle = 2.0 * np.pi * u / n_users
        center = 3.0 * np.array([np.cos(angle), np.sin(angle)])

        def sequence(forged: bool) -> np.ndarray:
            T = int(rng.integers(12, 20))
            vals = rng.normal(0.0, 1.0, (T, N_FEATURES))
            target = center + (rng.normal(0.0, 1.5, 2) if forged else 0.0)
            vals[:, 0] = target[0] + rng.normal(0.0, 0.05, T)
            vals[:, 1] = target[1] + rng.normal(0.0, 0.05, T)
            return vals

        for session in (1, 2):
            for i in range(3):
                rec = _stub(user, SignatureKind.GENUINE, session, i)
                records.append(rec)
                features[rec.key] = sequence(forged=False)
        for i in range(3):
            rec = _stub(user, SignatureKind.SKILLED_FORGERY, 1 + i % 2, i)
            records.append(rec)
            features[rec.key] = sequence(forged=True)
    split = build_split(records, n_dev_users=n_users, protocol=SFFS_PROTOCOL)
    return split, features


def singleton_eers(split, features):
    pairs = build_pairs(split, DEVELOPMENT)
    out = {}
    for col in ALL_COLUMNS:
        cfg = DtwConfig(selected_columns=(col,))
        scores = score_pairs_dtw(pairs, features, cfg)
        out[col] = compute_eer(aggregate_4vs1(pairs, scores))[0]
    return out


def test_sffs_finds_the_informative_columns():
    split, features = informative_corpus()
    subset, steps = sffs_select(split, features, k_max=3)
    assert set(subset) <= {1, 2}
    assert all(isinstance(s, SffsStep) for s in steps)
    assert steps[0].action == "add"
    # repeated runs walk the same path
    again, steps_again = sffs_select(split, features, k_max=3)
    assert again == subset
    assert [(s.action, s.column, s.eer) for s in steps] == [
        (s.action, s.column, s.eer) for s in steps_again
    ]


def test_sffs_k1_is_exhaustive_singleton_search():
    split, features = informative_corpus(seed=321)
    subset, steps = sffs_select(split, features, k_max=1)
    by_hand = singleton_eers(split, features)
    best = min(by_hand.items(), key=lambda kv: (kv[1], kv[0]))
    assert subset == (best[0],)
    assert steps[0].eer == pytest.approx(best[1], abs=1e-12)
    assert subset[0] in (1, 2)
    with pytest.raises(ValueError, match="k_max must be at least 1, got 0"):
        sffs_select(split, features, k_max=0)


def sffs_on_table(monkeypatch, table, **kwargs):
    """sffs_select where a subset's dev EER is ``table``'s entry, 0.45 if absent.

    The subset flows through the patched scorer and aggregator to the
    patched EER; returns the result and every subset scored, in order.
    """
    split, features = informative_corpus()
    scored = []

    def eer_of_subset(cols):
        scored.append(cols)
        return table.get(cols, 0.45), 0.0

    monkeypatch.setattr(dtw, "score_pairs_dtw", lambda pairs, feats, cfg: cfg.selected_columns)
    monkeypatch.setattr(dtw, "aggregate_4vs1", lambda pairs, cols, system: cols)
    monkeypatch.setattr(dtw, "compute_eer", eer_of_subset)
    return sffs_select(split, features, **kwargs), scored


def test_sffs_floats_back_then_stops(monkeypatch):
    table = {(1,): 0.30, (2,): 0.35, (1, 2): 0.20, (2, 3): 0.05, (1, 3): 0.25,
             (1, 2, 3): 0.10}
    (subset, steps), scored = sffs_on_table(monkeypatch, table)
    # 1 (.30) beats 2 (.35); {1,2} .20; {1,2,3} .10; dropping 1 gives {2,3}
    # .05 < .20, the best pair so far; dropping more would leave one column.
    # Adding back to three gives {1,2,3} .10, no better than the best three
    # (.10) or the best two (.05), so the search stops
    assert [(s.action, s.column, s.eer, s.subset) for s in steps] == [
        ("add", 1, 0.30, (1,)),
        ("add", 2, 0.20, (1, 2)),
        ("add", 3, 0.10, (1, 2, 3)),
        ("remove", 1, 0.05, (2, 3)),
    ]
    assert subset == (2, 3)
    others = [c for c in ALL_COLUMNS if c not in (1, 2, 3)]
    # each subset is scored once: the drops (1, 3) and (1, 2) and the add
    # back to (1, 2, 3) reuse the EERs of earlier adds
    assert scored == list(dict.fromkeys([
        *[(c,) for c in ALL_COLUMNS],
        *[(1, c) for c in ALL_COLUMNS if c != 1],
        *[(1, 2, c) for c in ALL_COLUMNS if c > 2],
        (2, 3), (1, 3), (1, 2),  # drops, in selection order
        (1, 2, 3), *[(2, 3, c) for c in others],
    ]))
    assert len(scored) == 23 + 22 + 21 + 1 + 20


def test_sffs_on_flat_eers_adds_every_column_then_ends(monkeypatch):
    (subset, steps), scored = sffs_on_table(monkeypatch, {}, k_max=30)
    # equal EERs: each add takes the lowest column, never stops (size n has
    # no earlier best) and never drops (no drop is strictly better); the
    # final tie goes to the lexicographically smallest subset
    assert [(s.action, s.column) for s in steps] == [("add", c) for c in ALL_COLUMNS]
    assert steps[-1].subset == ALL_COLUMNS
    assert subset == (1,)
    # an add scan at every size k, then from k = 3 a drop scan, whose drops
    # of the last two columns added were scored as adds: only k - 2 are new
    moves = []
    for k in ALL_COLUMNS:
        moves += [(*range(1, k), c) for c in ALL_COLUMNS if c >= k]
        if k >= 3:
            moves += [tuple(s for s in range(1, k + 1) if s != c) for c in range(1, k + 1)]
    assert scored == list(dict.fromkeys(moves))
    assert len(scored) == sum(range(1, N_FEATURES + 1)) + sum(range(1, N_FEATURES - 1))


def test_sffs_rejects_single_class_dev_set():
    protocol = ProtocolConfig(
        enrollment_per_user=2, test_genuine_per_user=3, forgeries_per_user=0
    )
    rng = np.random.default_rng(0)
    records, features = [], {}
    for session in (1, 2):
        for i in range(3):
            rec = _stub("w0", SignatureKind.GENUINE, session, i)
            records.append(rec)
            features[rec.key] = rng.normal(0, 1, (10, N_FEATURES))
    split = build_split(records, n_dev_users=1, protocol=protocol)
    with pytest.raises(ValueError, match="both classes"):
        sffs_select(split, features)


@pytest.mark.parametrize("max_pairs", [1, 0])
def test_sffs_rejects_budget_that_thins_to_one_class(max_pairs):
    split, features = informative_corpus()
    thinned = _complete_probe_subsample(build_pairs(split, DEVELOPMENT), max_pairs)
    assert len({p.label for p in thinned}) == 1
    with pytest.raises(ValueError, match=f"max_pairs={max_pairs} keeps development "
                                         "pairs of one class only"):
        sffs_select(split, features, k_max=1, max_pairs=max_pairs)


def test_subsampling_keeps_probe_groups_whole():
    split, _ = informative_corpus()
    pairs = build_pairs(split, DEVELOPMENT)
    thinned = _complete_probe_subsample(pairs, 20)
    assert 0 < len(thinned) < len(pairs)
    full_sizes = {}
    for p in pairs:
        full_sizes[(p.user_id, p.label, p.probe_index)] = \
            full_sizes.get((p.user_id, p.label, p.probe_index), 0) + 1
    kept_sizes = {}
    for p in thinned:
        kept_sizes[(p.user_id, p.label, p.probe_index)] = \
            kept_sizes.get((p.user_id, p.label, p.probe_index), 0) + 1
    for group, count in kept_sizes.items():
        assert count == full_sizes[group]
    assert _complete_probe_subsample(pairs, None) is pairs


def test_sffs_report_format(tmp_path):
    steps = [
        SffsStep("add", 5, 12.5, (5,)),
        SffsStep("add", 2, 8.25, (2, 5)),
        SffsStep("remove", 5, 7.0, (2,)),
    ]
    path = tmp_path / "sffs.txt"
    write_sffs_report(path, steps, (2,))
    lines = path.read_text().splitlines()
    assert lines[0] == "step\taction\tcolumn\tdev_eer_4vs1\tsubset"
    assert lines[1] == "1\tadd\t5\t12.5000\t5"
    assert lines[3] == "3\tremove\t5\t7.0000\t2"
    assert lines[4] == "selected\t2"
