import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from sigver.features import (
    EPS,
    FEATURE_NAMES,
    N_FEATURES,
    derivative,
    extract_features,
    write_feature_csv,
    zscore_columns,
)
from sigver.svc import DEFAULT_PRESSURE, InvariantError, SignatureRecord

COL = {name: i for i, name in enumerate(FEATURE_NAMES)}


def make_record(x, y, pressure=None):
    x = np.round(np.asarray(x)).astype(np.int64)
    y = np.round(np.asarray(y)).astype(np.int64)
    n = x.shape[0]
    if pressure is None:
        pressure = np.full(n, DEFAULT_PRESSURE, dtype=np.int64)
    rec = SignatureRecord(
        x=x, y=y, pressure=np.asarray(pressure, dtype=np.int64),
        timestamp=np.arange(n, dtype=np.int64) * 10,
        pen_down=np.ones(n, dtype=bool), user_id="t",
    )
    rec.validate()
    return rec


class TestDerivative:
    def test_linear_is_exact(self):
        d = derivative(2.0 * np.arange(30))
        assert np.array_equal(d, np.full(30, 2.0))

    def test_quadratic_interior_and_boundaries(self):
        n = np.arange(20, dtype=np.float64)
        d = derivative(n * n)
        assert np.array_equal(d[2:-2], 2.0 * n[2:-2])
        # the first and last two entries replicate the nearest interior value
        assert d[0] == d[1] == d[2]
        assert d[-1] == d[-2] == d[-3]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_sample_rejected(self, n):
        with pytest.raises(ValueError, match="at least 5 samples"):
            derivative(np.array([3.0, -1.0, 4.0, 1.5])[:n])


def test_zscore_columns():
    rng = np.random.default_rng(3)
    raw = np.column_stack([np.full(40, 7.0), rng.normal(2.0, 3.0, 40)])
    z = zscore_columns(raw)
    assert np.array_equal(z[:, 0], np.zeros(40))
    assert abs(z[:, 1].mean()) < 1e-12
    assert abs(z[:, 1].std() - 1.0) < 1e-12


def test_too_short_record_rejected():
    rec = make_record(np.arange(6), np.arange(6))
    with pytest.raises(ValueError, match=f"^{rec.key}: sequence too short: 6 samples"):
        extract_features(rec)


def test_straight_line_geometry():
    n = 50
    rec = make_record(5 * np.arange(n), np.zeros(n))
    seq = extract_features(rec, normalize=False)
    vals = seq.values
    assert vals.shape == (n, N_FEATURES)
    assert np.array_equal(vals[:, COL["theta"]], np.zeros(n))
    assert np.array_equal(vals[:, COL["v"]], np.full(n, 5.0))
    assert np.array_equal(vals[:, COL["a"]], np.zeros(n))
    assert np.array_equal(vals[:, COL["sin_alpha"]], np.zeros(n))
    assert np.array_equal(vals[:, COL["cos_alpha"]], np.ones(n))
    assert np.all(np.abs(vals[:, COL["v_ratio"]] - 1.0) < 1e-8)


def test_circle_speed_and_curvature():
    # constant-speed circle: v = r*omega per sample and log(v/|dtheta|) = log r
    r, omega, n = 20000.0, 0.02, 350
    t = np.arange(n)
    rec = make_record(r * np.cos(omega * t), r * np.sin(omega * t))
    vals = extract_features(rec, normalize=False).values
    interior = slice(5, -5)
    v = vals[interior, COL["v"]]
    assert np.all(np.abs(v - r * omega) < 0.02 * r * omega)
    rho = vals[interior, COL["rho"]]
    assert np.all(np.abs(rho - np.log(r)) < 0.02 * np.log(r))


def test_translation_invariance():
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.integers(-30, 31, 80))
    y = np.cumsum(rng.integers(-30, 31, 80))
    p = rng.integers(0, 1024, 80)
    base = extract_features(make_record(x, y, p)).values
    moved = extract_features(make_record(x + 10000, y - 7777, p)).values
    assert np.allclose(base, moved, atol=1e-9)


def test_pressure_free_channels_are_zero(tiny_records):
    rec = tiny_records[0]
    free = SignatureRecord(
        x=rec.x, y=rec.y,
        pressure=np.full(len(rec), DEFAULT_PRESSURE, dtype=np.int64),
        timestamp=rec.timestamp, pen_down=rec.pen_down,
        user_id=rec.user_id,
    )
    vals = extract_features(free).values
    assert np.array_equal(vals[:, COL["p"]], np.zeros(len(rec)))
    assert np.array_equal(vals[:, COL["dp"]], np.zeros(len(rec)))


def test_v_ratio_bounded(tiny_records):
    for rec in tiny_records[:8]:
        ratio = extract_features(rec, normalize=False).values[:, COL["v_ratio"]]
        assert np.all(ratio >= 0.0)
        assert np.all(ratio <= 1.0)


def test_deterministic(tiny_records):
    a = extract_features(tiny_records[0]).values
    b = extract_features(tiny_records[0]).values
    assert np.array_equal(a, b)


def test_feature_csv_round_trip(tmp_path, tiny_features):
    seq = next(iter(tiny_features.values()))
    path = tmp_path / "features.csv"
    write_feature_csv(seq, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("1:x,2:y,3:p,")
    assert header.endswith(f"{N_FEATURES}:ratio_w7")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == seq.values.shape
    assert np.allclose(back, seq.values, atol=1e-8)


# Reference extractor: the column-by-column implementation that the
# row-stage extractor replaced. extract_features must match it bit for bit.

def column_derivative(signal):
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("derivative expects a 1-d signal")
    if s.shape[0] < 5:
        raise ValueError("derivative needs at least 5 samples")
    d = np.empty_like(s)
    d[2:-2] = (s[3:-1] - s[1:-3] + 2.0 * (s[4:] - s[:-4])) / 10.0
    d[:2] = d[2]
    d[-2:] = d[-3]
    return d


def column_zscore(values):
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    varying = std > 1e-12 * np.maximum(1.0, np.abs(mean))
    out = np.zeros_like(values)
    out[:, varying] = (values[:, varying] - mean[varying]) / std[varying]
    return out


def column_length_width_ratio(x, y, size):
    n = x.shape[0]
    half = size // 2
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    length = cum[hi] - cum[lo]
    width = maximum_filter1d(x, size=size, mode="nearest") - minimum_filter1d(
        x, size=size, mode="nearest"
    )
    return length / (width + EPS)


def column_extract(record, normalize=True):
    x = record.x.astype(np.float64)
    y = record.y.astype(np.float64)
    p = record.pressure.astype(np.float64)
    n = x.shape[0]
    if n < 7:
        raise ValueError(f"{record.key}: sequence too short: {n} samples, need at least 7")
    deriv = column_derivative

    xd = deriv(x)
    yd = deriv(y)
    theta = np.arctan2(yd, xd)
    theta_d = deriv(np.unwrap(theta))
    v = np.hypot(xd, yd)
    rho = np.log((v + EPS) / (np.abs(theta_d) + EPS))
    vd = deriv(v)
    a = np.hypot(vd, v * theta_d)
    alpha_steps = np.arctan2(np.diff(y), np.diff(x))
    alpha = np.append(alpha_steps, alpha_steps[-1])
    alpha_d = deriv(np.unwrap(alpha))
    v_ratio = minimum_filter1d(v, size=5, mode="nearest") / (
        maximum_filter1d(v, size=5, mode="nearest") + EPS
    )
    cols = [
        x, y, p, theta, v, rho, a,
        xd, yd, deriv(p), theta_d, vd, deriv(rho), deriv(a),
        deriv(xd), deriv(yd),
        v_ratio, alpha, alpha_d, np.sin(alpha), np.cos(alpha),
        column_length_width_ratio(x, y, 5),
        column_length_width_ratio(x, y, 7),
    ]
    values = np.column_stack(cols)
    if normalize:
        values = column_zscore(values)
    if not np.all(np.isfinite(values)):
        raise InvariantError(f"{record.key}: non-finite feature values")
    return values


def assert_matches_column_extractor(record):
    for normalize in (False, True):
        try:
            expected = column_extract(record, normalize)
        except Exception as exc:  # the same error, type and message, or none
            with pytest.raises(Exception) as err:
                extract_features(record, normalize)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
            continue
        got = extract_features(record, normalize).values
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes(), normalize


INT64_EDGE = 2**63 - 2**20  # leaves room for 500 steps of up to 1000 units


@st.composite
def signature_records(draw):
    n = draw(st.one_of(st.just(7), st.integers(7, 500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([1, 30, 1000]))
    x = np.cumsum(rng.integers(-step, step + 1, n))
    y = np.cumsum(rng.integers(-step, step + 1, n))
    constant = draw(st.sampled_from(["none", "x", "y", "both"]))
    if constant in ("x", "both"):
        x[:] = x[0]
    if constant in ("y", "both"):
        y[:] = y[0]
    offset = draw(st.sampled_from([0, 0, INT64_EDGE, -INT64_EDGE]))
    if draw(st.booleans()):  # as read from a file without a pressure column
        pressure = np.full(n, DEFAULT_PRESSURE)
    else:
        pressure = rng.integers(0, 1024, n)
    record = SignatureRecord(
        x=x + offset, y=y - offset, pressure=pressure, timestamp=np.arange(n) * 10,
        pen_down=np.ones(n, dtype=bool), user_id="h",
    )
    record.validate()
    return record


@settings(max_examples=300, deadline=None)
@given(signature_records())
def test_extractor_matches_column_extractor_bit_for_bit(record):
    assert_matches_column_extractor(record)


def test_extractor_matches_column_extractor_on_tiny_corpus(tiny_records):
    for record in tiny_records:
        assert_matches_column_extractor(record)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 23])
@pytest.mark.parametrize("T", [5, 6, 7, 50, 301])
def test_derivative_of_rows_equals_row_by_row(k, T):
    rows = np.random.default_rng(k * 1000 + T).normal(0.0, 100.0, (k, T))
    stacked = derivative(rows)
    assert stacked.shape == (k, T)
    for row, d in zip(rows, stacked):
        assert d.tobytes() == derivative(row).tobytes() == column_derivative(row).tobytes()


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 0), (2, 3, 1)])
def test_derivative_rejects_short_last_axis(shape):
    with pytest.raises(ValueError, match="at least 5 samples"):
        derivative(np.zeros(shape))


def test_derivative_rejects_scalar():
    with pytest.raises(ValueError, match="at least 1 dimension"):
        derivative(np.float64(2.5))


@pytest.mark.parametrize("T", [2, 7, 64, 333])
def test_zscore_matches_mean_and_std_bit_for_bit(T):
    rng = np.random.default_rng(T)
    # every column varies: spreads of 1e-3 .. 1e9 around means up to 1e5
    v = rng.normal(0.0, 1.0, (T, N_FEATURES)) * np.logspace(-3, 9, N_FEATURES)
    v += np.linspace(-1e5, 1e5, N_FEATURES)
    for block in (v, np.asfortranarray(v)):
        assert np.all(block.std(axis=0) > 1e-12 * np.abs(block.mean(axis=0)))
        expected = (block - block.mean(axis=0)) / block.std(axis=0)
        assert zscore_columns(block).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_zscore_zeroes_constant_and_near_constant_columns():
    rng = np.random.default_rng(8)
    v = rng.normal(0.0, 1.0, (50, 4))
    v[:, 1] = -3.25
    v[:, 2] = 1e12 + rng.normal(0.0, 1e-3, 50)  # a few ulps: spread << 1e-12 of the mean
    assert 0.0 < v[:, 2].std() < 1.0
    out = zscore_columns(v)
    assert out[:, 1:3].tobytes() == np.zeros((50, 2)).tobytes()
    with np.errstate(invalid="ignore"):  # 0 / 0 in the constant column
        expected = (v - v.mean(axis=0)) / v.std(axis=0)
    assert out[:, [0, 3]].tobytes() == expected[:, [0, 3]].tobytes()


def test_zscore_returns_fresh_c_order_float64():
    v = np.random.default_rng(9).normal(0.0, 1.0, (40, N_FEATURES))
    for block in (v, np.asfortranarray(v), v[::2]):
        before = block.copy()
        out = zscore_columns(block)
        assert out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.owndata
        assert not np.shares_memory(out, block)
        assert np.array_equal(block, before)
