import numpy as np
import pytest

from sigver.features import (
    FEATURE_NAMES,
    N_FEATURES,
    derivative,
    extract_features,
    write_feature_csv,
    zscore_columns,
)
from sigver.svc import DEFAULT_PRESSURE, SignatureRecord

COL = {name: i for i, name in enumerate(FEATURE_NAMES)}


def make_record(x, y, pressure=None, dt=10, pen_down=None, pressure_free=False):
    x = np.round(np.asarray(x)).astype(np.int64)
    y = np.round(np.asarray(y)).astype(np.int64)
    n = x.shape[0]
    if pressure is None:
        pressure = np.full(n, DEFAULT_PRESSURE, dtype=np.int64)
    else:
        pressure = np.asarray(pressure, dtype=np.int64)
    if pen_down is None:
        pen_down = np.ones(n, dtype=bool)
    rec = SignatureRecord(
        x=x, y=y, pressure=pressure,
        timestamp=np.arange(n, dtype=np.int64) * dt,
        pen_down=np.asarray(pen_down, dtype=bool),
        user_id="t", pressure_free=pressure_free,
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
    rec = next(r for r in tiny_records if not r.pressure_free)
    free = SignatureRecord(
        x=rec.x, y=rec.y,
        pressure=np.full(len(rec), DEFAULT_PRESSURE, dtype=np.int64),
        timestamp=rec.timestamp, pen_down=rec.pen_down,
        user_id=rec.user_id, pressure_free=True,
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


def test_drop_pen_up():
    n = 30
    pen = np.ones(n, dtype=bool)
    pen[10:18] = False
    rec = make_record(np.arange(n) * 3, np.arange(n), pen_down=pen)
    seq = extract_features(rec, drop_pen_up=True)
    assert seq.values.shape[0] == n - 8
    assert extract_features(rec).values.shape[0] == n

    mostly_up = make_record(np.arange(10), np.arange(10),
                            pen_down=np.arange(10) < 5)
    with pytest.raises(ValueError, match="too short"):
        extract_features(mostly_up, drop_pen_up=True)


def test_time_scaling():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.integers(-20, 21, 60))
    y = np.cumsum(rng.integers(-20, 21, 60))
    uniform = make_record(x, y, dt=10)
    plain = extract_features(uniform, normalize=False).values
    scaled = extract_features(uniform, time_scaled=True, normalize=False).values
    assert np.array_equal(plain, scaled)

    # doubling the sampling interval halves every derivative-based channel
    slow = make_record(x, y, dt=20)
    adjusted = extract_features(slow, time_scaled=True, normalize=False).values
    raw = extract_features(slow, normalize=False).values
    assert np.allclose(adjusted[:, COL["dx"]], raw[:, COL["dx"]] / 2.0)
    assert np.array_equal(adjusted[:, COL["theta"]], raw[:, COL["theta"]])


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
