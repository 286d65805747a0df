"""Per-sample time functions computed from a pen trajectory.

Columns of the feature matrix (1-based, see FEATURE_NAMES):

  1 x         pen x position
  2 y         pen y position
  3 p         pen pressure
  4 theta     path-tangent angle atan2(dy, dx)
  5 v         speed hypot(dx, dy)
  6 rho       log curvature radius log(v / |dtheta|)
  7 a         acceleration magnitude hypot(dv, v * dtheta)
  8-14        first derivatives of columns 1-7
  15-16       second derivatives of x and y
  17 v_ratio  min speed / max speed over a centered 5-sample window
  18 alpha    chord angle atan2(y[n+1]-y[n], x[n+1]-x[n])
  19 dalpha   derivative of alpha
  20 sin_a    sine of alpha
  21 cos_a    cosine of alpha
  22 ratio_w5 stroke length / bounding-box width, 5-sample window
  23 ratio_w7 stroke length / bounding-box width, 7-sample window

Angle columns (4, 18) store the wrapped atan2 value; their derivatives
are taken on the unwrapped signal so that crossing the +-pi seam does
not produce a spike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .svc import InvariantError, SignatureRecord

EPS = 1e-8

N_FEATURES = 23

FEATURE_NAMES = (
    "x", "y", "p", "theta", "v", "rho", "a",
    "dx", "dy", "dp", "dtheta", "dv", "drho", "da",
    "ddx", "ddy",
    "v_ratio", "alpha", "dalpha", "sin_alpha", "cos_alpha",
    "ratio_w5", "ratio_w7",
)


@dataclass
class FeatureSequence:
    """T x 23 feature matrix plus the identity of its source record."""

    values: np.ndarray
    key: str

    def validate(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise InvariantError(
                f"{self.key}: feature matrix must be T x {N_FEATURES}, "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvariantError(f"{self.key}: non-finite feature values")


def derivative(signal: np.ndarray) -> np.ndarray:
    """Second-order regression derivative of a 1-d signal.

    Interior points use d[n] = (s[n+1] - s[n-1] + 2*(s[n+2] - s[n-2])) / 10,
    which is exact on linear signals and smooths sensor quantization.
    The two points at each boundary replicate the nearest interior value.
    """
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


def zscore_columns(values: np.ndarray) -> np.ndarray:
    """Z-score each column; columns with (near-)zero spread become all-zero."""
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    # relative floor so an exactly-constant large column maps to zero, not noise
    varying = std > 1e-12 * np.maximum(1.0, np.abs(mean))
    out = np.zeros_like(values)
    out[:, varying] = (values[:, varying] - mean[varying]) / std[varying]
    return out


def _windowed_length_width_ratio(
    x: np.ndarray, y: np.ndarray, size: int
) -> np.ndarray:
    """Stroke length / bounding-box width in a centered truncated window."""
    n = x.shape[0]
    half = size // 2
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    length = cum[hi] - cum[lo]
    # edge replication equals window truncation for min/max
    width = maximum_filter1d(x, size=size, mode="nearest") - minimum_filter1d(
        x, size=size, mode="nearest"
    )
    return length / (width + EPS)


def extract_features(
    record: SignatureRecord,
    normalize: bool = True,
    time_scaled: bool = False,
    drop_pen_up: bool = False,
) -> FeatureSequence:
    """Compute the 23 time functions for one signature.

    With ``normalize`` each column is z-scored per signature (constant
    columns become all-zero, which is how pressure-free records end up
    with zero pressure channels). ``time_scaled`` divides derivatives by
    the local timestamp spacing (in 10 ms units) for irregularly sampled
    data; at a uniform 100 Hz it changes nothing. ``drop_pen_up``
    discards pen-up samples before anything is computed; the default
    keeps them, since in-air trajectories carry signal too.
    """
    keep = record.pen_down if drop_pen_up else slice(None)
    x = record.x[keep].astype(np.float64)
    y = record.y[keep].astype(np.float64)
    p = record.pressure[keep].astype(np.float64)
    timestamp = record.timestamp[keep]
    n = x.shape[0]
    if n < 7:
        raise ValueError(f"{record.key}: sequence too short: {n} samples, need at least 7")

    if time_scaled:
        tscale = np.maximum(derivative(timestamp / 10.0), EPS)
    else:
        tscale = 1.0

    def deriv(signal: np.ndarray) -> np.ndarray:
        d = derivative(signal)
        return d / tscale if time_scaled else d

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
        _windowed_length_width_ratio(x, y, 5),
        _windowed_length_width_ratio(x, y, 7),
    ]
    values = np.column_stack(cols)
    if normalize:
        values = zscore_columns(values)
    seq = FeatureSequence(values=values, key=record.key)
    seq.validate()
    return seq


def write_feature_csv(seq: FeatureSequence, path) -> None:
    """Dump one signature's feature matrix as CSV, one numbered column each."""
    header = ",".join(f"{i}:{name}" for i, name in enumerate(FEATURE_NAMES, 1))
    np.savetxt(path, seq.values, fmt="%.10g", delimiter=",",
               header=header, comments="")
