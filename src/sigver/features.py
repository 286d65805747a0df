"""Per-sample time functions computed from a pen trajectory.

A signature's features are its 23 time functions at every sample, pen-up
samples included, with the sample index as time, each column z-scored
per signature. Training, scoring, the DTW baseline and ``sigver
extract`` all read this one matrix; ``normalize=False`` (``extract
--raw``) gives its values before the z-score.

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

The channels are computed as the rows of one (23, T) array, filled by
dependency stage: each derivative, unwrap or min/max step runs once,
along the last axis, on all the rows of its stage. The z-score and
``FeatureSequence.validate`` run on its C-order (T, 23) transpose,
because a column reduction sums in an order that depends on the memory
layout; elementwise ufuncs give the same bits in any layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if not np.isfinite(self.values).all():
            raise InvariantError(f"{self.key}: non-finite feature values")


def derivative(signal: np.ndarray) -> np.ndarray:
    """Second-order regression derivative along the last axis.

    Interior points use d[n] = (s[n+1] - s[n-1] + 2*(s[n+2] - s[n-2])) / 10,
    which is exact on linear signals and smooths sensor quantization.
    The two points at each boundary replicate the nearest interior value.
    A (k, T) array gives the k row derivatives, bit for bit as k 1-d calls.
    """
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim == 0:
        raise ValueError("derivative expects a signal of at least 1 dimension")
    if s.shape[-1] < 5:
        raise ValueError("derivative needs at least 5 samples")
    d = np.empty_like(s)
    d[..., 2:-2] = (s[..., 3:-1] - s[..., 1:-3] + 2.0 * (s[..., 4:] - s[..., :-4])) / 10.0
    d[..., :2] = d[..., 2:3]
    d[..., -2:] = d[..., -3:-2]
    return d


def zscore_columns(values: np.ndarray) -> np.ndarray:
    """Z-score each column; columns with (near-)zero spread become all-zero.

    Mean and spread are those of ``values.mean(axis=0)`` and
    ``values.std(axis=0)``, bit for bit: the same reductions in the same
    order, with the mean and the centred block computed once.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    mean = np.add.reduce(values, axis=0) / n
    centred = values - mean
    std = np.sqrt(np.add.reduce(np.square(centred), axis=0) / n)
    # relative floor so an exactly-constant large column maps to zero, not noise
    varying = std > 1e-12 * np.maximum(1.0, np.abs(mean))
    centred /= np.where(varying, std, 1.0)
    centred[:, ~varying] = 0.0
    return np.ascontiguousarray(centred)


def extract_features(record: SignatureRecord, normalize: bool = True) -> FeatureSequence:
    """Compute the 23 time functions over every sample of one signature.

    Derivatives are taken per sample, pen-up samples included: in-air
    trajectories carry signal too. With ``normalize`` (what training and
    scoring use) each column is z-scored per signature; constant columns
    become all-zero, which is how pressure-free records end up with zero
    pressure channels. ``normalize=False`` gives the same time functions
    before the z-score.
    """
    n = len(record)
    if n < 7:
        raise ValueError(f"{record.key}: sequence too short: {n} samples, need at least 7")

    # row i holds channel i + 1 (FEATURE_NAMES order)
    f = np.empty((N_FEATURES, n))
    f[0], f[1], f[2] = record.x, record.y, record.pressure
    f[7:10] = derivative(f[0:3])  # dx, dy, dp
    f[3] = np.arctan2(f[8], f[7])  # theta
    f[4] = np.hypot(f[7], f[8])  # v
    steps = f[0:2, 1:] - f[0:2, :-1]  # chord steps in x and y
    f[17, :-1] = np.arctan2(steps[1], steps[0])  # alpha
    f[17, -1] = f[17, -2]
    # rows 3:18:14 are (theta, alpha) and rows 10:19:8 their derivatives
    d = derivative(np.concatenate((np.unwrap(f[3:18:14]), f[4:5])))
    f[10:19:8], f[11] = d[:2], d[2]  # (dtheta, dalpha), dv
    f[5] = np.log((f[4] + EPS) / (np.abs(f[10]) + EPS))  # rho
    f[6] = np.hypot(f[11], f[4] * f[10])  # a
    f[12:16] = derivative(f[5:9])  # drho, da, ddx, ddy
    f[19], f[20] = np.sin(f[17]), np.cos(f[17])
    # v, x and the cumulative chord length, each padded with 3 copies of
    # its first and last value: a window of 5 or 7 centred on any sample
    # then sees what the window truncated at the ends would see
    pad = np.empty((3, n + 6))
    pad[0:2, 3:-3] = f[4::-4]  # v, x
    pad[2, 3] = 0.0
    np.cumsum(np.hypot(steps[0], steps[1]), out=pad[2, 4:-3])
    pad[:, :3], pad[:, -3:] = pad[:, 3:4], pad[:, -4:-3]
    low, high = pad[:2, 1:n + 1].copy(), pad[:2, 1:n + 1].copy()
    for k in range(2, 6):  # min and max over 5 samples
        np.minimum(low, pad[:2, k:k + n], out=low)
        np.maximum(high, pad[:2, k:k + n], out=high)
    f[16] = low[0] / (high[0] + EPS)  # v_ratio
    # stroke length / bounding-box width over 5 and 7 samples
    f[21] = (pad[2, 5:n + 5] - pad[2, 1:n + 1]) / (high[1] - low[1] + EPS)
    outer = pad[1, :n], pad[1, 6:]
    width7 = np.maximum(high[1], np.maximum(*outer)) - np.minimum(low[1], np.minimum(*outer))
    f[22] = (pad[2, 6:] - pad[2, :n]) / (width7 + EPS)

    values = np.ascontiguousarray(f.T)
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
