"""Deterministic synthetic signature corpus.

Every user gets a base trajectory: a cubic spline through seeded random
control points, sampled at 100 Hz over a per-user duration. Genuine
signatures add a session-level low-frequency warp, a smaller
per-instance warp, a small duration change, and per-sample jitter.
Skilled forgeries start from distorted control points and a monotone
timing warp (their amplitude set by forgery_noise), then receive the
same session-style variation, so at forgery_noise = 0 they are
statistically indistinguishable from genuine signatures.

Randomness is drawn from streams keyed by (seed, user, role, session,
index), so generation order or parallelism cannot change the corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .dataset import record_filename
from .svc import SignatureKind, SignatureRecord, emit_svc

SAMPLE_RATE = 100  # samples per second

# device scaling of the unit-square trajectory
_X_ORIGIN, _X_SPAN = 600.0, 3000.0
_Y_ORIGIN, _Y_SPAN = 600.0, 2000.0
_PRESSURE_SPAN = 1023.0
_SAMPLE_NOISE = 0.0015  # unit coordinates

# rng stream roles
_ROLE_BASE = 0
_ROLE_GENUINE = 1
_ROLE_FORGERY = 2
_ROLE_SESSION = 3


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 40
    n_sessions: int = 4
    genuine_per_session: int = 4
    forgeries_per_user: int = 12
    seed: int = 20240816
    session_jitter: float = 0.035
    forgery_noise: float = 1.5
    min_duration: float = 1.5
    max_duration: float = 4.0

    def __post_init__(self) -> None:
        for name in ("n_users", "n_sessions", "genuine_per_session", "forgeries_per_user"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("session_jitter", "forgery_noise"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not 0.1 <= self.min_duration <= self.max_duration < np.inf:
            raise ValueError("durations must satisfy 0.1 <= min_duration <= max_duration "
                             f"< inf, got {self.min_duration} and {self.max_duration}")


@dataclass
class _UserBase:
    duration: float
    knots: np.ndarray
    ctrl_x: np.ndarray
    ctrl_y: np.ndarray
    ctrl_p: np.ndarray
    gap_center: float
    gap_width: float


def _user_base(cfg: SynthConfig, user: int) -> _UserBase:
    rng = np.random.default_rng([cfg.seed, user, _ROLE_BASE])
    duration = float(rng.uniform(cfg.min_duration, cfg.max_duration))
    n_ctrl = int(rng.integers(8, 15))
    return _UserBase(
        duration=duration,
        knots=np.linspace(0.0, 1.0, n_ctrl),
        ctrl_x=rng.uniform(0.1, 0.9, n_ctrl),
        ctrl_y=rng.uniform(0.1, 0.9, n_ctrl),
        ctrl_p=rng.uniform(0.4, 0.95, n_ctrl),
        gap_center=float(rng.uniform(0.35, 0.65)),
        gap_width=float(rng.uniform(0.04, 0.09)),
    )


def _low_freq_warp(rng: np.random.Generator, t: np.ndarray,
                   amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth additive x/y disturbance with fixed draw order."""
    out = []
    for _ in range(2):
        amp = amplitude * rng.uniform(0.5, 1.0)
        freq = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out.append(amp * np.sin(2.0 * np.pi * freq * t + phase))
    return out[0], out[1]


def _make_record(cfg: SynthConfig, user: int, kind: SignatureKind,
                 session: int, index: int) -> SignatureRecord:
    base = _user_base(cfg, user)
    forgery = kind is SignatureKind.SKILLED_FORGERY
    role = _ROLE_FORGERY if forgery else _ROLE_GENUINE
    rng = np.random.default_rng([cfg.seed, user, role, session, index])
    session_rng = np.random.default_rng([cfg.seed, user, role, _ROLE_SESSION, session])

    # draw order below is fixed; changing it would silently reseed corpora
    duration = base.duration * float(rng.uniform(0.95, 1.05))
    n = max(int(round(duration * SAMPLE_RATE)), 32)
    t = np.linspace(0.0, 1.0, n)

    ctrl_x, ctrl_y, ctrl_p = base.ctrl_x, base.ctrl_y, base.ctrl_p
    warped_t = t
    if forgery:
        sigma = 0.05 * cfg.forgery_noise
        ctrl_x = ctrl_x + rng.normal(0.0, sigma, ctrl_x.shape)
        ctrl_y = ctrl_y + rng.normal(0.0, sigma, ctrl_y.shape)
        ctrl_p = ctrl_p + rng.normal(0.0, 0.5 * sigma, ctrl_p.shape)
        # monotone timing warp with fixed endpoints
        amp = 0.06 * cfg.forgery_noise * float(rng.uniform(0.5, 1.0))
        freq = float(rng.uniform(0.7, 1.8))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        warped_t = t + amp * np.sin(np.pi * t) * np.sin(
            2.0 * np.pi * freq * t + phase
        )
        warped_t = np.maximum.accumulate(np.clip(warped_t, 0.0, 1.0))

    x = CubicSpline(base.knots, ctrl_x)(warped_t)
    y = CubicSpline(base.knots, ctrl_y)(warped_t)
    p = CubicSpline(base.knots, ctrl_p)(warped_t)

    sx, sy = _low_freq_warp(session_rng, t, cfg.session_jitter)
    ix, iy = _low_freq_warp(rng, t, 0.5 * cfg.session_jitter)
    x = x + sx + ix + rng.normal(0.0, _SAMPLE_NOISE, n)
    y = y + sy + iy + rng.normal(0.0, _SAMPLE_NOISE, n)
    p = p + rng.normal(0.0, 0.01, n)

    gap_center = base.gap_center + float(rng.uniform(-0.02, 0.02))
    in_gap = np.abs(t - gap_center) < 0.5 * base.gap_width

    xi = np.round(_X_ORIGIN + _X_SPAN * x).astype(np.int64)
    yi = np.round(_Y_ORIGIN + _Y_SPAN * y).astype(np.int64)
    pi = np.round(_PRESSURE_SPAN * np.clip(p, 0.08, 1.0)).astype(np.int64)
    pi[in_gap] = 0

    record = SignatureRecord(
        x=np.clip(xi, 0, 32767),
        y=np.clip(yi, 0, 32767),
        pressure=np.clip(pi, 0, 1023),
        timestamp=np.arange(n, dtype=np.int64) * (1000 // SAMPLE_RATE),
        pen_down=pi > 0,
        user_id=f"u{user:03d}",
        session=session,
        kind=kind,
        sample_index=index,
    )
    record.validate()
    return record


def generate_records(cfg: SynthConfig) -> list[SignatureRecord]:
    """The full corpus as in-memory records, deterministic in cfg."""
    records = []
    forgeries_per_session = -(-cfg.forgeries_per_user // cfg.n_sessions)
    for user in range(cfg.n_users):
        for session in range(1, cfg.n_sessions + 1):
            for index in range(cfg.genuine_per_session):
                records.append(
                    _make_record(cfg, user, SignatureKind.GENUINE, session, index)
                )
        for k in range(cfg.forgeries_per_user):
            session = min(k // forgeries_per_session + 1, cfg.n_sessions)
            records.append(
                _make_record(cfg, user, SignatureKind.SKILLED_FORGERY,
                             session, k % forgeries_per_session)
            )
    return records


def generate(cfg: SynthConfig, root) -> tuple[int, int]:
    """Write the corpus as an SVC directory tree; returns (users, files)."""
    records = generate_records(cfg)  # a failure here leaves no directory behind
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n_files = 0
    for record in records:
        user_dir = root / record.user_id
        user_dir.mkdir(exist_ok=True)
        (user_dir / record_filename(record)).write_bytes(emit_svc(record))
        n_files += 1
    return cfg.n_users, n_files

