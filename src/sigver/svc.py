"""SVC-format signature files and the records parsed from them.

The on-disk format is the plain-text layout of the first Signature
Verification Competition: a header line with the sample count, then one
whitespace-separated sample per line. Two column layouts are accepted:

    x y timestamp button                                (4 columns)
    x y timestamp button azimuth altitude pressure      (7 columns)

All tokens are ASCII decimal integers. Azimuth and altitude are parsed
but discarded. Files without a pressure column get a constant pressure
of 512 and are flagged ``pressure_free`` so downstream feature code can
neutralise the pressure channels.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

DEFAULT_PRESSURE = 512
PRESSURE_MAX = 1023


class SignatureKind(enum.Enum):
    GENUINE = "genuine"
    SKILLED_FORGERY = "forgery"


class ParseError(ValueError):
    """Malformed SVC input. ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantError(ValueError):
    """A SignatureRecord violates its structural invariants."""


@dataclass
class SignatureRecord:
    """One captured signature as parallel per-sample arrays.

    x/y are device units, pressure is a 0..1023 level, timestamps are
    milliseconds, pen_down is the button state. ``pressure_free`` marks
    records whose source file had no pressure column.
    """

    x: np.ndarray
    y: np.ndarray
    pressure: np.ndarray
    timestamp: np.ndarray
    pen_down: np.ndarray
    user_id: str = ""
    session: int = 1
    kind: SignatureKind = SignatureKind.GENUINE
    sample_index: int = 0
    pressure_free: bool = field(default=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.pressure = np.asarray(self.pressure, dtype=np.int64)
        self.timestamp = np.asarray(self.timestamp, dtype=np.int64)
        self.pen_down = np.asarray(self.pen_down, dtype=bool)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def key(self) -> str:
        """Stable identity string used to index feature maps and pairs."""
        return f"{self.user_id}/{self.kind.value}_{self.session}_{self.sample_index}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignatureRecord):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.session == other.session
            and self.kind == other.kind
            and self.sample_index == other.sample_index
            and self.pressure_free == other.pressure_free
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.pressure, other.pressure)
            and np.array_equal(self.timestamp, other.timestamp)
            and np.array_equal(self.pen_down, other.pen_down)
        )

    def validate(self) -> None:
        n = len(self.x)
        if not (len(self.y) == len(self.pressure) == len(self.timestamp) == len(self.pen_down) == n):
            raise InvariantError("sample arrays have inconsistent lengths")
        if n < 2:
            raise InvariantError("record needs at least 2 samples")
        if np.any(np.diff(self.timestamp) < 0):
            raise InvariantError("timestamps must be non-decreasing")
        if np.any(self.pressure < 0) or np.any(self.pressure > PRESSURE_MAX):
            raise InvariantError(f"pressure outside [0, {PRESSURE_MAX}]")
        if self.pressure_free and np.any(self.pressure != DEFAULT_PRESSURE):
            raise InvariantError("pressure-free record must hold the constant default pressure")
        if not 1 <= self.session:
            raise InvariantError("session must be a positive integer")


def _int_tokens(tokens: list[str], line_no: int) -> list[int]:
    """The integers of one line; each must fit the int64 sample arrays."""
    try:
        values = list(map(int, tokens))
        if -(1 << 63) <= min(values) and max(values) < 1 << 63:
            return values
    except ValueError:
        pass
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"non-numeric token {token!r}", line_no) from None
        if not -(1 << 63) <= value < 1 << 63:
            raise ParseError(f"token {token!r} outside the 64-bit integer range", line_no)


def parse_svc(
    data: bytes | str,
    *,
    user_id: str = "",
    session: int = 1,
    kind: SignatureKind = SignatureKind.GENUINE,
    sample_index: int = 0,
) -> SignatureRecord:
    """Parse one SVC text file into a SignatureRecord.

    Metadata (user/session/kind/index) is not part of the format and is
    supplied by the caller, normally from the file path.

    Raises ParseError (with a 1-based line number) for a malformed
    header, a sample-count mismatch, non-numeric tokens or ones outside
    the int64 range, decreasing timestamps, or out-of-range pressure.
    """
    if isinstance(data, bytes):
        text = data.decode("ascii", errors="replace")
    else:
        text = data
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing sample-count header", 1)
    header = lines[0].split()
    if len(header) != 1:
        raise ParseError("header must be a single sample count", 1)
    declared = _int_tokens(header, 1)[0]
    if declared < 2:
        raise ParseError(f"declared sample count {declared} is below the 2-sample minimum", 1)

    rows: list[list[int]] = []
    n_cols = None
    for offset, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if len(rows) >= declared:
            raise ParseError(f"more samples than the declared {declared}", offset)
        tokens = raw.split()
        if len(tokens) not in (4, 7):
            raise ParseError(f"expected 4 or 7 columns, found {len(tokens)}", offset)
        if n_cols is None:
            n_cols = len(tokens)
        elif len(tokens) != n_cols:
            raise ParseError(f"inconsistent column count ({len(tokens)} vs {n_cols})", offset)
        values = _int_tokens(tokens, offset)
        if rows and values[2] < rows[-1][2]:
            raise ParseError(f"timestamp {values[2]} decreases below {rows[-1][2]}", offset)
        if n_cols == 7 and not 0 <= values[6] <= PRESSURE_MAX:
            raise ParseError(f"pressure {values[6]} outside [0, {PRESSURE_MAX}]", offset)
        rows.append(values)
    if len(rows) != declared:
        raise ParseError(f"header declared {declared} samples, file has {len(rows)}",
                         len(lines) + 1)

    # one array per column, so a record keeps no azimuth/altitude alive
    columns = list(zip(*rows))
    return SignatureRecord(
        x=np.array(columns[0]),
        y=np.array(columns[1]),
        pressure=np.array(columns[6]) if n_cols == 7 else np.full(declared, DEFAULT_PRESSURE),
        timestamp=np.array(columns[2]),
        pen_down=np.array(columns[3]) != 0,
        user_id=user_id,
        session=session,
        kind=kind,
        sample_index=sample_index,
        pressure_free=(n_cols == 4),
    )


def emit_svc(record: SignatureRecord) -> bytes:
    """Serialize a record back to SVC text (inverse of parse_svc).

    Pressure-free records are written in the 4-column layout; others in
    the 7-column layout with zero azimuth/altitude.
    """
    out = [str(len(record))]
    buttons = record.pen_down.astype(np.int64)
    if record.pressure_free:
        for x, y, t, b in zip(record.x, record.y, record.timestamp, buttons):
            out.append(f"{x} {y} {t} {b}")
    else:
        for x, y, t, b, p in zip(record.x, record.y, record.timestamp, buttons, record.pressure):
            out.append(f"{x} {y} {t} {b} 0 0 {p}")
    return ("\n".join(out) + "\n").encode("ascii")
