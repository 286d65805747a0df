"""SVC-format signature files and the records parsed from them.

The on-disk format is the plain-text layout of the first Signature
Verification Competition: a header line with the sample count, then one
sample per line, its tokens separated by spaces or tabs. Lines end at
``\\n``, optionally preceded by ``\\r``; any other control character is a
ParseError. Two column layouts are accepted:

    x y timestamp button                                (4 columns)
    x y timestamp button azimuth altitude pressure      (7 columns)

Every token is an ASCII decimal integer, ``[+-]?[0-9]+``, within the
int64 range; blank lines are skipped. Azimuth and altitude are parsed
but discarded. Files without a pressure column get a constant pressure
of 512, which the per-signature z-score turns into zero channels.

``parse_svc`` reads a well-formed file in one vectorized pass and hands
any other file to a line-by-line reader, which raises the ParseError.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass

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


def record_key(user_id: str, kind: SignatureKind, session: int, sample_index: int) -> str:
    """The key of the record with this identity (``SignatureRecord.key``)."""
    return f"{user_id}/{kind.value}_{session}_{sample_index}"


@dataclass
class SignatureRecord:
    """One captured signature as parallel per-sample arrays.

    x/y are device units, pressure is a 0..1023 level, timestamps are
    milliseconds, pen_down is the button state.
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
        return record_key(self.user_id, self.kind, self.session, self.sample_index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignatureRecord):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.session == other.session
            and self.kind == other.kind
            and self.sample_index == other.sample_index
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
        if not 1 <= self.session:
            raise InvariantError("session must be a positive integer")


_INT_TOKEN = re.compile(r"([+-]?)0*([0-9]+)")  # sign, zeros, significant digits
_INT64 = np.iinfo(np.int64)
_INT64_DIGITS = 19


def _int_tokens(tokens: list[str], line_no: int) -> list[int]:
    """The integers of one line; each must fit the int64 sample arrays."""
    values = []
    for token in tokens:
        match = _INT_TOKEN.fullmatch(token)
        if match is None:
            raise ParseError(f"non-numeric token {token!r}", line_no)
        sign, digits = match.groups()
        # the length test first keeps int() inside its digit limit
        if len(digits) > _INT64_DIGITS or not _INT64.min <= int(sign + digits) <= _INT64.max:
            raise ParseError(f"token {token!r} outside the 64-bit integer range", line_no)
        values.append(int(sign + digits))
    return values


_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f-\x9f]")  # every control character but tab


def _line_tokens(line: str, line_no: int) -> list[str]:
    """The tokens of one line, split at spaces and tabs only."""
    bad = _CONTROL.search(line)
    if bad is not None:
        raise ParseError(f"control character {bad[0]!r}", line_no)
    return [tok for tok in line.replace("\t", " ").split(" ") if tok]


def _rows_by_line(text: str) -> np.ndarray:
    """The sample rows of ``text``, read line by line.

    The reference parser: every ParseError comes from here, so its
    message and line number name the first fault in file order. Lines
    end at ``\\n``, each dropping one trailing ``\\r``.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline ends the last line
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    header = _line_tokens(lines[0], 1) if lines else []
    if not header:
        raise ParseError("missing sample-count header", 1)
    if len(header) != 1:
        raise ParseError("header must be a single sample count", 1)
    declared = _int_tokens(header, 1)[0]
    if declared < 2:
        raise ParseError(f"declared sample count {declared} is below the 2-sample minimum", 1)

    rows: list[list[int]] = []
    n_cols = None
    for offset, raw in enumerate(lines[1:], start=2):
        tokens = _line_tokens(raw, offset)
        if not tokens:
            continue
        if len(rows) >= declared:
            raise ParseError(f"more samples than the declared {declared}", offset)
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
    return np.array(rows, dtype=np.int64)


_FAST_PATH_BYTES = b"0123456789+- \t\n"
_SPACE, _NEWLINE, _ZERO = b" \n0"


def _rows_vectorized(data: bytes) -> np.ndarray | None:
    """The sample rows of a well-formed file in one array pass, else None.

    Accepts only what ``_rows_by_line`` accepts with the same result: a
    digits-only header of at least 2, then that many lines of 4 or 7
    ``[+-]?[0-9]+`` tokens separated by spaces or tabs, blank lines
    allowed, non-decreasing timestamps, pressure in range. Anything else,
    including ``\\r`` line ends and the int64 extremes (``np.fromstring``
    saturates there instead of failing), is left to the line loop.
    """
    newline = data.find(b"\n")
    if newline < 0 or data.translate(None, _FAST_PATH_BYTES):
        return None
    header = data[:newline].split()
    if len(header) != 1 or not header[0].isdigit() or len(header[0]) > _INT64_DIGITS:
        return None
    declared = int(header[0])
    if declared < 2:
        return None

    # the body from the header's newline on, closed by one more, so every
    # line lies between two newlines; of the allowed bytes, exactly the
    # separators are <= b" " and exactly the digits are >= b"0"
    text = data[newline:] + b"\n"
    body = np.frombuffer(text, dtype=np.uint8)
    is_sep = body <= _SPACE
    is_start = ~is_sep
    is_start[1:] &= is_sep[:-1]
    signs = np.flatnonzero((body < _ZERO) != is_sep)
    if signs.size and (not is_start[signs].all() or (body[signs + 1] < _ZERO).any()):
        return None  # a sign must open its token and precede a digit
    per_line = np.diff(np.searchsorted(np.flatnonzero(is_start), np.flatnonzero(body == _NEWLINE)))
    per_line = per_line[per_line > 0]
    if per_line.size != declared or per_line[0] not in (4, 7) or (per_line != per_line[0]).any():
        return None
    n_cols = int(per_line[0])

    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.min() == _INT64.min or values.max() == _INT64.max:
        return None
    rows = values.reshape(declared, n_cols)
    if (np.diff(rows[:, 2]) < 0).any():
        return None
    if n_cols == 7 and (rows[:, 6].min() < 0 or rows[:, 6].max() > PRESSURE_MAX):
        return None
    return rows


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
    is_text = isinstance(data, str)
    rows = _rows_vectorized(data.encode("ascii", errors="replace") if is_text else data)
    if rows is None:
        rows = _rows_by_line(data if is_text else data.decode("ascii", errors="replace"))

    # one owned array per column, so a record keeps no azimuth/altitude alive
    n, n_cols = rows.shape
    return SignatureRecord(
        x=rows[:, 0].copy(),
        y=rows[:, 1].copy(),
        pressure=rows[:, 6].copy() if n_cols == 7 else np.full(n, DEFAULT_PRESSURE),
        timestamp=rows[:, 2].copy(),
        pen_down=rows[:, 3] != 0,
        user_id=user_id,
        session=session,
        kind=kind,
        sample_index=sample_index,
    )


def emit_svc(record: SignatureRecord) -> bytes:
    """Serialize a record to SVC text; ``parse_svc(emit_svc(r)) == r``.

    Every record is written in the 7-column layout with zero azimuth and
    altitude; one read from a 4-column file comes back as 7 columns.
    """
    out = [str(len(record))]
    buttons = record.pen_down.astype(np.int64)
    for x, y, t, b, p in zip(record.x, record.y, record.timestamp, buttons, record.pressure):
        out.append(f"{x} {y} {t} {b} 0 0 {p}")
    return ("\n".join(out) + "\n").encode("ascii")
