import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigver import svc
from sigver.synth import SynthConfig, generate
from sigver.svc import (
    DEFAULT_PRESSURE,
    InvariantError,
    ParseError,
    SignatureKind,
    SignatureRecord,
    emit_svc,
    parse_svc,
)

MINIMAL = "2\n0 0 0 1\n10 10 10 1\n"


def test_minimal_two_sample_file():
    rec = parse_svc(MINIMAL)
    assert len(rec) == 2
    assert rec.pen_down.all()
    assert np.array_equal(rec.pressure, [DEFAULT_PRESSURE, DEFAULT_PRESSURE])
    assert np.array_equal(rec.x, [0, 10])
    assert np.array_equal(rec.timestamp, [0, 10])


def test_seven_column_file_reads_pressure():
    rec = parse_svc("2\n1 2 0 1 900 550 300\n3 4 10 0 901 551 0\n")
    assert np.array_equal(rec.pressure, [300, 0])
    assert np.array_equal(rec.pen_down, [True, False])


def test_bytes_input_accepted():
    rec = parse_svc(MINIMAL.encode("ascii"), user_id="u7", session=3,
                    kind=SignatureKind.SKILLED_FORGERY, sample_index=5)
    assert rec.user_id == "u7"
    assert rec.key == "u7/forgery_3_5"


def test_header_five_body_four_errors_at_line_six():
    text = "5\n" + "".join(f"{i} {i} {i * 10} 1\n" for i in range(4))
    with pytest.raises(ParseError) as err:
        parse_svc(text)
    assert err.value.line == 6
    assert "declared 5" in str(err.value)


def test_more_samples_than_declared():
    text = "2\n0 0 0 1\n1 1 10 1\n2 2 20 1\n"
    with pytest.raises(ParseError) as err:
        parse_svc(text)
    assert err.value.line == 4


def test_non_numeric_token_reports_line():
    with pytest.raises(ParseError) as err:
        parse_svc("2\n0 0 0 1\n1 oops 10 1\n")
    assert err.value.line == 3
    assert "oops" in str(err.value)


@pytest.mark.parametrize("token", [str(2**63), str(-(2**63) - 1), "99999999999999999999"])
def test_token_outside_int64_reports_line(token):
    with pytest.raises(ParseError) as err:
        parse_svc(f"2\n0 0 0 1\n{token} 1 10 1\n")
    assert err.value.line == 3
    assert str(err.value) == f"line 3: token {token!r} outside the 64-bit integer range"


@pytest.mark.parametrize("token", ["1_0", "\u0663", "0x10", "1e3", "+-1", "1-", "--1", "+"])
def test_token_grammar_is_signed_ascii_digits(token):
    for data in (f"2\n0 0 0 1\n{token} 1 10 1\n", f"2\n0 0 0 1\n{token} 1 10 1\n".encode()):
        with pytest.raises(ParseError) as err:
            parse_svc(data)
        assert err.value.line == 3
        assert "non-numeric token" in str(err.value)


# characters that str.split or str.splitlines would treat as format syntax
CONTROL = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"]


@pytest.mark.parametrize("ch", [*CONTROL, "\x00", "\x7f"])
def test_control_characters_are_parse_errors(ch):
    cases = [
        (f"2\n0 0 0 1\n1{ch}1 10 1\n", 3),  # between tokens
        (f"2\n0 0 0 1{ch}1 1 10 1\n", 2),  # between samples
        (f"2\n0 0 0 1\n1 1 10 1\n{ch}\n", 4),  # a line of its own
        (f"2{ch}\n0 0 0 1\n1 1 10 1\n", 1),  # in the header
    ]
    for text, line in cases:
        for data in (text, text.encode()) if ch.isascii() else (text,):
            with pytest.raises(ParseError) as err:
                parse_svc(data)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: control character {ch!r}"


def test_lines_end_at_newline_with_one_optional_carriage_return():
    assert parse_svc(b"2\r\n0 0 0 1\r\n1 1 10 1\r").x.tolist() == [0, 1]
    assert parse_svc(b"2\n0\t0 \t0 1\t\n\r\n1 1 10 1\n").x.tolist() == [0, 1]
    for data, message in [
        (b"2\n0 0 0 1\n1 1 10 1\r\r\n", "line 3: control character '\\r'"),
        (b"2\n0 0 0 1\r1 1 10 1\n", "line 2: control character '\\r'"),
        (b"2\n0\x1f0 0 1\x1c1 1 10 1\n", "line 2: control character '\\x1f'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_svc(data)
        assert str(err.value) == message


def test_signed_and_zero_padded_tokens_accepted():
    rec = parse_svc(b"2\n+1 -0 007 1\n-12 +0 7 0\n")
    assert rec.x.tolist() == [1, -12]
    assert rec.y.tolist() == [0, 0]
    assert rec.timestamp.tolist() == [7, 7]


def test_int64_extremes_accepted():
    rec = parse_svc(f"2\n{-(2**63)} 0 0 1\n{2**63 - 1} 1 10 1\n")
    assert rec.x.tolist() == [-(2**63), 2**63 - 1]


def test_decreasing_timestamp_rejected():
    with pytest.raises(ParseError) as err:
        parse_svc("2\n0 0 50 1\n1 1 40 1\n")
    assert err.value.line == 3


def test_equal_timestamps_allowed():
    rec = parse_svc("2\n0 0 50 1\n1 1 50 1\n")
    assert np.array_equal(rec.timestamp, [50, 50])


def test_pressure_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_svc("2\n0 0 0 1 0 0 1024\n1 1 10 1 0 0 5\n")
    assert err.value.line == 2


def test_wrong_column_count():
    with pytest.raises(ParseError) as err:
        parse_svc("2\n0 0 0 1 7\n1 1 10 1 7\n")
    assert err.value.line == 2


def test_inconsistent_column_count():
    with pytest.raises(ParseError) as err:
        parse_svc("2\n0 0 0 1\n1 1 10 1 0 0 5\n")
    assert err.value.line == 3


def test_empty_input():
    with pytest.raises(ParseError) as err:
        parse_svc("")
    assert err.value.line == 1


def test_multi_token_header():
    with pytest.raises(ParseError) as err:
        parse_svc("2 2\n0 0 0 1\n1 1 10 1\n")
    assert err.value.line == 1


def test_header_below_minimum():
    with pytest.raises(ParseError):
        parse_svc("1\n0 0 0 1\n")


def test_blank_lines_skipped():
    rec = parse_svc("2\n\n0 0 0 1\n\n10 10 10 1\n\n")
    assert len(rec) == 2


def test_two_sample_record_emits_three_lines():
    rec = parse_svc(MINIMAL)
    assert emit_svc(rec).decode().count("\n") == 3


def test_four_column_record_emits_seven_columns_and_parses_back():
    rec = parse_svc(MINIMAL)
    raw = emit_svc(rec)
    assert [len(line.split()) for line in raw.decode().splitlines()] == [1, 7, 7]
    assert parse_svc(raw) == rec


def test_emit_parse_identity_on_120_samples():
    n = 120
    gen = np.random.default_rng(3)
    rec = SignatureRecord(
        x=gen.integers(0, 5000, n),
        y=gen.integers(0, 3000, n),
        pressure=gen.integers(0, 1024, n),
        timestamp=np.arange(n) * 10,
        pen_down=gen.integers(0, 2, n).astype(bool),
        user_id="u001",
        session=2,
        kind=SignatureKind.GENUINE,
        sample_index=7,
    )
    rec.validate()
    back = parse_svc(emit_svc(rec), user_id="u001", session=2,
                     kind=SignatureKind.GENUINE, sample_index=7)
    assert back == rec


def test_parse_emit_byte_identity():
    raw = emit_svc(parse_svc(MINIMAL))
    assert emit_svc(parse_svc(raw)) == raw


@st.composite
def records(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    ints = lambda lo, hi: st.lists(
        st.integers(lo, hi), min_size=n, max_size=n
    )
    if draw(st.booleans()):  # as read from a file without a pressure column
        pressure = [DEFAULT_PRESSURE] * n
    else:
        pressure = draw(ints(0, 1023))
    steps = draw(ints(0, 50))
    return SignatureRecord(
        x=np.array(draw(ints(-100000, 100000))),
        y=np.array(draw(ints(-100000, 100000))),
        pressure=np.array(pressure),
        timestamp=np.cumsum(steps),
        pen_down=np.array(draw(ints(0, 1)), dtype=bool),
        user_id=draw(st.text("abcdefgh0123", min_size=1, max_size=8)),
        session=draw(st.integers(1, 4)),
        kind=draw(st.sampled_from(list(SignatureKind))),
        sample_index=draw(st.integers(0, 30)),
    )


@settings(max_examples=80, deadline=None)
@given(records())
def test_round_trip_random_records(rec):
    rec.validate()
    back = parse_svc(
        emit_svc(rec),
        user_id=rec.user_id,
        session=rec.session,
        kind=rec.kind,
        sample_index=rec.sample_index,
    )
    assert back == rec


def _outcome(data):
    try:
        return parse_svc(data)
    except ParseError as exc:
        return str(exc), exc.line


def _line_loop_outcome(data):
    with mock.patch.object(svc, "_rows_vectorized", lambda _: None):
        return _outcome(data)


ODD_TOKENS = ["x", "1_0", "\u0663", "+7", "-0", "9223372036854775808", "-9223372036854775809",
              "99999999999999999999", str(2**63 - 1), str(-(2**63)), "5-", "--5", "1.5"]


def _on_body_row(mutate):
    """A row mutation, given a drawn body row. It does nothing once
    ``_missing_row`` has removed every body row."""
    @functools.wraps(mutate)
    def mutation(draw, rows):
        if len(rows) > 1:
            mutate(draw, rows, draw(st.integers(1, len(rows) - 1)))
    return mutation


@_on_body_row
def _odd_token(draw, rows, row):
    if rows[row]:
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(ODD_TOKENS))


@_on_body_row
def _decreasing_timestamp(draw, rows, row):
    if row >= 2 and len(rows[row]) > 2:
        rows[row][2] = "-1"


@_on_body_row
def _bad_pressure(draw, rows, row):
    if len(rows[row]) == 7:
        rows[row][6] = draw(st.sampled_from(["1024", "-1"]))


@_on_body_row
def _five_columns(draw, rows, row):
    rows[row] = rows[row][:4] + ["0"]


@_on_body_row
def _mixed_columns(draw, rows, row):
    rows[row] = rows[row][:4] if len(rows[row]) == 7 else rows[row][:4] + ["0", "0", "512"]


def _extra_row(draw, rows):
    rows.append(list(rows[-1]))


@_on_body_row
def _missing_row(draw, rows, row):
    del rows[row]  # it may take the last body row: "the file has 0" is worth a test


def _odd_header(draw, rows):
    count = rows[0][0] if rows[0] else "2"
    rows[0] = draw(st.sampled_from([[f"+{count}"], [f"00{count}"], [count, count], [], ["1"],
                                    ["x"], [str(2**64)]]))


def _control_character(draw, rows):
    row = rows[draw(st.integers(0, len(rows) - 1))]
    ch = draw(st.sampled_from(CONTROL))
    if row and draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] += ch  # glued to a token
    else:
        row.insert(draw(st.integers(0, len(row))), ch)  # a token of its own


MUTATIONS = [_odd_token, _decreasing_timestamp, _bad_pressure, _five_columns,
             _mixed_columns, _extra_row, _missing_row, _odd_header, _control_character]


@given(st.data())
def test_row_mutations_leave_a_file_without_body_rows_alone(data):
    """Two ``_missing_row`` draws empty a 2-sample file's body; a row
    mutation after them does nothing and asks for no body row."""
    rows = [["2"], ["1", "2", "0"], ["3", "4", "10"]]
    _missing_row(data.draw, rows)
    _missing_row(data.draw, rows)
    assert rows == [["2"]]
    for mutate in (_odd_token, _decreasing_timestamp, _bad_pressure, _five_columns,
                   _mixed_columns, _missing_row):
        mutate(data.draw, rows)
        assert rows == [["2"]], mutate.__name__


@st.composite
def svc_files(draw):
    """An emitted record's file after 0-3 mutations, in varied layout.

    Half the files are cut to the 4-column layout. Returns the input and
    whether the vectorized parse must accept it: only token mutations
    and ``\\r\\n`` line ends send a file to the loop.
    """
    rows = [line.split() for line in emit_svc(draw(records())).decode().splitlines()]
    if draw(st.booleans()):
        rows = rows[:1] + [row[:4] for row in rows[1:]]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    for mutate in mutations:
        mutate(draw, rows)
    lines = [draw(st.sampled_from([" ", "\t", " \t "])).join(tokens)
             + draw(st.sampled_from(["", "", " ", "\t "]))
             for tokens in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return (text.encode() if draw(st.booleans()) else text), not mutations and eol == "\n"


@settings(max_examples=400, deadline=None)
@given(svc_files())
def test_vectorized_parse_matches_line_loop(case):
    data, must_be_fast = case
    assert _outcome(data) == _line_loop_outcome(data)
    if must_be_fast:
        raw = data.encode() if isinstance(data, str) else data
        assert svc._rows_vectorized(raw) is not None


SEVEN = ["0 0 0 1 0 0 5", "1 1 10 1 0 0 5", "2 2 20 0 0 0 5"]


def _file(rows, header="3", eol="\n", final=True):
    return eol.join([header, *rows]) + (eol if final else "")


@pytest.mark.parametrize("data", [
    _file(SEVEN),
    _file(["0 0 0 1", "1 1 10 1", "2 2 20 0"]),
    _file(SEVEN, eol="\r\n"),
    _file(SEVEN, final=False),
    _file([row.replace(" ", "\t") for row in SEVEN]),
    _file([row + " \t " for row in SEVEN]),
    _file(["", *SEVEN[:2], "  \t", SEVEN[2], ""]),
    *[_file([SEVEN[0], f"{token} 1 10 1 0 0 5", SEVEN[2]]) for token in ODD_TOKENS],
    *[_file([SEVEN[0], f"0 {token} 10 1 0 0 5", SEVEN[2]])
      for token in ["10-5", "+", "-", "1+2", "+-1", "+ 1"]],
    _file([SEVEN[0], "1 1 10 1 0 0 -", SEVEN[2]]),
    _file([*SEVEN[:2], "2 2 20 0 0 0 -"]),
    _file([*SEVEN[:2], "2 2 20 0 0 0 -"], final=False),
    _file([SEVEN[0], "1 1 -1 1 0 0 5", SEVEN[2]]),
    _file([SEVEN[0], "1 1 10 1 0 0 1024", SEVEN[2]]),
    _file([SEVEN[0], "1 1 10 1 0", SEVEN[2]]),
    _file([SEVEN[0], "1 1 10 1", SEVEN[2]]),
    _file(["0 0 0 1", "1 1 10 1 0 0 5 1 1 10 1", "2 2 20 0"]),
    _file(["0 0 0 1 0 0 5", "1 1 10 1", "9 9 10 0 0 30 5 2 2 20"]),
    _file(["0 0 0 1 0", "1 1 10 1 0", "2 2 20 0 0"]),
    _file(SEVEN + SEVEN[2:]),
    _file(SEVEN[:2]),
    *[_file(SEVEN, header=header) for header in ["", "1", "0", "+3", "003", "3 3", "x", str(2**64)]],
    _file([SEVEN[0], "0" * 5000 + "1 1 10 1 0 0 5", SEVEN[2]]),
    _file([SEVEN[0], "-1" + "0" * 5000 + " 1 10 1 0 0 5", SEVEN[2]]),
    _file(SEVEN, header="0" * 5000 + "3"),
    _file(SEVEN[:1], header="1"),
    *[_file([SEVEN[0], SEVEN[1].replace(" ", ch, 1), SEVEN[2]]) for ch in CONTROL],
    *[_file([SEVEN[0] + ch + SEVEN[1], SEVEN[2]]) for ch in CONTROL],
    *[_file([*SEVEN, ch]) for ch in CONTROL],
    *[_file(SEVEN, header="3" + ch) for ch in CONTROL],
    _file(SEVEN, eol="\r\n", final=False) + "\r",
    _file(SEVEN, eol="\r\r\n"),
    "0\n",
    "3",
    "",
])
def test_vectorized_parse_matches_line_loop_on_edge_cases(data):
    assert _outcome(data) == _line_loop_outcome(data)
    assert _outcome(data.encode()) == _line_loop_outcome(data.encode())


def test_corpus_files_take_vectorized_path_with_owned_columns(tmp_path):
    generate(SynthConfig(n_users=2, seed=7), tmp_path)
    files = sorted(tmp_path.glob("*/*.svc"))
    assert files
    for path in files:
        data = path.read_bytes()
        assert svc._rows_vectorized(data) is not None, path
        rec = parse_svc(data)
        assert rec == _line_loop_outcome(data)
        for name in ("x", "y", "pressure", "timestamp"):
            column = getattr(rec, name)
            assert column.dtype == np.int64 and column.base is None, name
        assert rec.pen_down.dtype == bool and rec.pen_down.base is None


def _valid_record(**overrides):
    fields = dict(
        x=np.array([0, 1, 2]),
        y=np.array([0, 1, 2]),
        pressure=np.array([5, 5, 5]),
        timestamp=np.array([0, 10, 20]),
        pen_down=np.array([True, True, True]),
    )
    fields.update(overrides)
    return SignatureRecord(**fields)


class TestRecordInvariants:
    def test_valid(self):
        _valid_record().validate()

    def test_length_mismatch(self):
        with pytest.raises(InvariantError):
            _valid_record(y=np.array([0, 1])).validate()

    def test_too_short(self):
        with pytest.raises(InvariantError):
            _valid_record(
                x=np.array([0]), y=np.array([0]), pressure=np.array([5]),
                timestamp=np.array([0]), pen_down=np.array([True]),
            ).validate()

    def test_decreasing_timestamps(self):
        with pytest.raises(InvariantError):
            _valid_record(timestamp=np.array([0, 20, 10])).validate()

    def test_pressure_range(self):
        with pytest.raises(InvariantError):
            _valid_record(pressure=np.array([5, 2000, 5])).validate()

    def test_session_positive(self):
        rec = _valid_record()
        rec.session = 0
        with pytest.raises(InvariantError):
            rec.validate()

    def test_equality_is_array_aware(self):
        assert _valid_record() == _valid_record()
        assert _valid_record() != _valid_record(x=np.array([0, 1, 3]))
        assert _valid_record() != object()
