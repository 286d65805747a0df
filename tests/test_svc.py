import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert rec.pressure_free
    assert np.array_equal(rec.pressure, [DEFAULT_PRESSURE, DEFAULT_PRESSURE])
    assert np.array_equal(rec.x, [0, 10])
    assert np.array_equal(rec.timestamp, [0, 10])


def test_seven_column_file_reads_pressure():
    rec = parse_svc("2\n1 2 0 1 900 550 300\n3 4 10 0 901 551 0\n")
    assert not rec.pressure_free
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


def test_pressure_free_record_emits_four_columns():
    rec = parse_svc(MINIMAL)
    body = emit_svc(rec).decode().splitlines()[1]
    assert len(body.split()) == 4


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
    pressure_free = draw(st.booleans())
    if pressure_free:
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
        pressure_free=pressure_free,
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

    def test_pressure_free_requires_constant(self):
        rec = _valid_record()
        rec.pressure_free = True
        with pytest.raises(InvariantError):
            rec.validate()

    def test_session_positive(self):
        rec = _valid_record()
        rec.session = 0
        with pytest.raises(InvariantError):
            rec.validate()

    def test_equality_is_array_aware(self):
        assert _valid_record() == _valid_record()
        assert _valid_record() != _valid_record(x=np.array([0, 1, 3]))
        assert _valid_record() != object()
