import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sadmm import DataError, ParseError, parse_libsvm


def _libsvm_text(dense, labels):
    """LIBSVM lines of a dense matrix: the label, then ``j:repr(v)`` per nonzero."""
    return "".join(
        f"{label:+g} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0) + "\n"
        for row, label in zip(dense.tolist(), labels)
    )


def test_parse_basic_line(tmp_path):
    path = tmp_path / "tiny.svm"
    path.write_text("+1 3:0.5\n")
    data = parse_libsvm(path, n_features=4)
    assert data.n == 1 and data.d == 4
    assert np.array_equal(np.asarray(data.features.todense())[0], [0, 0, 0.5, 0])
    assert data.labels[0] == 1.0


def test_parse_infers_dimension_from_max_index(tmp_path):
    path = tmp_path / "a.svm"
    path.write_text("-1 1:1 5:2\n+1 2:3\n")
    data = parse_libsvm(path)
    assert data.d == 5 and data.n == 2


def test_label_conventions(tmp_path):
    one_two = tmp_path / "mushroom_style.svm"
    one_two.write_text("2 1:1\n1 2:1\n")
    data = parse_libsvm(one_two)
    assert list(data.labels) == [1.0, -1.0]

    zero_one = tmp_path / "zero_one.svm"
    zero_one.write_text("0 1:1\n1 2:1\n")
    data = parse_libsvm(zero_one)
    assert list(data.labels) == [-1.0, 1.0]

    plus_minus = tmp_path / "pm.svm"
    plus_minus.write_text("-1 1:1\n+1 2:1\n")
    data = parse_libsvm(plus_minus)
    assert list(data.labels) == [-1.0, 1.0]

    bad = tmp_path / "bad.svm"
    bad.write_text("3 1:1\n7 2:1\n")
    with pytest.raises(DataError):
        parse_libsvm(bad)


def test_blank_and_comment_lines_skipped(tmp_path):
    path = tmp_path / "c.svm"
    path.write_text("# header comment\n\n+1 1:1\n\n# trailing\n-1 2:1\n")
    data = parse_libsvm(path)
    assert data.n == 2


def test_parse_errors_carry_line_numbers(tmp_path):
    malformed = tmp_path / "m.svm"
    malformed.write_text("+1 1:1\n+1 2-3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm(malformed)

    non_numeric = tmp_path / "n.svm"
    non_numeric.write_text("+1 1:x\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm(non_numeric)

    decreasing = tmp_path / "d.svm"
    decreasing.write_text("+1 1:1\n+1 3:1 2:1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm(decreasing)

    zero_index = tmp_path / "z.svm"
    zero_index.write_text("+1 0:1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm(zero_index)


def test_empty_file_is_a_data_error(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("")
    with pytest.raises(DataError, match="no samples"):
        parse_libsvm(path)
    only_comments = tmp_path / "comments.svm"
    only_comments.write_text("# nothing here\n")
    with pytest.raises(DataError, match="no samples"):
        parse_libsvm(only_comments)


def test_n_features_override_must_cover_max_index(tmp_path):
    path = tmp_path / "o.svm"
    path.write_text("+1 4:1\n")
    with pytest.raises(DataError):
        parse_libsvm(path, n_features=3)
    data = parse_libsvm(path, n_features=10)
    assert data.d == 10


def test_roundtrip_through_writer(tmp_path):
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((6, 5))
    dense[rng.random((6, 5)) < 0.5] = 0.0
    dense[0, 4] = 1.23456789  # keep column 5 populated
    labels = np.where(rng.random(6) > 0.5, 1.0, -1.0)
    path = tmp_path / "rt.svm"
    path.write_text(_libsvm_text(dense, labels))
    parsed = parse_libsvm(path, n_features=5)
    assert parsed.n == 6 and parsed.d == 5
    assert np.array_equal(parsed.labels, labels)
    assert np.array_equal(np.asarray(parsed.features.todense()), dense)


# lines of LIBSVM text from pieces that make it and its faults
_LABELS = [b"1", b"-1", b"+1", b"0", b"2", b"0.5", b"nan", b"x", b"#", b""]
_PAIRS = [
    b" 1:1", b" 2:-0.5", b" 3:1e-400", b" 4:inf", b" 5:nan", b" 99999999999999999999:1",
    b" 2", b" 0:1", b" 1:\xff", b" 2:\x00", b" 3:1_0", b" \xc3\xa9", b"\t", b"\r",
]
_LINES = st.tuples(st.sampled_from(_LABELS), st.lists(st.sampled_from(_PAIRS), max_size=4))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64),
                 st.lists(_LINES.map(lambda t: t[0] + b"".join(t[1])), max_size=6).map(b"\n".join)),
       st.one_of(st.none(), st.integers(-2, 40)))
def test_parser_raises_only_parse_or_data_errors(tmp_path, raw, n_features):
    path = tmp_path / "any.svm"
    path.write_bytes(raw)
    try:
        data = parse_libsvm(path, n_features=n_features)
    except (ParseError, DataError):
        return
    assert data.features.shape == (data.n, data.d)
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.just(0.0), st.floats(allow_nan=False)), min_size=4, max_size=4),
             min_size=n, max_size=n),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
)))
def test_writer_then_parser_round_trips(tmp_path, rows_labels):
    rows, labels = rows_labels
    dense = np.array(rows)
    path = tmp_path / "rt.svm"
    path.write_text(_libsvm_text(dense, labels))
    parsed = parse_libsvm(path, n_features=dense.shape[1])
    assert (parsed.n, parsed.d) == dense.shape
    assert np.array_equal(parsed.labels, labels)
    assert np.array_equal(parsed.features.toarray(), dense)


def test_non_utf8_byte_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "bytes.svm"
    path.write_bytes(b"+1 1:0.5\n# comment\n-1 2:\xff1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_libsvm(path)
