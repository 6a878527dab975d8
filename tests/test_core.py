import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactdet import (
    Matrix,
    augment_columns,
    format_scalar,
    index_set,
    parse_scalar,
    scalar,
    submatrix_delete,
)
from exactdet.core import _quote
from exactdet.randgen import SplitMix64

GOLDEN = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


class TestParseScalar:
    def test_zero_normal_form(self):
        assert parse_scalar("0") == Fraction(0, 1)
        assert parse_scalar("0").denominator == 1

    def test_gcd_reduction(self):
        assert parse_scalar("6/4") == Fraction(3, 2)

    def test_sign_normalization(self):
        value = parse_scalar("-3/-6")
        assert value == Fraction(1, 2)
        assert value.denominator == 2 and value.numerator == 1

    def test_negative_denominator(self):
        assert parse_scalar("3/-6") == Fraction(-1, 2)

    @pytest.mark.parametrize(
        "bad", ["", "1.5", "1/", "/2", "1 /2", "a", "1e3", "--3", "1/2/3", " 1"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_scalar("3/0")

    def test_format_round_trip(self):
        for text in ["0", "-7", "3/2", "-11/13", "123456789123456789"]:
            assert format_scalar(parse_scalar(text)) == text

    @pytest.mark.parametrize(
        "value, quoted",
        [
            ("x" * 20, repr("x" * 20)),
            ("x" * 21, repr("x" * 20) + "..."),
            ("a\tb", repr("a\tb")),
            ([1, 2], "[1, 2]"),
            (list(range(10)), "[0, 1, 2, 3, 4, 5, 6..."),
        ],
    )
    def test_diagnostics_quote_at_most_20_characters(self, value, quoted):
        assert _quote(value) == quoted

    @pytest.mark.parametrize("digits", [1, 20, 21, 77, 78, 79, 4299, 4300])
    def test_int_quotes_are_cut_reprs(self, digits):
        # from 257 bits an int is quoted from its leading digits: the same characters
        for value in (10 ** (digits - 1), 10**digits - 1, 2**256 - 1, 2**256):
            for signed in (value, -value):
                shown = repr(signed)
                assert _quote(signed) == shown[:20] + ("..." if len(shown) > 20 else "")

    def test_scalar_rejects_floats(self):
        with pytest.raises(ValueError):
            scalar(1.5)


@given(st.fractions(), st.fractions(), st.fractions())
def test_scalar_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    # canonical form: positive denominator, reduced
    s = a * b + c
    assert s.denominator > 0
    from math import gcd

    assert gcd(abs(s.numerator), s.denominator) == 1


class TestMatrix:
    def test_one_based_access(self):
        assert GOLDEN.at(1, 1) == 1
        assert GOLDEN.at(3, 3) == 10
        with pytest.raises(IndexError):
            GOLDEN.at(0, 1)
        with pytest.raises(IndexError):
            GOLDEN.at(1, 4)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_empty_shapes(self):
        assert Matrix.from_rows([]).rows == 0
        two_by_zero = Matrix.from_rows([[], []], cols=0)
        assert (two_by_zero.rows, two_by_zero.cols) == (2, 0)

    def test_transpose_and_columns(self):
        assert GOLDEN.transpose().column_values(1) == GOLDEN.row_values(1)

    def test_transpose_degenerate_shapes(self):
        wide = Matrix.from_rows([[], []], cols=0)  # 2x0
        tall = wide.transpose()
        assert (tall.rows, tall.cols) == (0, 2)
        assert tall.transpose() == wide

    def test_structural_equality(self):
        assert GOLDEN == Matrix.from_rows([["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]])


class TestIndexSet:
    def test_sorts_and_checks(self):
        assert index_set({3, 1, 2}) == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            index_set([1, 1])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_set([0, 2])


class TestSubmatrixDelete:
    def test_identity_block(self):
        assert submatrix_delete(Matrix.identity(3), {2}, {2}) == Matrix.identity(2)

    def test_single_survivor(self):
        assert submatrix_delete(GOLDEN, {1, 2}, {1, 2}) == Matrix.from_rows([[10]])

    def test_delete_nothing(self):
        assert submatrix_delete(GOLDEN, (), ()) == GOLDEN

    def test_delete_everything(self):
        empty = submatrix_delete(GOLDEN, {1, 2, 3}, {1, 2, 3})
        assert (empty.rows, empty.cols) == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            submatrix_delete(GOLDEN, {4}, set())

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_dimension_law(self, rows, cols, data):
        m = Matrix.from_rows(
            [
                [data.draw(st.integers(-5, 5)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        drop_rows = data.draw(st.sets(st.integers(1, rows)))
        drop_cols = data.draw(st.sets(st.integers(1, cols)))
        out = submatrix_delete(m, drop_rows, drop_cols)
        assert out.rows == rows - len(drop_rows)
        assert out.cols == cols - len(drop_cols)

    @given(st.data())
    def test_disjoint_deletions_commute(self, data):
        n = data.draw(st.integers(2, 5))
        m = Matrix.from_rows(
            [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
        )
        r1 = data.draw(st.integers(1, n))
        r2 = data.draw(st.integers(1, n).filter(lambda x: x != r1))
        # after deleting r1, a later row r2 shifts down by one when r2 > r1
        shifted = r2 - 1 if r2 > r1 else r2
        stepwise = submatrix_delete(submatrix_delete(m, {r1}, ()), {shifted}, ())
        joint = submatrix_delete(m, {r1, r2}, ())
        assert stepwise == joint


class TestAugmentColumns:
    def test_append_to_empty(self):
        base = Matrix.from_rows([[], []], cols=0)
        assert augment_columns(base, [(1, 0), (0, 1)]) == Matrix.identity(2)

    def test_direct_construction(self):
        assert augment_columns(Matrix.from_rows([[1], [2]]), [(3, 4)]) == Matrix.from_rows(
            [[1, 3], [2, 4]]
        )

    def test_append_nothing(self):
        m = Matrix.from_rows([[1], [2], [3]])
        assert augment_columns(m, []) == m

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            augment_columns(Matrix.identity(2), [(1, 2, 3)])

    def test_column_multiset_preserved(self):
        cols = (1, 3)
        trimmed = submatrix_delete(GOLDEN, (), cols)
        rebuilt = augment_columns(trimmed, [GOLDEN.column_values(c) for c in cols])
        original = sorted(GOLDEN.column_values(j) for j in range(1, GOLDEN.cols + 1))
        permuted = sorted(rebuilt.column_values(j) for j in range(1, rebuilt.cols + 1))
        assert original == permuted


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: scalar(True), ValueError, "not a scalar: True", id="bool-scalar"),
        pytest.param(lambda: GOLDEN.row_values(0), IndexError, "row 0 out of range", id="row-0"),
        pytest.param(
            lambda: GOLDEN.column_values(4),
            IndexError,
            "column 4 out of range",
            id="column-past-end",
        ),
        pytest.param(
            lambda: submatrix_delete(GOLDEN, (), (4,)),
            IndexError,
            "column 4 out of range",
            id="delete-column-past-end",
        ),
    ],
)
def test_validation_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize(
    "call, quoted",
    [
        pytest.param(
            lambda: index_set((10**5000, 10**5000)), "1" + "0" * 19 + "...", id="duplicate-index"
        ),
        pytest.param(
            lambda: index_set((-(10**5000),)), "-1" + "0" * 18 + "...", id="negative-index"
        ),
        pytest.param(
            lambda: SplitMix64(1).next_int(0, 10**5000), "1" + "0" * 19 + "...", id="draw-range"
        ),
    ],
)
def test_ints_past_the_string_limit_get_the_programs_diagnostic(call, quoted):
    # repr refuses an int of more than 4300 digits; the quote reads its leading digits
    with pytest.raises(ValueError) as caught:
        call()
    message = str(caught.value)
    assert len(message) < 200
    assert quoted in message
    assert "set_int_max_str_digits" not in message
