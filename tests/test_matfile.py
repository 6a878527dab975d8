import json

import pytest

import exactdet.matfile as matfile
from exactdet import (
    Matrix,
    emit_matrix_json,
    emit_matrix_text,
    parse_matrix,
    parse_matrix_json,
    parse_matrix_text,
)
from exactdet.core import MAX_SCALAR_DIGITS
from exactdet.randgen import trial_stream

SAMPLE = Matrix.from_rows([["1/2", "-3"], ["0", "7/5"]])
LONGEST = "9" * MAX_SCALAR_DIGITS
TOO_LONG = LONGEST + "9"
ONE_ENTRY_JSON = '{"rows": 1, "cols": 1, "entries": [[%s]]}'


class TestTextFormat:
    def test_parse(self):
        text = "2 3\n1 2 3\n4/2 5 -6\n"
        m = parse_matrix_text(text)
        assert m == Matrix.from_rows([[1, 2, 3], [2, 5, -6]])

    def test_emit_canonical(self):
        assert emit_matrix_text(SAMPLE) == "2 2\n1/2 -3\n0 7/5\n"

    def test_round_trip(self):
        assert parse_matrix_text(emit_matrix_text(SAMPLE)) == SAMPLE

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "2\n1 2\n",
            "2 2\n1 2\n",
            "2 2\n1 2\n3 4\n5 6\n",
            "2 2\n1 2 3\n4 5 6\n",
            "1 1\n1.5\n",
            "1 1\n1/0\n",
            "0 2\n",
            "a b\n1 2\n",
            "1000000000 1\n1\n",
            "１ 1\n5\n",  # full-width digit one
            "1_0 1\n" + "1\n" * 10,  # int() would read 10 rows
            pytest.param(f"1 1\n{TOO_LONG}\n", id="4301-digit-token"),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_matrix_text(bad)


class TestJsonFormat:
    def test_round_trip(self):
        assert parse_matrix_json(emit_matrix_json(SAMPLE)) == SAMPLE

    def test_accepts_integers(self):
        m = parse_matrix_json('{"rows": 1, "cols": 2, "entries": [[1, "2/3"]]}')
        assert m == Matrix.from_rows([["1", "2/3"]])

    def test_stable_key_order(self):
        payload = json.loads(emit_matrix_json(SAMPLE))
        assert list(payload) == ["rows", "cols", "entries"]

    @pytest.mark.parametrize(
        "bad",
        [
            "{",
            "[]",
            '{"rows": 1, "cols": 1}',
            '{"rows": 2, "cols": 1, "entries": [["1"]]}',
            '{"rows": 1, "cols": 2, "entries": [["1"]]}',
            '{"rows": 1, "cols": 1, "entries": [[1.5]]}',
            '{"rows": 0, "cols": 1, "entries": []}',
            '{"rows": true, "cols": 1, "entries": [["1"]]}',
            '{"rows": 1, "cols": 1, "entries": "1"}',
            '{"rows": 1, "cols": 1, "entries": ["1"]}',
            '{"rows": 1, "cols": 1, "entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
            pytest.param(ONE_ENTRY_JSON % f'"{TOO_LONG}"', id="4301-digit-string"),
            pytest.param(ONE_ENTRY_JSON % TOO_LONG, id="4301-digit-integer"),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_matrix_json(bad)


class TestScalarDigitLimit:
    @pytest.mark.parametrize(
        "text",
        [
            f"1 1\n{TOO_LONG}\n",
            f"1 1\n-1/{TOO_LONG}\n",
            ONE_ENTRY_JSON % f'"{TOO_LONG}"',
            ONE_ENTRY_JSON % f"-{TOO_LONG}",
            '{"rows": %s, "cols": 1, "entries": [["1"]]}' % TOO_LONG,
        ],
        ids=["text-numerator", "text-denominator", "json-string", "json-integer", "json-rows"],
    )
    def test_own_diagnostic(self, text):
        with pytest.raises(ValueError, match=f"more than {MAX_SCALAR_DIGITS} digits"):
            parse_matrix(text)

    @pytest.mark.parametrize("header", [f"{TOO_LONG} 1", f"1 {TOO_LONG}"], ids=["rows", "cols"])
    def test_header_count_past_the_limit_is_malformed(self, header):
        # the interpreter's own integer-string diagnostic must not leak through
        with pytest.raises(ValueError, match="^header must be 'rows cols'") as info:
            parse_matrix_text(f"{header}\n1\n")
        assert "set_int_max_str_digits" not in str(info.value)

    def test_longest_header_count_reaches_the_shape_check(self):
        # which quotes the count cut to its first 20 characters
        message = rf"^expected {LONGEST[:20]}\.\.\. matrix rows, found 1$"
        with pytest.raises(ValueError, match=message):
            parse_matrix_text(f"{LONGEST} 1\n1\n")

    def test_longest_scalars_parse(self):
        expected = Matrix.from_rows([[-int(LONGEST), f"1/{LONGEST}"]])
        assert parse_matrix(f"1 2\n-{LONGEST} -1/-{LONGEST}\n") == expected
        json_text = '{"rows": 1, "cols": 2, "entries": [[-%s, "1/%s"]]}' % (LONGEST, LONGEST)
        assert parse_matrix(json_text) == expected


class TestDistinctTokens:
    """One reader call converts each distinct string token once and shares the value."""

    @staticmethod
    def _counted(monkeypatch, name):
        calls = []
        good = getattr(matfile, name)

        def counted(value):
            calls.append(value)
            return good(value)

        monkeypatch.setattr(matfile, name, counted)
        return calls

    def test_text_tokens(self, monkeypatch):
        calls = self._counted(monkeypatch, "parse_scalar")
        m = parse_matrix_text("3 3\n1 2 1/2\n2 1 1/2\n1/2 -1 1\n")
        assert calls == ["1", "2", "1/2", "-1"]
        assert m == Matrix.from_rows([[1, 2, "1/2"], [2, 1, "1/2"], ["1/2", -1, 1]])
        assert m.entries[0][2] is m.entries[1][2] is m.entries[2][0]

    def test_json_strings_only(self, monkeypatch):
        calls = self._counted(monkeypatch, "scalar")
        m = parse_matrix_json('{"rows": 2, "cols": 2, "entries": [["3", 3], ["3", 3]]}')
        assert calls == ["3", 3, 3]
        assert m == Matrix.from_rows([[3, 3], [3, 3]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n1 x\ny x\n", "malformed scalar 'x'"),
            ("2 2\nx 1/0\n1/0 x\n", "malformed scalar 'x'"),
            ("2 2\n1 1/0\n1/0 x\n", "zero denominator in scalar '1/0'"),
            ('{"rows": 1, "cols": 2, "entries": [[1, true]]}', "not a scalar: True"),
            ('{"rows": 1, "cols": 3, "entries": [["1", 1, true]]}', "not a scalar: True"),
        ],
    )
    def test_first_bad_token_raises(self, text, message):
        with pytest.raises(ValueError) as caught:
            parse_matrix(text)
        assert str(caught.value) == message


class TestSniffing:
    def test_text_detected(self):
        assert parse_matrix("1 1\n5\n") == Matrix.from_rows([[5]])

    def test_json_detected(self):
        assert parse_matrix('  {"rows": 1, "cols": 1, "entries": [["5"]]}') == Matrix.from_rows([[5]])


def test_round_trip_corpus():
    """Structural round trip across both formats, seeded corpus of 24 files
    covering 1x1, rationals, negatives, and rectangular shapes."""
    gen = trial_stream(60, 0)
    corpus = [Matrix.from_rows([[5]]), Matrix.from_rows([["-2/3"]]), SAMPLE]
    while len(corpus) < 24:
        rows = gen.next_int(1, 5)
        cols = gen.next_int(1, 5)
        entries = [
            [
                # mix integers with proper fractions, negatives included
                f"{gen.next_int(-9, 9)}/{gen.next_int(1, 9)}"
                if gen.next_int(0, 1)
                else str(gen.next_int(-9, 9))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        corpus.append(Matrix.from_rows(entries))
    for m in corpus:
        assert parse_matrix(emit_matrix_text(m)) == m
        assert parse_matrix(emit_matrix_json(m)) == m


@pytest.mark.parametrize("emit", [emit_matrix_text, emit_matrix_json])
def test_emit_rejects_empty_matrix(emit):
    with pytest.raises(ValueError, match="matrix files require positive dimensions"):
        emit(Matrix(0, 0, ()))
