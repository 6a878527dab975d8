"""Byte-identity gate for CLI reports.

Each case runs ``main`` in process on a seeded ``randgen`` matrix read from
stdin (so no temporary path leaks into the report) and pins the SHA-256 of
stdout and of stderr together with the exit code.  The digests were captured
before the CLI's identity layer was folded onto one residual dispatch, and
the ``pfaffian``, ``embed``, single-engine ``det`` and error cases before its
subcommands were given one output path.  The ``-q-`` cases read p/q
entries; they were captured before the Pfaffian elimination moved onto the
strict upper triangle.  All of them predate the CLI's move onto one record
rule, one sweep loop for every family (Jacobi included) and one matrix
reader, and that move left every digest unchanged.  The two
``verify-json-chain-*`` cases were captured before the splitting halves moved
into the minor table.  ``verify-json-jacobi-zero-diagonal``,
``select-jacobi-n60`` and the two ``verify-*-n1`` cases (no pair to check) were
captured before Jacobi pairs moved onto recursive principal-pivot eliminations,
and ``verify-json-q-n6`` and ``-n9`` (p/q entries) before the splitting sweeps
became one integer batch.  A passing sweep's report names only the order and the
residual counts, so these two share their digests with ``verify-json-n6`` and
``-n9``: they pin that every residual on p/q entries is exactly zero.  Which matrix
each structural ``verify`` case checks is pinned by its failing report under an
elimination fault (``TestFaultInjection.GOLDEN_FAILING`` in ``test_cli.py``).
Any change to a report's bytes, its record order or its witness labels shows
up here.  Error cases pin exit code 2, an empty stdout, the diagnostic prefix
and one stderr line under 200 bytes, not the message text.
"""

import hashlib
import io
import random
import sys

import pytest

from exactdet import Matrix, emit_matrix_text
from exactdet.cli import main
from exactdet.randgen import random_matrix, trial_stream


def _matrix_text(n: int) -> str:
    return emit_matrix_text(random_matrix(trial_stream(1000 + n, 0), n, n, 9))


def _skew_text(n: int) -> str:
    a = random_matrix(trial_stream(2000 + n, 0), n, n, 9)
    return emit_matrix_text(
        Matrix.from_rows(
            [[a.at(i, j) - a.at(j, i) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
    )


def _rational(seed: int, n: int) -> Matrix:
    """p/q entries: numerators in [-9, 9], denominators in [1, 9]."""
    num = random_matrix(trial_stream(seed, 0), n, n, 9)
    den = random_matrix(trial_stream(seed, 1), n, n, 4)
    return Matrix.from_rows(
        [[num.at(i, j) / (5 + den.at(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def _skew_q_text(n: int) -> str:
    a = _rational(4000 + n, n)
    return emit_matrix_text(
        Matrix.from_rows(
            [[a.at(i, j) - a.at(j, i) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
    )


def _rows_text(rows: list[list]) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in [[len(rows), len(rows)], *rows])


def _stopped_chains_text() -> str:
    """14x14 p/q entries whose leading and trailing 2x2 minors vanish: 49 of the 91 Jacobi
    pairs meet a zero principal pivot and read their minors from the table, and 71 of the
    240 splitting cores swap rows."""
    rng = random.Random(14)
    rows = [
        [f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(14)]
        for _ in range(14)
    ]
    rows[1][:2] = rows[0][:2]
    rows[-2][-2:] = rows[-1][-2:]
    return _rows_text(rows)


def _singular_cores_text() -> str:
    """12x12 integer entries with column 9 equal to column 3, so 86 of the 239 splitting
    cores have no pivot, and a zero leading 2x2 block, so 131 of them swap rows and 53 of
    the 66 Jacobi pairs read their minors from the table."""
    rng = random.Random(12)
    rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    for row in rows:
        row[8] = row[2]
    for row in rows[:2]:
        row[:2] = [0, 0]
    return _rows_text(rows)


def _zero_diagonal_text() -> str:
    """8x8 integer entries with a zero diagonal: every elimination of the Jacobi recursion
    meets a zero principal pivot first, so every pair reads its minors from the table."""
    rng = random.Random(8)
    return _rows_text([[rng.randint(-9, 9) * (i != j) for j in range(8)] for i in range(8)])


def _order_60_text() -> str:
    """60x60 integer entries in -9..9, drawn as the CI's order-60 smoke runs draw them."""
    rng = random.Random(60)
    return _rows_text([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)])


def _verify_cases() -> dict[str, tuple[list[str], str]]:
    cases: dict[str, tuple[list[str], str]] = {}
    for n in (1, 2, 3, 4, 5, 6, 7, 9):
        cases[f"verify-text-n{n}"] = (["verify", "-"], _matrix_text(n))
        cases[f"verify-json-n{n}"] = (["verify", "-", "--json"], _matrix_text(n))
    for n in (6, 9):
        cases[f"verify-json-q-n{n}"] = (
            ["verify", "-", "--json"], emit_matrix_text(_rational(5000 + n, n))
        )
    cases["verify-json-chain-stops"] = (["verify", "-", "--json"], _stopped_chains_text())
    cases["verify-json-chain-singular-cores"] = (["verify", "-", "--json"], _singular_cores_text())
    cases["verify-json-jacobi-zero-diagonal"] = (
        ["verify", "-", "--identity", "jacobi", "--json"], _zero_diagonal_text()
    )
    cases["select-jacobi-n60"] = (
        ["verify", "-", "--identity", "jacobi", "--pair", "23,41", "--json"], _order_60_text()
    )
    return cases


def _pfaffian_cases() -> dict[str, tuple[list[str], str]]:
    cases: dict[str, tuple[list[str], str]] = {}
    for check in ("none", "square", "recurrence"):
        argv = ["pfaffian", "-", "--check", check]
        cases[f"pfaffian-{check}-text-n6"] = (argv, _skew_text(6))
        cases[f"pfaffian-{check}-json-n6"] = ([*argv, "--json"], _skew_text(6))
        cases[f"pfaffian-{check}-q-n6"] = (argv, _skew_q_text(6))
    return cases


SELECTIONS = {
    "select-pluecker-r1": ["--identity", "pluecker", "--rows", "2", "--cols", "3,5"],
    "select-pluecker-r2": ["--identity", "pluecker", "--rows", "4,1", "--cols", "5,2,6,3"],
    "select-generalized-r1": ["--identity", "generalized", "--rows", "3", "--cols", "1,6"],
    "select-generalized-r2": ["--identity", "generalized", "--rows", "2,5", "--cols", "1,3,4,6"],
    "select-generalized-r3": ["--identity", "generalized", "--rows", "1,3,5", "--cols", "1,2,3,4,5,6"],
    "select-three-term": ["--identity", "three-term", "--rows", "2,4", "--cols", "1,3,5,6"],
    "select-jacobi": ["--identity", "jacobi", "--pair", "2,5"],
}

CASES: dict[str, tuple[list[str], str]] = {
    **_verify_cases(),
    **{
        name: (["verify", "-", "--json", *extra], _matrix_text(6))
        for name, extra in SELECTIONS.items()
    },
    "det-json-n3": (["det", "-", "--json"], _matrix_text(3)),
    "det-text-n7": (["det", "-"], _matrix_text(7)),
    **{
        f"det-{engine}-n6": (["det", "-", "--engine", engine], _matrix_text(6))
        for engine in ("laplace", "bareiss", "dodgson")
    },
    "fuzz-seed42": (["fuzz", "--seed", "42", "--trials", "30", "--size-max", "9"], ""),
    **_pfaffian_cases(),
    "embed-text-n5": (["embed", "-"], _matrix_text(5)),
    "embed-minors-n5": (["embed", "-", "--minors"], _matrix_text(5)),
    "embed-json-n5": (["embed", "-", "--format", "json"], _matrix_text(5)),
    "embed-minors-q-n4": (["embed", "-", "--minors"], emit_matrix_text(_rational(3004, 4))),
}

# an index or bound of 4300 digits (the count grammar's limit), and one of 21 digits
_LONG = "9" * 4300
_PAST_2_64 = "1" + "0" * 20

# inputs that must be refused with exit code 2 before any report is printed, in one
# short stderr line: a diagnostic quotes at most 20 characters of any index, bound, count
# or entry
ERRORS: dict[str, tuple[list[str], str]] = {
    "det-non-square": (["det", "-"], "2 3\n1 2 3\n4 5 6\n"),
    "verify-non-square": (["verify", "-"], "2 3\n1 2 3\n4 5 6\n"),
    "embed-non-square": (["embed", "-"], "2 3\n1 2 3\n4 5 6\n"),
    "pfaffian-non-square": (["pfaffian", "-"], "2 3\n1 2 3\n4 5 6\n"),
    "pfaffian-not-antisymmetric": (["pfaffian", "-"], "2 2\n0 1\n2 0\n"),
    "malformed-scalar": (["det", "-"], "1 1\n1.5\n"),
    "selection-without-identity": (["verify", "-", "--pair", "1,2"], _matrix_text(3)),
    "fuzz-zero-trials": (["fuzz", "--seed", "1", "--trials", "0"], ""),
    # a draw over more than 2^64 values is refused, not rejected forever
    "fuzz-entry-bound-past-2^64": (
        ["fuzz", "--seed", "1", "--trials", "1", "--entry-bound", _PAST_2_64], ""
    ),
    "fuzz-size-max-past-2^64": (
        ["fuzz", "--seed", "1", "--trials", "1", "--size-max", _PAST_2_64], ""
    ),
    "select-jacobi-long-index": (
        ["verify", "-", "--identity", "jacobi", "--pair", f"1,{_LONG}"], _matrix_text(3)
    ),
    "select-generalized-long-index": (
        ["verify", "-", "--identity", "generalized", "--rows", _LONG, "--cols", "1,2"],
        _matrix_text(3),
    ),
    "select-three-term-long-duplicate": (
        ["verify", "-", "--identity", "three-term"]
        + ["--rows", "1,2", "--cols", f"1,2,{_LONG},{_LONG}"],
        _matrix_text(6),
    ),
    # a diagnostic cuts a long count or entry too
    "text-long-row-count": (["det", "-"], f"{_LONG} 1\n1\n"),
    "text-long-column-count": (["det", "-"], f"1 {_LONG}\n1\n"),
    "json-long-row-count": (["det", "-"], f'{{"rows": {_LONG}, "cols": 1, "entries": "1"}}'),
    "pfaffian-long-diagonal-entry": (["pfaffian", "-"], f"2 2\n{_LONG} 1\n-1 0\n"),
    "pfaffian-long-off-diagonal-entry": (["pfaffian", "-"], f"2 2\n0 {_LONG}\n1 0\n"),
}

# case -> (exit code, SHA-256 of stdout)
GOLDEN = {
    "det-bareiss-n6": (0, "d4baf18512f2c4171b16bfbb32903b0e87435d14a0d5abecc4bdee7707dd6951"),
    "det-dodgson-n6": (0, "000c08cab40c98dc8bd1308b28cec47e4b837281f3ef02060c5f424607d30de7"),
    "det-json-n3": (0, "873970db9cf20b00666d1db278e5a86cd3494a7311a1550412ad741ac2970d3e"),
    "det-laplace-n6": (0, "abdb995e274ace31fcf75b9d3952be37aadee8151764583c06a47dee8a290dfe"),
    "det-text-n7": (0, "6e6c6273a8a44f096d8eb1085907a7677e8de253b054117bfe1d2387528b2da3"),
    "embed-json-n5": (0, "b71b65fea4598025c49cc7aaaf4f6f5e2dc3f8bf0f7f90b5ce456d5947f666f3"),
    "embed-minors-n5": (0, "15c5ec040ec49788d4e3879310526d3abdffdf6a04be729cd033eddf70e3bccd"),
    "embed-minors-q-n4": (0, "b859c2be6b0861d13db80a4a8712fd146b7668d6e6da98ea4aba552db93606d4"),
    "embed-text-n5": (0, "15c5ec040ec49788d4e3879310526d3abdffdf6a04be729cd033eddf70e3bccd"),
    "fuzz-seed42": (0, "aac17a1c65680d9ae4dc604c4d4e2a0df2bb9da18af4afc3cd1b8d10dd443be9"),
    "pfaffian-none-json-n6": (0, "92e7e1fd6cb5d1525f71634b313c2b82841b23baf9ffe3c67f4b4659a71dff21"),
    "pfaffian-none-q-n6": (0, "3307b4599b72e072c4ee5c5e2a1aea139acf2b423cf9c41afea68ab0cbc66175"),
    "pfaffian-none-text-n6": (0, "52f1a257ec58c23d90be8bad023ef1b8a2223f17a268d93fb846da322a9f7259"),
    "pfaffian-recurrence-json-n6": (0, "e704601af0fe9fddb6a2493e84d4ffe9d8187ddb18f551e11978759a997424b1"),
    "pfaffian-recurrence-q-n6": (0, "97fe58cc7376c1c8bcf3bafaaac01e4f2570804279a865ec4bdb25b1913a7a76"),
    "pfaffian-recurrence-text-n6": (0, "4ba1468c7449e3c98beec26f4a1f3823cc5dd8af9055277c8f0a1e5216254e98"),
    "pfaffian-square-json-n6": (0, "ff2043b33f54a35a8c7f83be5c65d56d2569566b9d522b5e96834941dceea278"),
    "pfaffian-square-q-n6": (0, "80bef74aceecb984fb9f0101ff1f1a230a5d810349167447018b8f6faac440eb"),
    "pfaffian-square-text-n6": (0, "bde2ec4fdae0072be4f193ff4081ffe65fc830df83e53bebffed253cb3c72384"),
    "select-generalized-r1": (0, "8da797c7a7abb3ae9fd626ae37f2d4c7324090e3eeec4aa3b84af4a7dabd5796"),
    "select-generalized-r2": (0, "fc2815080082a90a310c6c8438be010fadb095f2215e94024f34d9d9c942029d"),
    "select-generalized-r3": (0, "202f3c4c2cd93470fe6ed423d1e502010d9d1ec7cf6381566c3ddbfad20c1665"),
    "select-jacobi": (0, "5c96c4c1f9f85b5a8482945fd62185564ac61e074fcf385a5526858a11af30af"),
    "select-jacobi-n60": (0, "65a99b8ce788d56d9d2c3b146e1b08a333ae01b8be77f864f8eb7deea63de4c5"),
    "select-pluecker-r1": (0, "ff46bde08b3b2a2e13c8fd51c738bb8c34ba2633f327f4ab59b880e408204384"),
    "select-pluecker-r2": (0, "c55271841965e69dabf11ca0a7936ef715b917a26c4b88c474d701e442706b25"),
    "select-three-term": (0, "6d810fd1c21f63620bd778446d1954d3da1e69ebaac64c4dc49d59c8b0e8854d"),
    "verify-json-n1": (0, "8bacd5b38dc408e3d678b7a793bafc050a6f7c4a6a32e1c678d14a3322372e6a"),
    "verify-json-n2": (0, "e659beb46b5bcc9e9e962230028826fbfd157fbf999f80889dd89c0a37bcfb8d"),
    "verify-json-n3": (0, "69e515acd6796125fd1d7498b8db344acfc07940b09d41556e5d47c32d810d82"),
    "verify-json-n4": (0, "96868f40450a49f4f74da36ac8c347df251550e368cef839f5aa209cb022be19"),
    "verify-json-n5": (0, "4acc5a24f07951856db2591f21b0a45f762338b017301e25a513965d1c232284"),
    "verify-json-n6": (0, "a42bab2cf822d2324e3ac52d308ab8dedb6b854024724a7c08c97882f310f994"),
    "verify-json-n7": (0, "d1dc210a9e9d7503c8968df11e6d89ce88927116c502ee195a0d8e64f64c63cd"),
    "verify-json-n9": (0, "93ccb80119c61250753ae1c4d9b832ce411fd6306add515d6e4487fc8af8b4a0"),
    "verify-json-q-n6": (0, "a42bab2cf822d2324e3ac52d308ab8dedb6b854024724a7c08c97882f310f994"),
    "verify-json-q-n9": (0, "93ccb80119c61250753ae1c4d9b832ce411fd6306add515d6e4487fc8af8b4a0"),
    "verify-json-chain-stops": (0, "3210d97c31899c2f1def69f75302d9a3cb75af65506f3a140be7260f8a65d699"),
    "verify-json-chain-singular-cores": (0, "426c57d91ff74cf37c1c0d9c33d194c53e47f5253f17c46caf057904df46e9f3"),
    "verify-json-jacobi-zero-diagonal": (0, "e0c348ad6cee0d1719b9894f0a253330718b6ef862068abdba4c2464cefa11ed"),
    "verify-text-n1": (0, "5146f28181e66ec84759a81b4046a20fbf2fba3cd59dbdc4995860ded6a95e39"),
    "verify-text-n2": (0, "5880544bdee50c863b4c22d2e56986bb05c93c7694e10d3c37f2631c1541e680"),
    "verify-text-n3": (0, "b59a1c39cad1d55a5210cb988c3c9b346d595a9312f1c7103f92e067efff78f9"),
    "verify-text-n4": (0, "e23539856987a9161d8e2155e3ad99cd30ff1b1a17a246a1613cfacd115bca52"),
    "verify-text-n5": (0, "5c3bb5fdfb49d6f1e758fbbf65312847078b966e4b665d6afc4c618f36b8b453"),
    "verify-text-n6": (0, "7fe1d643ad4b60c18e5d9fe075b5b43f2564e3d983575c7957e359c4b34f9649"),
    "verify-text-n7": (0, "111167999fc3974baa6139f0970c9e2830b1754a978753d82b0ab9c23c53a681"),
    "verify-text-n9": (0, "d1898414e8b9285220bdd1051050a491d6f0df27955a140ec17b093d7c4302b9"),
}

# case -> SHA-256 of stderr, for the cases that write to it; every other case
# must leave stderr empty
GOLDEN_STDERR = {
    "embed-json-n5": "2b8fefc7e000ebcc6b462a0dc3279d79742118c1ce115cc42af693873c8b778d",
    "embed-minors-n5": "38c3ece1826ed498432eb0c483af4a2097e9a123488fa9ea5790fb05f07d86ee",
    "embed-minors-q-n4": "47247a4635a66cccf3bb4a268c938c5e0a3a33d810c76c5bce6aebbeb24eb878",
    "embed-text-n5": "2b8fefc7e000ebcc6b462a0dc3279d79742118c1ce115cc42af693873c8b778d",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str], stdin: str, capsys, monkeypatch) -> tuple[int, str, str]:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
    assert set(GOLDEN_STDERR) <= set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, capsys, monkeypatch):
    code, out, err = _run(*CASES[name], capsys, monkeypatch)
    assert (code, _sha256(out)) == GOLDEN[name]
    assert _sha256(err) == GOLDEN_STDERR.get(name, _sha256(""))


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_error_exits_2_with_empty_stdout(name, capsys, monkeypatch):
    code, out, err = _run(*ERRORS[name], capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("exactdet: error: ")
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
