"""Byte-identity gate for CLI reports.

Each case runs ``main`` in process on a seeded ``randgen`` matrix read from
stdin (so no temporary path leaks into the report) and pins the SHA-256 of
stdout together with the exit code.  The digests were captured before the
CLI's identity layer was folded onto one residual dispatch; any change to a
report's bytes, its record order or its witness labels shows up here.
"""

import hashlib
import io
import sys

import pytest

from exactdet import emit_matrix_text
from exactdet.cli import main
from exactdet.randgen import random_matrix, trial_stream


def _matrix_text(n: int) -> str:
    return emit_matrix_text(random_matrix(trial_stream(1000 + n, 0), n, n, 9))


def _verify_cases() -> dict[str, tuple[list[str], int | None]]:
    cases: dict[str, tuple[list[str], int | None]] = {}
    for n in (2, 3, 4, 5, 6, 7, 9):
        cases[f"verify-text-n{n}"] = (["verify", "-"], n)
        cases[f"verify-json-n{n}"] = (["verify", "-", "--json"], n)
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

CASES: dict[str, tuple[list[str], int | None]] = {
    **_verify_cases(),
    **{name: (["verify", "-", "--json", *extra], 6) for name, extra in SELECTIONS.items()},
    "det-json-n3": (["det", "-", "--json"], 3),
    "det-text-n7": (["det", "-"], 7),
    "fuzz-seed42": (["fuzz", "--seed", "42", "--trials", "30", "--size-max", "9"], None),
}

# case -> (exit code, SHA-256 of stdout)
GOLDEN = {
    "det-json-n3": (0, "873970db9cf20b00666d1db278e5a86cd3494a7311a1550412ad741ac2970d3e"),
    "det-text-n7": (0, "6e6c6273a8a44f096d8eb1085907a7677e8de253b054117bfe1d2387528b2da3"),
    "fuzz-seed42": (0, "aac17a1c65680d9ae4dc604c4d4e2a0df2bb9da18af4afc3cd1b8d10dd443be9"),
    "select-generalized-r1": (0, "8da797c7a7abb3ae9fd626ae37f2d4c7324090e3eeec4aa3b84af4a7dabd5796"),
    "select-generalized-r2": (0, "fc2815080082a90a310c6c8438be010fadb095f2215e94024f34d9d9c942029d"),
    "select-generalized-r3": (0, "202f3c4c2cd93470fe6ed423d1e502010d9d1ec7cf6381566c3ddbfad20c1665"),
    "select-jacobi": (0, "5c96c4c1f9f85b5a8482945fd62185564ac61e074fcf385a5526858a11af30af"),
    "select-pluecker-r1": (0, "ff46bde08b3b2a2e13c8fd51c738bb8c34ba2633f327f4ab59b880e408204384"),
    "select-pluecker-r2": (0, "c55271841965e69dabf11ca0a7936ef715b917a26c4b88c474d701e442706b25"),
    "select-three-term": (0, "6d810fd1c21f63620bd778446d1954d3da1e69ebaac64c4dc49d59c8b0e8854d"),
    "verify-json-n2": (0, "e659beb46b5bcc9e9e962230028826fbfd157fbf999f80889dd89c0a37bcfb8d"),
    "verify-json-n3": (0, "69e515acd6796125fd1d7498b8db344acfc07940b09d41556e5d47c32d810d82"),
    "verify-json-n4": (0, "96868f40450a49f4f74da36ac8c347df251550e368cef839f5aa209cb022be19"),
    "verify-json-n5": (0, "4acc5a24f07951856db2591f21b0a45f762338b017301e25a513965d1c232284"),
    "verify-json-n6": (0, "a42bab2cf822d2324e3ac52d308ab8dedb6b854024724a7c08c97882f310f994"),
    "verify-json-n7": (0, "d1dc210a9e9d7503c8968df11e6d89ce88927116c502ee195a0d8e64f64c63cd"),
    "verify-json-n9": (0, "93ccb80119c61250753ae1c4d9b832ce411fd6306add515d6e4487fc8af8b4a0"),
    "verify-text-n2": (0, "5880544bdee50c863b4c22d2e56986bb05c93c7694e10d3c37f2631c1541e680"),
    "verify-text-n3": (0, "b59a1c39cad1d55a5210cb988c3c9b346d595a9312f1c7103f92e067efff78f9"),
    "verify-text-n4": (0, "e23539856987a9161d8e2155e3ad99cd30ff1b1a17a246a1613cfacd115bca52"),
    "verify-text-n5": (0, "5c3bb5fdfb49d6f1e758fbbf65312847078b966e4b665d6afc4c618f36b8b453"),
    "verify-text-n6": (0, "7fe1d643ad4b60c18e5d9fe075b5b43f2564e3d983575c7957e359c4b34f9649"),
    "verify-text-n7": (0, "111167999fc3974baa6139f0970c9e2830b1754a978753d82b0ab9c23c53a681"),
    "verify-text-n9": (0, "d1898414e8b9285220bdd1051050a491d6f0df27955a140ec17b093d7c4302b9"),
}


def _run_case(name: str, capsys, monkeypatch) -> tuple[int, str]:
    argv, n = CASES[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(_matrix_text(n) if n else ""))
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, capsys, monkeypatch):
    assert _run_case(name, capsys, monkeypatch) == GOLDEN[name]
