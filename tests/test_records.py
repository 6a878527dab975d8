"""Value semantics of the five record types: construction, validation, equality,
hashing, repr, immutability, pattern matching, pickling and copying."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from exactdet import (
    AntisymmetricMatrix,
    DodgsonResult,
    IdentityReport,
    Matrix,
    SplitTerm,
)

F = Fraction
WITNESS = (((1, 2), F(1, 2)),)

# (class, positional fields, keyword fields, a record differing in one field, exact repr)
RECORDS = {
    "Matrix": (
        Matrix,
        (2, 2, ((F(1), F(1, 2)), (F(3), F(4)))),
        {"rows": 2, "cols": 2, "entries": ((F(1), F(1, 2)), (F(3), F(4)))},
        Matrix(2, 2, ((F(1), F(1, 2)), (F(3), F(5)))),
        "Matrix(rows=2, cols=2, entries=((Fraction(1, 1), Fraction(1, 2)), "
        "(Fraction(3, 1), Fraction(4, 1))))",
    ),
    "DodgsonResult": (
        DodgsonResult,
        (F(-3), True, 1),
        {"value": F(-3), "fallback_used": True, "fallback_depth": 1},
        DodgsonResult(F(-3), True, 2),
        "DodgsonResult(value=Fraction(-3, 1), fallback_used=True, fallback_depth=1)",
    ),
    "IdentityReport": (
        IdentityReport,
        ("jacobi", "2x2", 2, 1, WITNESS),
        {"identity": "jacobi", "operands": "2x2", "residuals_checked": 2,
         "nonzero_residuals": 1, "witnesses": WITNESS},
        IdentityReport("jacobi", "2x2", 3, 1, WITNESS),
        "IdentityReport(identity='jacobi', operands='2x2', residuals_checked=2, "
        "nonzero_residuals=1, witnesses=(((1, 2), Fraction(1, 2)),))",
    ),
    "AntisymmetricMatrix": (
        AntisymmetricMatrix,
        (2, (F(5),)),
        {"order": 2, "upper": (F(5),)},
        AntisymmetricMatrix(2, (F(-5),)),
        "AntisymmetricMatrix(order=2, upper=(Fraction(5, 1),))",
    ),
    "SplitTerm": (
        SplitTerm,
        ((1,), (2,), -1),
        {"left": (1,), "right": (2,), "sign": -1},
        SplitTerm((1,), (2,), 1),
        "SplitTerm(left=(1,), right=(2,), sign=-1)",
    ),
}

each_record = pytest.mark.parametrize("name", list(RECORDS))


def _sample(name):
    cls, args, _, _, _ = RECORDS[name]
    return cls(*args)


@each_record
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, _, _ = RECORDS[name]
    record = cls(**kwargs)
    assert record == cls(*args)
    assert tuple(getattr(record, field) for field in kwargs) == args


@each_record
def test_equality_and_hash_over_the_fields(name):
    _, args, _, other, _ = RECORDS[name]
    record = _sample(name)
    twin = _sample(name)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(args)
    assert record != other
    assert record != args  # a record never equals its bare field tuple
    assert len({record, twin, other}) == 2


@each_record
def test_exact_repr(name):
    assert repr(_sample(name)) == RECORDS[name][4]


@each_record
def test_assignment_and_deletion_raise(name):
    record = _sample(name)
    field = next(iter(RECORDS[name][2]))
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert getattr(record, field) == before


@each_record
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    record = _sample(name)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and back == record


@each_record
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_copy_round_trip(name, copier):
    record = _sample(name)
    back = copier(record)
    assert type(back) is type(record) and back == record
    assert repr(back) == repr(record)


@each_record
def test_positional_pattern_matching(name):
    cls, args, _, _, _ = RECORDS[name]
    match _sample(name):
        case cls(first):
            assert first == args[0]
        case _:
            pytest.fail("no match")


def test_matrix_str():
    assert str(_sample("Matrix")) == "Matrix(2x2: 1 1/2; 3 4)"


def test_identity_report_witnesses_default_empty():
    report = IdentityReport("jacobi", "2x2", 2, 0)
    assert report.witnesses == () and report.passed
    assert report == IdentityReport("jacobi", "2x2", 2, 0, ())
    assert not _sample("IdentityReport").passed


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Matrix(-1, 0, ()), "negative matrix dimension"),
        (lambda: Matrix(1, 0, ()), "row count does not match entries"),
        (lambda: Matrix(2, 1, ((F(1),), ())), "ragged matrix rows"),
        (lambda: DodgsonResult(F(1), False, 2),
         "fallback_depth must be 0 when no fallback occurred"),
        (lambda: IdentityReport("jacobi", "2x2", 2, 1),
         "witness list must match the nonzero-residual count"),
        (lambda: IdentityReport("jacobi", "2x2", 2, 0, witnesses=WITNESS),
         "witness list must match the nonzero-residual count"),
        (lambda: AntisymmetricMatrix(3, (F(1), F(2), F(3))),
         "antisymmetric order must be even and >= 0, got 3"),
        (lambda: AntisymmetricMatrix(-2, ()),
         "antisymmetric order must be even and >= 0, got -2"),
        (lambda: AntisymmetricMatrix(4, (F(1),)),
         "order 4 needs 6 strict-upper entries, got 1"),
    ],
)
def test_validation(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message



def test_cli_import_loads_no_dataclass_machinery():
    """The records are plain classes, so a fresh process importing the CLI pulls in
    neither ``dataclasses`` nor ``inspect`` (pytest itself imports both, hence the
    subprocess).  Modules loaded before the import, such as by site hooks, are ignored."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys; before = set(sys.modules); import exactdet.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
