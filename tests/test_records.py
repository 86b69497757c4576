"""The value contract every exported record type keeps: immutable, equal
and hashed by its fields, a readable repr, positional construction, and
round trips through copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from spotdisk import cancelpairs, pushcalc, qicert, torustree, whitehead, words
from spotdisk._record import Record
from spotdisk.cancelpairs import ConjugateReducedWitness
from spotdisk.pushcalc import (
    ArcLabel,
    BoundTrace,
    DiskLabel,
    PushLabel,
    Side,
    TraceStep,
)
from spotdisk.qicert import CertificateRow, GridSummary
from spotdisk.torustree import TorusDiskBall
from spotdisk.whitehead import SimpleLengthWitness, WhiteheadGraph
from spotdisk.words import ReducedWord

W = ReducedWord(2, (1, 2))
W_REPR = "ReducedWord(rank=2, letters=(1, 2))"
E = ReducedWord(2, ())
STEP = TraceStep("pointcommute", "swap", 2)
STEP_REPR = "TraceStep(rule='pointcommute', note='swap', increment=2)"
HALF = Fraction(1, 2)

# (type, field names, field values, repr text)
CASES = [
    (ReducedWord, ("rank", "letters"), (2, (1, 2)), W_REPR),
    (
        WhiteheadGraph,
        ("rank", "edges"),
        (2, (((1, -2), 1),)),
        "WhiteheadGraph(rank=2, edges=(((1, -2), 1),))",
    ),
    (
        SimpleLengthWitness,
        ("value", "pieces"),
        (1, (W,)),
        f"SimpleLengthWitness(value=1, pieces=({W_REPR},))",
    ),
    (
        ConjugateReducedWitness,
        ("value", "decomposition"),
        (1, ((W, E),)),
        f"ConjugateReducedWitness(value=1, decomposition=(({W_REPR}, "
        "ReducedWord(rank=2, letters=())),))",
    ),
    (ArcLabel, ("word",), (W,), f"ArcLabel(word={W_REPR})"),
    (
        DiskLabel,
        ("coset_rep", "c_index"),
        (ReducedWord(2, (1,)), 2),
        "DiskLabel(coset_rep=ReducedWord(rank=2, letters=(1,)), c_index=2)",
    ),
    (
        PushLabel,
        ("side", "word"),
        (Side.SIDE2, W),
        f"PushLabel(side=<Side.SIDE2: 2>, word={W_REPR})",
    ),
    (TraceStep, ("rule", "note", "increment"), ("pointcommute", "swap", 2), STEP_REPR),
    (
        BoundTrace,
        ("steps", "total"),
        ((STEP,), 2),
        f"BoundTrace(steps=({STEP_REPR},), total=2)",
    ),
    (
        CertificateRow,
        ("k", "l", "displacement", "relative_word", "lower", "upper", "ratio"),
        ((0,), (1,), 1, W, HALF, 14, HALF),
        f"CertificateRow(k=(0,), l=(1,), displacement=1, relative_word={W_REPR}, "
        "lower=Fraction(1, 2), upper=14, ratio=Fraction(1, 2))",
    ),
    (
        GridSummary,
        ("rows", "min_ratio", "max_ratio"),
        (1, HALF, None),
        "GridSummary(rows=1, min_ratio=Fraction(1, 2), max_ratio=None)",
    ),
    (
        TorusDiskBall,
        ("radius", "valency_cap", "leaf_count", "nonseparating", "separating", "edges"),
        (1, 1, 0, range(2), range(2, 2), ((0, 1),)),
        "TorusDiskBall(radius=1, valency_cap=1, leaf_count=0, nonseparating=range(0, 2), "
        "separating=range(2, 2), edges=((0, 1),))",
    ),
]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, names, values, text):
    record = cls(*values)
    assert record == cls(*values)
    by_keyword = dict(zip(names, values))
    if cls.__init__ is Record.__init__:
        with pytest.raises(TypeError):
            cls(**by_keyword)
    else:  # ReducedWord keeps its own (rank, letters) constructor
        assert cls(**by_keyword) == record
    assert tuple(getattr(record, name) for name in names) == values
    assert hash(record) == hash(values)
    assert record != values
    assert repr(record) == text

    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) == values[0]

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)


def test_cases_cover_every_exported_record_type():
    # a record type cannot be added or removed without its contract row
    exported = []
    for module in (words, whitehead, cancelpairs, pushcalc, qicert, torustree):
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, Record):
                exported.append(value)
    assert len(exported) == len(CASES) == 12
    assert set(exported) == {c[0] for c in CASES}


class _OneField(Record):
    __slots__ = ("word",)


def test_records_with_equal_fields_but_different_types_are_unequal():
    z = ReducedWord(3, (3,))
    assert ArcLabel(z) != _OneField(z)
