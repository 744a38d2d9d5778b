"""The contract of fuzgeo's small records.

Value types are frozen and hashable, cold records are named tuples, and
reports are mutable and unhashable.  Every record is built from keyword
arguments, compares by value and reprs as Name(field=value, ...).
"""

import pickle

import pytest

import fuzgeo as fg
from fuzgeo.core import Value
from fuzgeo.metric import CheckResult
from fuzgeo.midset import Branch
from oracles import AlphaBoundaryPair

VALUE, FROZEN, REPORT = "value", "frozen", "report"


def _checks(*names, checked=0):
    return {name: CheckResult(name, checked) for name in names}


# (record class, kind, keyword arguments of one instance and of an unequal
# one); fresh arguments per call, so mutable fields are never shared.  Every
# argument is stored as given: floats, normalized lines, tuples.  FROZEN is
# frozen but holds an unhashable field.
RECORDS = [
    (fg.Point2, VALUE, lambda o: dict(x=1.0, y=3.0 if o else 2.0)),
    (fg.Spread, VALUE, lambda o: dict(kind="elliptical", p1=1.0, p2=3.0 if o else 2.0)),
    (AlphaBoundaryPair, VALUE,
     lambda o: dict(under=fg.Point2(0.0, 0.0), over=fg.Point2(2.0 if o else 1.0, 1.0))),
    (fg.FuzzyPoint, VALUE,
     lambda o: dict(core=fg.Point2(1.0, 2.0), spread=fg.Spread.circular(2.0 if o else 1.0))),
    (fg.TriangularTriple, VALUE, lambda o: dict(l=1.0, m=2.0, u=4.0 if o else 3.0)),
    (fg.LineSpec, VALUE, lambda o: dict(a=1.0, b=0.0, c=3.0 if o else 2.0)),
    (fg.TNorm, VALUE, lambda o: dict(name="min" if o else "minimum", fn=min)),
    (fg.Thresholds, VALUE, lambda o: dict(n=0.5, n1=0.25 if o else None, n2=0.5)),
    (fg.ConicCoefficients, VALUE,
     lambda o: dict(A=1.0, H=0.0, B=-1.0, G=0.0, F=0.0, C=-2.0 if o else -1.0)),
    (fg.MidsetEntry, VALUE,
     lambda o: dict(alpha=0.5, branch=Branch.INVERSE, polylines=(),
                    conic_class="ellipse" if o else "hyperbola")),
    (fg.MidsetResult, VALUE,
     lambda o: dict(entries=(), bbox=(0.0, 0.0, 1.0, 2.0 if o else 1.0))),
    (fg.GridSpec, VALUE, lambda o: dict(alpha_levels=11, bbox=None, resolution=32 if o else 64)),
    (fg.Scene, FROZEN,
     lambda o: dict(points={"A": fg.FuzzyPoint.circular(0.0, 0.0, 1.0)}, pairs=(),
                    grids=fg.GridSpec(), t_values=(2.0,) if o else (1.0,))),
    (CheckResult, REPORT,
     lambda o: dict(name="symmetry", checked=4 if o else 3, failures=[(0, 1)], notes=[])),
    (fg.MetricAxiomReport, REPORT,
     lambda o: dict(tnorm="minimum" if o else "product",
                    **_checks("positivity", "identity", "symmetry", "quadrangle",
                              "quadrangle_cuts", "continuity"))),
    (fg.KSAxiomReport, REPORT,
     lambda o: _checks("zero_core", "symmetry", "triangle", checked=2 if o else 1)),
    (fg.InvarianceReport, REPORT,
     lambda o: dict(checked=10, disagreements=0, pole_points=2 if o else 1)),
]

records = pytest.mark.parametrize("cls, kind, make", RECORDS,
                                  ids=[cls.__name__ for cls, _, _ in RECORDS])


@records
def test_keyword_construction(cls, kind, make):
    kwargs = make(False)
    record = cls(**kwargs)
    assert {name: getattr(record, name) for name in kwargs} == kwargs
    assert cls(*make(False).values()) == record


@records
def test_equality(cls, kind, make):
    assert cls(**make(False)) == cls(**make(False))
    assert not cls(**make(False)) != cls(**make(False))
    assert cls(**make(False)) != cls(**make(True))
    assert cls(**make(False)) != object()


@records
def test_hash(cls, kind, make):
    if kind == VALUE:
        assert hash(cls(**make(False))) == hash(cls(**make(False)))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(**make(False)))


@records
def test_assignment(cls, kind, make):
    record, other = cls(**make(False)), make(True)
    name = next(k for k, v in other.items() if v != make(False)[k])
    if kind == REPORT:
        setattr(record, name, other[name])
        assert record == cls(**{**make(False), name: other[name]})
    else:
        with pytest.raises(AttributeError):
            setattr(record, name, other[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == cls(**make(False))


@records
def test_repr(cls, kind, make):
    kwargs = make(False)
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


@records
def test_pickle_round_trip(cls, kind, make):
    record = cls(**make(False))
    assert pickle.loads(pickle.dumps(record)) == record


def test_pickle_keeps_stored_values(rng):
    # a Value comes back with its fields as stored, not through an __init__
    # that may normalise them again, as LineSpec's does
    values = [cls(**make(False)) for cls, _, make in RECORDS if issubclass(cls, Value)]
    values += [fg.LineSpec.through_points(fg.Point2(x, y), fg.Point2(u, v))
               for x, y, u, v in rng.uniform(-10.0, 10.0, size=(20000, 4)).tolist()]
    restored = pickle.loads(pickle.dumps(values))
    assert [type(v) for v in restored] == [type(v) for v in values]
    assert [v for v, w in zip(values, restored) if v != w] == []


def test_reports_get_fresh_lists():
    a, b = CheckResult("a"), CheckResult("a")
    a.count(False, "detail")
    a.notes.append("note")
    assert (b.failures, b.notes) == ([], [])
    assert a == CheckResult("a", 1, ["detail"], ["note"])


def test_validation_kept():
    with pytest.raises(ValueError, match="unknown spread kind 'oval'"):
        fg.Spread("oval", 1.0, 1.0)
    with pytest.raises(ValueError, match=r"got TriangularTriple\(l=3.0, m=2.0, u=1.0\)"):
        fg.TriangularTriple(3, 2, 1)
    with pytest.raises(ValueError, match="x must be finite"):
        fg.Point2(float("nan"), 0.0)
    assert fg.LineSpec(-2.0, 0.0, -4.0) == fg.LineSpec(1.0, 0.0, 2.0)
    assert type(fg.Point2(1, 2).x) is float
