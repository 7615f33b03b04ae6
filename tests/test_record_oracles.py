"""`k3census.record` against the standard library's dataclasses.

Every record class of the package and of the Kummer tests, and the two
hand-written value types `LatticeVec` and `SignedPerm`, is compared with a
twin that `dataclasses.make_dataclass` builds from the same fields,
defaults, `frozen` and `order` flags: equality, hash, repr, ordering, frozen
assignment and the TypeError on a missing or extra argument must agree on
sample instances, and every instance must survive a pickle round trip.
"""

import dataclasses
import inspect
import operator
import pickle
from fractions import Fraction
from itertools import product

import pytest

from k3census import census, cli, e8, gindex, kummer, reps, sgnperm
from conftest import signed_identity
import test_kummer

MODULES = (census, cli, e8, gindex, kummer, reps, sgnperm)

# (frozen, order) as each class is declared
RECORDS = {
    census.ThetaProfile: (True, True),
    census.Audit: (True, False),
    census.Candidate: (True, False),
    census.CensusRun: (True, False),
    census.Q8Fixture: (True, False),
    census.InvolutionVerdict: (True, False),
    cli.RunConfig: (False, False),
    gindex.FixedPointData: (True, False),
    gindex.SpinVector: (True, False),
    gindex.KsResult: (True, False),
    kummer.E8BasesReport: (True, False),
    reps.RepDecomp: (True, True),
    reps.LiftResult: (True, False),
    sgnperm.InvolutionClass: (True, False),
    sgnperm.Order4Shape: (True, False),
    sgnperm.Z24Report: (True, False),
    sgnperm.Q8Report: (True, False),
}

# record classes the tests define for themselves: the Seiberg-Witten
# degree-triple argument has no caller in the package
TEST_RECORDS = {
    test_kummer.BasicClass: (True, False),
    test_kummer.RigidityResult: (True, False),
}

# hand-written __slots__ classes: (fields, frozen, order, repr is custom)
VALUE_TYPES = {
    e8.LatticeVec: (("d",), True, True, True),
    sgnperm.SignedPerm: (("image",), True, False, True),
}


def _samples():
    run5, run7 = census.run_census(5), census.run_census(7)
    data = [c.fixed_point_data() for c in run5.candidates + run7.candidates]
    w = sgnperm.w_f
    elements = [w(1), w(1) * w(3), w(1) * w(3) * w(5), w(1) * w(3) * w(5) * w(7),
                w(1) * w(3) * w(5) * sgnperm.w_f7_prime()]
    return {
        census.ThetaProfile: [pr for pr, _ in run5.stage1 + run7.stage1],
        census.Audit: list(run5.audits[:5] + run7.audits[:5]),
        census.Candidate: list(run5.candidates + run7.candidates),
        census.CensusRun: [run5, run7],
        census.Q8Fixture: [census.q8_fixture_solver()],
        census.InvolutionVerdict: [census.involution_fixture_check(c) for c in
                                   ([], [(1, 0), (1, 0)], [(0, -2), (1, 0)], [(2, 2)])],
        cli.RunConfig: [cli.RunConfig(), cli.RunConfig(digits=3, fmt="json")],
        gindex.FixedPointData: data + [gindex.FixedPointData(5)],
        gindex.SpinVector: [gindex.spin_number(d, gindex.spin_value(d)) for d in data],
        gindex.KsResult: [gindex.KsResult(0, -8, 8, 0, True), gindex.KsResult(1, 0, 8, 8, False)],
        kummer.E8BasesReport: [kummer.verify_e8_bases()],
        test_kummer.BasicClass: list(test_kummer.basic_classes((2, 3, 5))[:6]),
        test_kummer.RigidityResult: [test_kummer.rigidity_check((2, 3, 5), d) for d in
                                     ((2, 3, 5), (2, 3, 7))],
        reps.RepDecomp: list(reps.lemma45_census(3) + reps.lemma45_census(5)),
        reps.LiftResult: [reps.LiftResult("trivial", ((1, 0),), ""),
                          reps.LiftResult("regular", None, "no lift")],
        sgnperm.InvolutionClass: [sgnperm.involution_class(v) for v in elements],
        sgnperm.Order4Shape: [sgnperm.Order4Shape("i", 2, 0), sgnperm.Order4Shape("ii", 0, 0),
                              sgnperm.Order4Shape("i", 3, -2)],
        sgnperm.Z24Report: [sgnperm.Z24Report(Fraction(1, 2), "ruled_out", 1,
                                               (elements[0], elements[1]), 7)],
        sgnperm.Q8Report: [sgnperm.Q8Report((0, -4), ((0, 0, 0),), "ruled_out", 3),
                           sgnperm.Q8Report((0,), (), "ruled_out", 3)],
        e8.LatticeVec: list(e8.enumerate_roots()[::20]),
        sgnperm.SignedPerm: elements + [signed_identity()],
    }


@pytest.fixture(scope="module")
def samples():
    return _samples()


def _spec(cls):
    if cls in VALUE_TYPES:
        return VALUE_TYPES[cls]
    frozen, order = {**RECORDS, **TEST_RECORDS}[cls]
    return tuple(cls.__annotations__), frozen, order, False


def _twin(cls):
    names, frozen, order, _ = _spec(cls)
    fields = [(n, object, dataclasses.field(default=cls.__dict__[n]))
              if n in cls.__dict__ and n in getattr(cls, "__annotations__", {}) else (n, object)
              for n in names]
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen, order=order)
    return lambda x: twin(*(getattr(x, n) for n in names))


def _outcome(fn, *args, **kwargs):
    """("ok", result), or the kind of exception the call raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except AttributeError:
        return "AttributeError", None
    except TypeError:
        return "TypeError", None


def test_every_record_class_is_covered():
    found = {obj for mod in MODULES for obj in vars(mod).values()
             if inspect.isclass(obj) and obj.__module__ == mod.__name__
             and getattr(obj.__init__, "__module__", None) == "k3census.record"}
    assert found == set(RECORDS)


CLASSES = sorted([*RECORDS, *TEST_RECORDS, *VALUE_TYPES], key=lambda c: (c.__module__, c.__name__))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_matches_dataclass_twin(cls, samples):
    names, frozen, order, custom_repr = _spec(cls)
    twin = _twin(cls)
    xs = samples[cls]
    assert len(xs) >= 1 and all(type(x) is cls for x in xs)
    for x in xs:
        t = twin(x)
        if not custom_repr:
            assert repr(x) == repr(t)
        assert _outcome(hash, x) == _outcome(hash, t)
        assert (type(x).__hash__ is None) == (type(t).__hash__ is None)
        # a record never equals an instance of another class
        assert x.__eq__(t) is NotImplemented and t.__eq__(x) is NotImplemented
        assert x != t and x.__eq__(object()) is NotImplemented
        assert pickle.loads(pickle.dumps(x)) == x
    for a, b in product(xs, xs):
        assert (a == b) == (twin(a) == twin(b)) and (a != b) == (twin(a) != twin(b))
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert _outcome(op, a, b) == _outcome(op, twin(a), twin(b))
    if order:
        assert len(set(xs)) > 1
        assert sorted(xs) == sorted(xs, key=lambda x: tuple(getattr(x, n) for n in names))
        assert xs[0].__lt__(twin(xs[0])) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_arguments_match_dataclass_twin(cls, samples):
    names, frozen, _, _ = _spec(cls)
    twin = _twin(cls)
    x = samples[cls][0]
    values = tuple(getattr(x, n) for n in names)
    for name in names:
        fresh, t = cls(*values), twin(x)
        assert _outcome(setattr, fresh, name, values[0]) == _outcome(setattr, t, name, values[0])
        assert _outcome(delattr, fresh, name) == _outcome(delattr, t, name)
    if frozen:
        with pytest.raises(AttributeError):
            x.__setattr__(names[0], values[0])
    twin_cls = type(twin(x))
    cases = [(values + (values[0],), {}), (values[:-1], {}), ((), {}),
             (values, {"no_such_field": 1}), (values, {names[0]: values[0]})]
    for args, kwargs in cases:
        ours = _outcome(cls, *args, **kwargs)[0]
        theirs = _outcome(twin_cls, *args, **kwargs)[0]
        assert ours == theirs, (args, kwargs)
