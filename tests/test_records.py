"""The result records keep the reprs, value equality and hashing they had
as frozen dataclasses; the strings below were printed by that version."""

import pytest

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import repmin as rm
from catkit import verify

A1 = cx.type_a(1)  # one system, as HeckeModule compares its sys by identity

RECORDS = [
    (lambda: dcm.fiber_analysis(bm.from_row_strings(["111"] * 3)),
     "FiberReport(tau=(3, 2, 1), maximal=frozenset({(3, 2, 1)}),"
     " convex=True)"),
    (lambda: dcm.catalan_fiber_analysis((2, 2, 3)),
     "CatalanFiberReport(pi=(2, 1, 3), pi_prime=(2, 1, 3), interval=True)"),
    (lambda: dcm.verify_presentation(3),
     "PresentationReport(presented_size=6, matches=True)"),
    (lambda: cx.parabolic(cx.type_a(2), {0}),
     "Parabolic(J=frozenset({0}), members=(0, 1), longest=1,"
     " max_reps=(1, 4, 5))"),
    (lambda: rm.projective_module(A1, 0),
     "HeckeModule(sys=CoxeterSystem(name='A1', gen_perms=((1, 0),),"
     " matrix=((1,),), elements=((0, 1), (1, 0)), length=(0, 1),"
     " words=((), (0,)), right=((1,), (0,)), left=((1,), (0,))),"
     " labels=(0, 1), action=((1, 1),))"),
    (lambda: rm.eigen_split(rm.projective_module(A1, 0), 0),
     "EigenSplit(fixed=(1,), kernel_pairs=((0, 1),))"),
]


def test_a_matrix_keeps_its_repr():
    assert repr(bm.BoolMat(2, (0b01, 0b11))) == "BoolMat(n=2, bits=13)"


@pytest.mark.parametrize("make,text", RECORDS,
                         ids=[text.split("(")[0] for _, text in RECORDS])
def test_records_keep_their_repr_equality_and_hash(make, text):
    a, b = make(), make()
    assert a is not b
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(a))  # a frozen dataclass's hash
    assert len({a, b}) == 1


def test_records_with_different_fields_differ():
    assert bm.BoolMat(2, (1, 3)) != bm.BoolMat(2, (1, 1))
    assert cx.parabolic(A1, {0}) != cx.parabolic(A1, set())
    assert dcm.PresentationReport(presented_size=6, matches=True) != \
        dcm.PresentationReport(presented_size=6, matches=False)


def test_records_compare_as_tuples_of_their_fields():
    """The NamedTuple records are tuples: each equals the plain tuple of
    its fields, and so any other record with the same fields.  A matrix
    is not a tuple and equals only a matrix."""
    report = dcm.PresentationReport(presented_size=6, matches=True)
    assert report == (6, True)
    assert report == rm.EigenSplit(fixed=6, kernel_pairs=True)
    assert rm.EigenSplit(fixed=(1,), kernel_pairs=()) == ((1,), ())
    assert bm.BoolMat(2, (0b01, 0b11)) != (2, 13)


def test_check_results_compare_by_value_and_do_not_hash():
    make = lambda: verify.CheckResult("x", True, {"range": "1..2"})
    a, b = make(), make()
    assert repr(a) == ("CheckResult(name='x', passed=True,"
                       " details={'range': '1..2'}, counterexample=None)")
    assert a == b and a != verify.CheckResult("x", False, {"range": "1..2"})
    with pytest.raises(TypeError):
        hash(a)
