
import random

import pytest

from catkit import boolmat as bm
from catkit import verify
from catkit.verify import ALL_CHECKS, run_verify_all


def test_degenerate_degree_one():
    report = run_verify_all(n_max=1)
    assert report["passed"]


def test_all_checks_present():
    report = run_verify_all(n_max=2)
    assert len(report["checks"]) == len(ALL_CHECKS)
    assert report["passed"]
    for res in report["checks"].values():
        assert res["counterexample"] is None


@pytest.mark.parametrize("n_max", [3, 4])
def test_everything_passes(n_max):
    report = run_verify_all(n_max=n_max)
    failing = [name for name, res in report["checks"].items()
               if not res["passed"]]
    assert not failing, failing


@pytest.mark.parametrize("n,size", [(1, 1), (2, 4), (3, 25), (4, 196),
                                    (5, 1764)])
def test_convex_closure_has_catalan_squared_elements(n, size):
    """The interval fills of the generator pairs close to Cat(n)^2 convex
    relations, also at n = 5, beyond the brute-force enumeration."""
    table = verify.convex_closure(n)
    assert len(table) == size
    assert all(bm.is_convex(a) for a in table.elements)


def test_subset_realization_fails_on_one_wrong_generator_product(
        monkeypatch):
    gen_mul = verify.hecke.gen_mul
    x = (2, 1, 3, 5, 4)

    def wrong(i, z, side="left"):
        if z == x and i == 3 and side == "right":
            return z  # the true product x s_3 = 21534 is longer
        return gen_mul(i, z, side)

    monkeypatch.setattr(verify.hecke, "gen_mul", wrong)
    result = verify.check_subset_realization(5, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"n": 5, "x": "21354", "generator": 3}


def test_convex_monoid_iso_fails_on_one_wrong_generator_product(
        monkeypatch):
    mul = verify.bm.mul
    top = bm.all_ones(4)
    gen = bm.from_map_pair((1, 3, 3, 4), (1, 2, 3, 4))  # ltr_maxima(s_2)

    def wrong(a, b):
        if a == top and b == gen:
            return bm.identity_mat(4)  # the true product is top
        return mul(a, b)

    monkeypatch.setattr(verify.bm, "mul", wrong)
    result = verify.check_convex_monoid_iso(4, random.Random(0))
    assert not result.passed
    assert result.counterexample == {
        "n": 4, "a": bm.to_row_strings(top),
        "generator": bm.to_row_strings(gen), "reason": "not a homomorphism"}
