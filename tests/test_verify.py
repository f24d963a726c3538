
import pytest

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
