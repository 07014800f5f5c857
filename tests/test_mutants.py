"""Mutants the suite must catch.

Each case patches one module attribute with a plausible bug, runs in-process
the test that should catch it, and asserts that the test fails.  A pin
re-taken after a change could encode a new bug; these cases keep the checks
that would see one.  A change that re-takes a pin adds its own case.
"""
import re

import pytest
import test_bench
import test_classical
import test_landscape
import test_numbers

from pmlab import bench, classical, landscape


def _scaled_error(estimate_joint, factor):
    def mutant(*args, **kwargs):
        estimate = estimate_joint(*args, **kwargs)
        return bench.EstimatedProbability(estimate.value, estimate.std_error * factor)

    return mutant


def _unprojected(onto_hull):
    def mutant(t):
        return onto_hull(t)[0], [t.p_ab, t.p_bc, t.p_ac]

    return mutant


# One instance for every case: hypothesis fails a health check when a
# method it wraps is called from a second instance outside pytest's own
# parametrized runs.
_FIT_TESTS = test_classical.TestFitClassical()


def _refit_test(tolerance):
    _FIT_TESTS.test_refit_reproduces_the_triple_to_the_documented_bound(tolerance=tolerance)


#: Name: (module, attribute, mutant value, the catching test, what it raises).
CASES = {
    "joint error scaled by 1 + 1e-9": (
        bench,
        "estimate_joint",
        _scaled_error(bench.estimate_joint, 1.0 + 1e-9),
        test_bench.test_joint_is_the_count_ratio_with_its_poisson_error,
        AssertionError,
    ),
    "fitted weights below 1e-6 dropped": (
        classical,
        "WEIGHT_CLAMP",
        1e-6,
        lambda: _refit_test(tolerance=1e-6),
        AssertionError,
    ),
    "facet projection removed": (
        classical,
        "_onto_hull",
        _unprojected(classical._onto_hull),
        lambda: _refit_test(tolerance=1e-6),
        AssertionError,
    ),
    "subnormal flush removed": (
        classical,
        "_TINY",
        0.0,
        lambda: _refit_test(tolerance=0.0),
        RuntimeError,
    ),
    "classical.__all__ lists an imported name": (
        classical,
        "__all__",
        [*classical.__all__, "Outcome"],
        lambda: test_numbers.test_module_lists_only_what_it_defines(classical),
        AssertionError,
    ),
    "parse blocks cut mid-line": (
        landscape,
        "_BLOCK",
        re.compile(r".{1,262144}", re.DOTALL),
        lambda: test_landscape.TestParse().test_blank_lines_past_the_first_block_are_skipped(),
        ValueError,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_mutant_is_caught(monkeypatch, name):
    module, attribute, mutant, catching_test, raised = CASES[name]
    monkeypatch.setattr(module, attribute, mutant)
    with pytest.raises(raised):
        catching_test()
