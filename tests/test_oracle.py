import math

import numpy as np
import pytest

from conftest import AGREEMENT_QS, interior_grid
from qmaxent.errors import BudgetExhausted
from qmaxent.inference import escort_weights, infer_state, validate_constraints
from qmaxent.oracle import (
    compare_states,
    escort_residual,
    maxent_general_oracle,
    maxent_split_oracle,
)
from qmaxent.thermo import entropy_of_state


def constraints(q, b=math.sqrt(2.0), s2=6.0):
    return validate_constraints(q, b, s2)


class TestSplitReductionLemma:
    def test_any_split_satisfies_the_constraints(self, rng):
        # the data pin the escort weights of the extreme slots exactly, for
        # every split of the leftover escort mass between the middle slots
        for q in (0.1, 0.5, 1.0, 2.0, 5.0):
            for b, s2 in interior_grid(3, 3):
                c = validate_constraints(q, b, s2)
                w = escort_weights(c)
                free = 2.0 * w.w_zero
                for frac in rng.uniform(0.0, 1.0, size=5):
                    t = frac * free
                    escort = np.array([w.w_plus, w.w_minus, t, free - t])
                    if abs(q - 1.0) < 1e-6:
                        lam = escort
                    else:
                        lam = escort ** (1.0 / q)
                        lam = lam / lam.sum()
                    assert escort_residual(lam, c) < 1e-14


class TestSplitOracle:
    def test_matches_closed_form_subadditive(self):
        c = constraints(2.0)
        result = maxent_split_oracle(c)
        assert compare_states(infer_state(c), result) < 1e-8
        # entropy is flat to machine precision within ~1e-8 of the optimum,
        # so the located split cannot be sharper than that plateau
        assert abs(result.t_split - 0.125) < 1e-7

    def test_matches_closed_form_superadditive(self):
        c = constraints(0.5)
        assert compare_states(infer_state(c), maxent_split_oracle(c)) < 1e-8

    def test_matches_closed_form_near_q_one_and_at_large_q(self):
        # the search runs on ln Z_q, which stays well scaled where S_q flattens
        for q in (1.0 - 1e-2, 1.0 - 1e-4, 1.0, 1.0 + 1e-6, 1.0 + 1e-2, 9.5, 50.0):
            c = validate_constraints(q, 1.0, 5.0)
            result = maxent_split_oracle(c)
            assert compare_states(infer_state(c), result) < 1e-8
            assert abs(result.achieved_entropy - entropy_of_state(infer_state(c))) < 1e-14

    def test_degenerate_interval(self):
        # sigma2 = 8 leaves no split freedom: two-level state comes back directly
        c = validate_constraints(2.0, 1.0, 8.0)
        result = maxent_split_oracle(c)
        assert result.iterations == 0
        assert result.t_split == 0.0
        assert compare_states(infer_state(c), result) < 1e-15

    def test_constraint_residual_tiny(self):
        for q in AGREEMENT_QS:
            result = maxent_split_oracle(constraints(q))
            assert result.constraint_residual < 1e-13

    def test_deterministic(self):
        c = constraints(0.9)
        a = maxent_split_oracle(c)
        b = maxent_split_oracle(c)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.achieved_entropy == b.achieved_entropy


class TestGeneralOracle:
    def test_stationary_at_closed_form(self):
        for q in (0.5, 2.0):
            c = constraints(q)
            closed = entropy_of_state(infer_state(c))
            result = maxent_general_oracle(c, seed=0, start_at_closed_form=True)
            assert abs(result.achieved_entropy - closed) <= 1e-6

    def test_never_beats_closed_form(self):
        c = validate_constraints(0.5, 1.0, 6.0)
        closed = entropy_of_state(infer_state(c))
        for seed in range(3):
            result = maxent_general_oracle(c, seed=seed)
            assert result.achieved_entropy <= closed + 1e-6
            assert result.constraint_residual <= 1e-6

    def test_deterministic_for_fixed_seed(self):
        c = constraints(2.0)
        a = maxent_general_oracle(c, seed=11)
        b = maxent_general_oracle(c, seed=11)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.achieved_entropy == b.achieved_entropy
        assert a.iterations == b.iterations

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            maxent_general_oracle(constraints(2.0), seed=0, budget=500)

    def test_budget_exhaustion(self, monkeypatch):
        # force the inner optimizer to never move: the residual cannot fall
        import qmaxent.oracle as oracle_module

        class StuckResult:
            status = 0

            def __init__(self, x):
                self.x = x

        monkeypatch.setattr(oracle_module, "minimize",
                            lambda fun, x, **kw: StuckResult(np.asarray(x)))
        with pytest.raises(BudgetExhausted):
            maxent_general_oracle(constraints(2.0), seed=3)


class TestCompareStates:
    def test_identical(self):
        s = infer_state(constraints(2.0))
        assert compare_states(s, s) == 0.0

    def test_between_regimes(self):
        a = infer_state(constraints(2.0))
        b = infer_state(constraints(0.5))
        expected = 0.8928571428571429 - 0.4270509831248423
        assert abs(compare_states(a, b) - expected) < 1e-12

    def test_symmetric(self):
        a = infer_state(constraints(2.0))
        b = infer_state(constraints(0.5))
        assert compare_states(a, b) == compare_states(b, a)
