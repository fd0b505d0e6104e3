import math
import random

import numpy as np
import pytest

from conftest import AGREEMENT_QS, B_MAX, interior_grid
from qmaxent.bell import chsh_operator
from qmaxent.errors import BudgetExhausted
from qmaxent.inference import escort_weights, infer_state, validate_constraints
from qmaxent.oracle import (
    OracleResult,
    _entropy_and_escorts,
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

    def test_meets_the_constraints_to_round_off(self):
        # the acceptance falsification points: the equality-constrained solve
        # leaves no constraint violation for the entropy to feed on
        points = [(0.1, 0.5, 4.0), (0.5, 1.0, 6.0), (1.1, 1.2, 5.5),
                  (2.0, math.sqrt(2.0), 6.0), (5.0, 1.0, 5.0)]
        for q, b, s2 in points:
            c = validate_constraints(q, b, s2)
            closed = entropy_of_state(infer_state(c))
            for seed in range(1, 6):
                result = maxent_general_oracle(c, seed=seed)
                assert result.constraint_residual <= 1e-10, (q, seed)
                assert abs(result.achieved_entropy - closed) <= 1e-10, (q, seed)

    def test_budget_caps_the_evaluations(self, monkeypatch):
        # every solve steps to fresh points, asking for the objective, the
        # constraints and their Jacobian at each as SLSQP does, and stops at its
        # iteration limit, so the solves are resumed until the budget is spent;
        # the message gives the residual of the last point evaluated
        import qmaxent.oracle as oracle_module

        calls = []
        evaluate = oracle_module._entropy_and_escorts

        def counting(x, *args):
            calls.append(evaluate(x, *args))
            return calls[-1]

        class IterationLimit:
            status = 9

            def __init__(self, x):
                self.x = x

        def stepping(fun, x, constraints, **kw):
            for _ in range(7):
                x = x + 1e-3
                fun(x), constraints["fun"](x), constraints["jac"](x)
            return IterationLimit(x)

        monkeypatch.setattr(oracle_module, "_entropy_and_escorts", counting)
        monkeypatch.setattr(oracle_module, "minimize", stepping)
        c = constraints(0.5)
        with pytest.raises(BudgetExhausted, match="after 1000 objective evaluations") as info:
            maxent_general_oracle(c, seed=1, budget=1000)
        assert len(calls) <= 1000
        residual = np.max(np.abs(calls[-1][3] - np.array([c.b_q, c.sigma2_q])))
        assert str(info.value).endswith(f"; the last evaluated point has {residual:.3g}")

    def test_small_q_sweep_meets_the_target(self):
        # the [0.05, 0.3] band of the seeded 180-point sweep: q log-uniform,
        # then u, v and the start seed; the first 120 draws are the [0.3, 20] band
        rng = random.Random(42)
        passes = 0
        for k in range(160):
            lo, hi = (0.3, 20.0) if k < 120 else (0.05, 0.3)
            q = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            u, v = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
            seed = rng.randrange(2**31)
            if k < 120:
                continue
            b = B_MAX * u
            c = validate_constraints(q, b, B_MAX * b + v * (8.0 - B_MAX * b))
            try:
                result = maxent_general_oracle(c, seed=seed)
            except BudgetExhausted:
                continue
            excess = result.achieved_entropy - entropy_of_state(infer_state(c))
            passes += result.constraint_residual <= 1e-6 and excess <= 1e-6
        assert passes >= 36


def _escort_x(rng, rank=4):
    """32 reals of a random X of the given rank."""
    xm = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    xm = np.concatenate([xm, np.zeros((4, 4 - rank))], axis=1)
    return np.concatenate([xm.real.ravel(), xm.imag.ravel()])


class TestEscortSearchGradients:
    @pytest.mark.parametrize("q", [0.05, 0.3, 1.0, 1.0 + 1e-9, 2.0, 7.0])
    def test_match_central_differences(self, rng, q):
        ops = chsh_operator()
        x = _escort_x(rng)
        _, _, grad, _, jac = _entropy_and_escorts(x, q, ops.b_op, ops.b_squared)
        num_grad, num_jac = np.zeros(32), np.zeros((2, 32))
        for i in range(32):
            step = np.zeros(32)
            step[i] = 1e-6
            up = _entropy_and_escorts(x + step, q, ops.b_op, ops.b_squared)
            down = _entropy_and_escorts(x - step, q, ops.b_op, ops.b_squared)
            num_grad[i] = (up[1] - down[1]) / 2e-6
            num_jac[:, i] = (up[3] - down[3]) / 2e-6
        assert np.linalg.norm(grad - num_grad) <= 1e-5 * np.linalg.norm(num_grad)
        assert np.linalg.norm(jac - num_jac) <= 1e-5 * np.linalg.norm(num_jac)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_finite_at_rank_deficient_states(self, rng, rank):
        ops = chsh_operator()
        x = _escort_x(rng, rank)
        for q in (0.05, 0.5, 1.0, 2.0, 200.0, 1e3, 1e6):
            lam, entropy, grad, escorts, jac = _entropy_and_escorts(x, q, ops.b_op, ops.b_squared)
            for part in (lam, entropy, grad, escorts, jac):
                assert np.all(np.isfinite(part)), (rank, q)


class TestCompareStates:
    def test_identical(self):
        s = infer_state(constraints(2.0))
        assert compare_states(s, s) == 0.0

    def test_between_regimes(self):
        a = infer_state(constraints(2.0))
        b = infer_state(constraints(0.5))
        expected = 0.8928571428571429 - 0.4270509831248423
        assert abs(compare_states(a, b) - expected) < 1e-12
        # sorted, the oracle's spectrum is (0.1, 0.2, 0.3, 0.4) and a's is
        # (0.190983, 0.190983, 0.190983, 0.427051): the largest gap is 0.3 - 0.190983
        oracle = OracleResult(np.array([0.1, 0.4, 0.2, 0.3]), 0.0, 0.0, 0)
        assert abs(compare_states(a, oracle) - (0.3 - 0.19098300562505258)) < 1e-12

    def test_symmetric(self):
        a = infer_state(constraints(2.0))
        b = infer_state(constraints(0.5))
        assert compare_states(a, b) == compare_states(b, a)
