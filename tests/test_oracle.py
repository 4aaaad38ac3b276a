"""The dense reference iteration used to cross-check the structured solver."""

import numpy as np
import pytest

from conftest import closed_form_g0, closed_form_h0, oracle_residual, random_mare
from dadda import oracle
from dadda.benchgen import gen_fluid, gen_transport
from dadda.problem import make_shifts


class TestInitialQuadruple:
    def test_block_solve_identity(self):
        for prob in (random_mare(40), gen_transport(6, seed=0)):
            sh = make_shifts(prob)
            m, n = prob.m, prob.n
            alpha, beta = sh.alpha, sh.beta
            A, D = prob.A.to_dense(), prob.D.to_dense()
            B, C = prob.Bl @ prob.Br.T, prob.Cl @ prob.Cr.T
            E0, F0, G0, H0 = oracle.initial_quadruple(prob, sh)
            left = np.block(
                [
                    [alpha * D + np.eye(n), -beta * C],
                    [-alpha * B, beta * A + np.eye(m)],
                ]
            )
            right = np.block(
                [
                    [np.eye(n) - beta * D, alpha * C],
                    [beta * B, np.eye(m) - alpha * A],
                ]
            )
            sol = np.block([[E0, G0], [H0, F0]])
            assert np.allclose(left @ sol, right, rtol=1e-12, atol=1e-12)

    def test_closed_forms_match_block_solve(self):
        for seed in (41, 42, 43):
            prob = random_mare(seed)
            sh = make_shifts(prob)
            _, _, G0, H0 = oracle.initial_quadruple(prob, sh)
            h0 = closed_form_h0(prob, sh)
            g0 = closed_form_g0(prob, sh)
            assert np.allclose(h0, H0, rtol=1e-12, atol=1e-14)
            assert np.allclose(g0, G0, rtol=1e-12, atol=1e-14)

    def test_default_shifts_used(self):
        prob = random_mare(44)
        a = oracle.initial_quadruple(prob)
        b = oracle.initial_quadruple(prob, make_shifts(prob))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestIteration:
    def test_zero_steps_is_initial(self):
        prob = random_mare(45)
        a = oracle.iterate_oracle(prob, steps=0)
        b = oracle.initial_quadruple(prob)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_h_converges_to_fluid_solution(self):
        prob, x_true = gen_fluid(2, 18)
        _, _, _, H = oracle.iterate_oracle(prob, steps=6)
        assert np.abs(H - x_true).max() <= 1e-12

    def test_residual_shrinks(self):
        prob = random_mare(46)
        sh = make_shifts(prob)
        r_prev = None
        for steps in (0, 2, 4, 7):
            _, _, _, H = oracle.iterate_oracle(prob, sh, steps)
            r = np.abs(oracle_residual(prob, H)).max()
            if r_prev is not None:
                assert r < r_prev
            r_prev = r
        assert r_prev <= 1e-10

    def test_monotone_nondecreasing(self):
        prob = random_mare(47)
        quad = oracle.initial_quadruple(prob)
        h_prev = quad[3]
        for _ in range(4):
            quad = oracle.step_quadruple(*quad)
            assert np.min(quad[3] - h_prev) >= -1e-13
            h_prev = quad[3]


class TestGuards:
    def test_size_cap(self):
        prob = random_mare(48, m=150, n=60, p=1, q=1)
        with pytest.raises(ValueError, match="capped"):
            oracle.initial_quadruple(prob)
        with pytest.raises(ValueError, match="capped"):
            oracle_residual(prob, np.zeros((150, 60)))

    def test_residual_at_exact_solution(self):
        prob, x_true = gen_fluid(2, 18)
        res = oracle_residual(prob, x_true)
        assert np.abs(res).max() <= 1e-9
