"""Benchmark families: fluid flow and transport."""

import numpy as np
import pytest

from dadda.benchgen import draw_transport, gen_fluid, gen_transport
from dadda.linalg import matmul, ordered_dot, ordered_sum


class TestFluid:
    def test_structure(self):
        prob, x_true = gen_fluid(2, 18)
        assert (prob.m, prob.n, prob.p, prob.q) == (2, 18, 1, 1)
        assert prob.A.kind == "banded"
        assert np.array_equal(prob.A.diagonal(), np.full(2, 18.0))
        assert prob.D.kind == "diag_plus_lowrank"
        assert np.array_equal(prob.D.diagonal(), np.full(18, 170002.0))
        assert np.array_equal(x_true, np.full((2, 18), 1.0 / 18.0))

    def test_exactly_critical(self):
        # W [u1; u2] = 0 without any rounding: the instance is singular
        prob, _ = gen_fluid(3, 7)
        cu2 = matmul(prob.Cl, matmul(prob.Cr.T, prob.u2[:, None]))[:, 0]
        bu1 = matmul(prob.Bl, matmul(prob.Br.T, prob.u1[:, None]))[:, 0]
        assert np.array_equal(prob.D.apply(prob.u1) - cu2, np.zeros(7))
        assert np.array_equal(prob.A.apply(prob.u2) - bu1, np.zeros(3))
        assert np.array_equal(prob.v1, np.zeros(7))
        assert np.array_equal(prob.v2, np.zeros(3))

    def test_solution_sizes(self):
        _, x_true = gen_fluid(18, 2)
        assert np.array_equal(x_true, np.full((18, 2), 1.0 / 18.0))
        _, x_one = gen_fluid(1, 1)
        assert np.array_equal(x_one, np.ones((1, 1)))

    def test_solution_is_a_read_only_view(self):
        _, x_true = gen_fluid(7200, 800)
        assert x_true.shape == (7200, 800) and x_true.dtype == np.float64
        assert x_true.strides == (0, 0)
        assert not x_true.flags.writeable

    def test_validates(self):
        prob, _ = gen_fluid(5, 4)
        rep = prob.validate()
        assert rep.ok
        assert any("critical" in note for note in rep.notes)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_fluid(0, 3)
        with pytest.raises(ValueError):
            gen_fluid(3, -1)


class TestTransport:
    def test_determinism(self):
        a = draw_transport(10, seed=5)
        b = draw_transport(10, seed=5)
        assert a.alpha_t == b.alpha_t and a.beta_t == b.beta_t
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.weights, b.weights)
        for name in ("u1", "u2", "v1", "v2", "Bl", "Cl"):
            assert np.array_equal(getattr(a.problem, name), getattr(b.problem, name))
        c = draw_transport(10, seed=6)
        assert not np.array_equal(a.omega, c.omega)

    def test_draw_invariants(self):
        for seed in range(8):
            d = draw_transport(12, seed=seed)
            assert 0.0 < d.alpha_t < 1.0 and 0.0 < d.beta_t < 1.0
            assert np.all(np.diff(d.omega) < 0.0)  # strictly descending
            assert 0.0 < d.omega[-1] and d.omega[0] < 1.0
            assert np.all(d.weights > 0.0)
            assert ordered_sum(d.weights) == 1.0
            assert np.array_equal(d.q, d.weights / (2.0 * d.omega))
            assert np.array_equal(d.problem.Cl[:, 0], d.q)
            rep = d.problem.validate()
            assert rep.ok, rep.errors

    def test_capacitance_is_one_minus_beta(self):
        # the rank-one splitting of W has capacitance 1 - beta_t thanks to
        # the exact unit weight sum
        for seed in range(5):
            d = draw_transport(9, seed=seed)
            d_a = (1.0 / d.omega) / (d.beta_t * (1.0 + d.alpha_t))
            d_d = (1.0 / d.omega) / (d.beta_t * (1.0 - d.alpha_t))
            dg = np.concatenate([d_d, d_a])
            pg = np.concatenate([d.q, np.ones(9)])
            rg = np.concatenate([np.ones(9), d.q])
            delta = 1.0 - ordered_dot(rg, pg / dg)
            assert delta == pytest.approx(1.0 - d.beta_t, rel=1e-12)

    def test_overrides(self):
        d = draw_transport(6, seed=0, alpha_t=0.5, beta_t=0.25)
        assert d.alpha_t == 0.5 and d.beta_t == 0.25
        with pytest.raises(ValueError):
            draw_transport(6, seed=0, alpha_t=1.5)
        with pytest.raises(ValueError):
            draw_transport(6, seed=0, beta_t=0.0)
        with pytest.raises(ValueError):
            draw_transport(0, seed=0)

    def test_gen_transport_returns_problem(self):
        prob = gen_transport(4, seed=1)
        assert (prob.m, prob.n) == (4, 4)
        assert np.array_equal(prob.Bl, np.ones((4, 1)))

