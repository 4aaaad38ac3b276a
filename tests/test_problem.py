"""Problem container, validation, shifts, and JSON interchange."""

import json

import numpy as np
import pytest

from conftest import random_mare
from dadda.benchgen import gen_fluid, gen_transport
from dadda.linalg import StructuredSquare
from dadda.problem import (
    MareProblem,
    ShiftPair,
    load_problem,
    make_shifts,
    problem_from_json,
    problem_to_json,
    save_problem,
    shifted_parts,
)


def _small_problem(**overrides):
    base = dict(
        A=StructuredSquare.banded(2, 0, 0, {0: np.array([2.0, 2.0])}),
        D=StructuredSquare.banded(2, 0, 0, {0: np.array([5.0, 5.0])}),
        Bl=0.5 * np.ones((2, 1)),
        Br=0.5 * np.ones((2, 1)),
        Cl=0.5 * np.ones((2, 1)),
        Cr=0.5 * np.ones((2, 1)),
        u1=np.ones(2),
        u2=np.ones(2),
        v1=np.array([4.5, 4.5]),  # D u1 - C u2
        v2=np.array([1.5, 1.5]),  # A u2 - B u1
    )
    base.update(overrides)
    return MareProblem(**base)


class TestConstruction:
    def test_shapes_and_counts(self):
        prob = _small_problem()
        assert (prob.m, prob.n, prob.p, prob.q) == (2, 2, 1, 1)
        assert prob.Bl @ prob.Br.T == pytest.approx(0.25 * np.ones((2, 2)))

    def test_factor_shape_errors(self):
        with pytest.raises(ValueError):
            _small_problem(Bl=np.ones((3, 1)))
        with pytest.raises(ValueError):
            _small_problem(Br=np.ones((2, 2)))  # p mismatch
        with pytest.raises(ValueError):
            _small_problem(Cr=np.ones((2, 3)))  # q mismatch
        with pytest.raises(ValueError):
            _small_problem(u1=np.ones(3))


class TestValidate:
    def test_clean_instances(self):
        assert _small_problem().validate().ok
        prob, _ = gen_fluid(3, 4)
        rep = prob.validate()
        assert rep.ok
        assert any("critical" in note for note in rep.notes)
        rep = gen_transport(8, seed=0).validate()
        assert rep.ok
        assert not any("critical" in note for note in rep.notes)
        for seed in range(4):
            assert random_mare(seed).validate().ok

    def test_sign_errors(self):
        rep = _small_problem(Bl=np.array([[-0.5], [0.5]])).validate()
        assert any("Bl" in e and "nonnegative" in e for e in rep.errors)
        rep = _small_problem(u1=np.array([1.0, 0.0])).validate()
        assert any("strictly positive" in e for e in rep.errors)
        rep = _small_problem(v2=np.array([-1.0, 1.5])).validate()
        assert any("v1, v2" in e for e in rep.errors)
        rep = _small_problem(u2=np.array([np.nan, 1.0])).validate()
        assert any("non-finite" in e for e in rep.errors)

    def test_z_pattern_and_diagonal(self):
        bad_a = StructuredSquare.dense([[2.0, 1.0], [0.0, 2.0]])
        rep = _small_problem(A=bad_a).validate()
        assert any("Z-matrix" in e for e in rep.errors)
        bad_d = StructuredSquare.banded(2, 0, 0, {0: np.array([5.0, 0.0])})
        rep = _small_problem(D=bad_d).validate()
        assert any("positive diagonal" in e for e in rep.errors)

    def test_column_rank(self):
        rep = _small_problem(
            Bl=np.ones((2, 2)), Br=np.ones((2, 2)), v2=np.zeros(2)
        ).validate()
        assert any("full column rank" in e for e in rep.errors)

    def test_triplet_residual(self):
        rep = _small_problem(v1=np.array([4.5, 4.6])).validate()
        assert any("triplet residual" in e for e in rep.errors)

    def test_triplet_residual_applies_each_block_once(self, monkeypatch):
        # D u1 and A u2 serve both the residual and its scale
        prob = gen_transport(8, seed=0)
        calls = []
        apply = StructuredSquare.apply

        def counted(self, x, *args, **kwargs):
            calls.append(self)
            return apply(self, x, *args, **kwargs)

        monkeypatch.setattr(StructuredSquare, "apply", counted)
        assert prob.validate().ok
        assert len(calls) == 2 and {id(s) for s in calls} == {id(prob.A), id(prob.D)}


class TestShifts:
    def test_default_shifts_frozen(self):
        sh = make_shifts(_small_problem())
        assert (sh.alpha, sh.beta) == (0.5, 0.2)
        assert sh.gamma == 0.7

    def test_fluid_shifts_frozen(self):
        prob, _ = gen_fluid(2, 18)
        sh = make_shifts(prob)
        assert sh.alpha == 1.0 / 18.0
        # true diagonal of D carries the rank-one part: 1e4*18 + 2 - 1e4
        assert sh.beta == 1.0 / 170002.0

    def test_make_shifts_overrides_and_bounds(self):
        prob = _small_problem()
        sh = make_shifts(prob, alpha=0.25)
        assert (sh.alpha, sh.beta) == (0.25, 0.2)
        sh = make_shifts(prob, alpha=0.0, beta=0.1)
        assert (sh.alpha, sh.beta) == (0.0, 0.1)
        with pytest.raises(ValueError):
            make_shifts(prob, alpha=0.6)
        with pytest.raises(ValueError):
            make_shifts(prob, beta=0.21)
        with pytest.raises(ValueError):
            make_shifts(prob, alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            make_shifts(prob, alpha=-0.1)
        # sitting exactly on the bound is admissible
        sh = make_shifts(prob, alpha=0.5, beta=0.2)
        assert (sh.alpha, sh.beta) == (0.5, 0.2)

    def test_shift_pair_validation(self):
        with pytest.raises(ValueError):
            ShiftPair(alpha=-0.1, beta=0.2)
        with pytest.raises(ValueError):
            ShiftPair(alpha=0.0, beta=0.0)
        assert ShiftPair(alpha=0.0, beta=0.5).gamma == 0.5


class TestShiftedParts:
    def test_images_are_additive(self):
        # image vectors must equal the direct applications of the shifted
        # matrices, but be computed purely by adding nonnegative terms
        for prob in (_small_problem(), gen_transport(6, seed=1)):
            sh = make_shifts(prob)
            parts = shifted_parts(prob, sh)
            ref_d = parts.D_alpha.apply(prob.u1)
            ref_a = parts.A_beta.apply(prob.u2)
            assert parts.image_d_alpha == pytest.approx(ref_d, rel=1e-13)
            assert parts.image_a_beta == pytest.approx(ref_a, rel=1e-13)
            assert np.all(parts.image_d_alpha > 0.0)
            assert np.all(parts.image_a_beta > 0.0)

    def test_fluid_images_exact(self):
        prob, _ = gen_fluid(2, 18)
        sh = make_shifts(prob)
        parts = shifted_parts(prob, sh)
        # v = 0, C u2 = m * ones, B u1 = n * ones
        assert np.array_equal(parts.image_d_alpha, np.full(18, 1.0 + sh.alpha * 2.0))
        assert np.array_equal(parts.image_a_beta, np.full(2, 1.0 + sh.beta * 18.0))

    def test_negated_parts_nonnegative(self):
        # I - alpha A and I - beta D stay entrywise nonnegative even with
        # shifts exactly on the admissible bound
        for prob in (
            _small_problem(),
            gen_fluid(2, 18)[0],
            gen_transport(6, seed=2),
        ):
            parts = shifted_parts(prob, make_shifts(prob))
            assert np.all(parts.A_neg_alpha.to_dense() >= 0.0)
            assert np.all(parts.D_neg_beta.to_dense() >= 0.0)

    def test_affine_matches_dense(self):
        prob = gen_transport(5, seed=3)
        sh = make_shifts(prob)
        parts = shifted_parts(prob, sh)
        a = prob.A.to_dense()
        d = prob.D.to_dense()
        eye = np.eye(prob.m)
        assert np.allclose(
            parts.A_beta.to_dense(), eye + sh.beta * a, rtol=1e-14, atol=1e-14
        )
        assert np.allclose(
            parts.D_alpha.to_dense(), eye + sh.alpha * d, rtol=1e-14, atol=1e-14
        )
        assert np.allclose(
            parts.A_neg_alpha.to_dense(), eye - sh.alpha * a, rtol=0, atol=1e-13
        )
        assert np.allclose(
            parts.D_neg_beta.to_dense(), eye - sh.beta * d, rtol=0, atol=1e-13
        )


class TestJsonRoundTrip:
    def _assert_same(self, a: MareProblem, b: MareProblem):
        assert a.A.kind == b.A.kind and a.D.kind == b.D.kind
        assert np.array_equal(a.A.to_dense(), b.A.to_dense())
        assert np.array_equal(a.D.to_dense(), b.D.to_dense())
        for name in ("Bl", "Br", "Cl", "Cr", "u1", "u2", "v1", "v2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_round_trip_all_kinds(self, tmp_path):
        probs = [
            gen_fluid(3, 5)[0],
            gen_transport(7, seed=4),
            random_mare(1, kind="dense"),
            random_mare(2, kind="banded"),
            random_mare(3, kind="lowrank"),
        ]
        for i, prob in enumerate(probs):
            blob = json.dumps(problem_to_json(prob))
            back = problem_from_json(json.loads(blob))
            self._assert_same(prob, back)
            path = tmp_path / f"prob{i}.json"
            save_problem(prob, str(path))
            self._assert_same(prob, load_problem(str(path)))

    def test_missing_field(self):
        obj = problem_to_json(_small_problem())
        del obj["u1"]
        with pytest.raises(ValueError, match="missing field"):
            problem_from_json(obj)

    def test_missing_rank_field(self):
        for key in ("p", "q"):
            obj = problem_to_json(_small_problem())
            del obj[key]
            with pytest.raises(ValueError, match="missing field"):
                problem_from_json(obj)

    def test_top_level_not_an_object(self):
        with pytest.raises(ValueError, match="object"):
            problem_from_json([problem_to_json(_small_problem())])

    def test_wrong_field_types(self):
        fluid = problem_to_json(gen_fluid(3, 5)[0])  # A banded, D low-rank
        for key, field, value in (
            ("A", None, [1]),
            ("D", None, "dense"),
            ("m", None, None),
            ("D", "sign", None),
            ("A", "bands", 5),
        ):
            obj = json.loads(json.dumps(fluid))
            if field is None:
                obj[key] = value
            else:
                obj[key][field] = value
            with pytest.raises(ValueError, match="object|wrong type"):
                problem_from_json(obj)

    def test_non_integral_fields_rejected(self):
        # int() would truncate these silently: 3.7 -> 3, true -> 1, -1.5 -> -1
        fluid = problem_to_json(gen_fluid(3, 5)[0])  # A banded, D low-rank
        for key, field, value in (
            ("m", None, 3.7),
            ("p", None, True),
            ("n", None, "5"),
            ("D", "sign", -1.5),
            ("A", "lower", 0.5),
            ("A", "upper", False),
        ):
            obj = json.loads(json.dumps(fluid))
            if field is None:
                obj[key] = value
            else:
                obj[key][field] = value
            with pytest.raises(ValueError, match="must be an integer"):
                problem_from_json(obj)
        obj = json.loads(json.dumps(fluid))
        obj["A"]["bands"][0][0] = 0.5
        with pytest.raises(ValueError, match="band offset"):
            problem_from_json(obj)
        # an integral float is an integer
        obj = json.loads(json.dumps(fluid))
        obj["m"] = 3.0
        assert problem_from_json(obj).m == 3

    def test_declared_rank_mismatch(self):
        obj = problem_to_json(_small_problem())
        obj["p"] = 2
        with pytest.raises(ValueError, match="p/q"):
            problem_from_json(obj)

    def test_unknown_kind(self):
        obj = problem_to_json(_small_problem())
        obj["A"] = {"kind": "sparse"}
        with pytest.raises(ValueError, match="unknown structured kind"):
            problem_from_json(obj)

    def test_order_mismatch(self):
        obj = problem_to_json(_small_problem())
        obj["A"] = {"kind": "dense", "entries": [[2.0]]}
        with pytest.raises(ValueError, match="order"):
            problem_from_json(obj)
