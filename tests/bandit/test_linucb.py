"""Tests for the pure-Python ridge model behind the C³-UCB bandit."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit.linucb import (
    RidgeModel,
    dot,
    mat_identity,
    mat_inverse,
    mat_vec,
)


class TestMatrixHelpers:
    def test_identity(self):
        assert mat_identity(2) == [[1.0, 0.0], [0.0, 1.0]]
        assert mat_identity(2, scale=3.0)[0][0] == 3.0

    def test_mat_vec_and_dot(self):
        assert mat_vec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]) == [3.0, 7.0]
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_inverse_known_2x2(self):
        # [[4,7],[2,6]]^-1 = 1/10 [[6,-7],[-2,4]]
        inv = mat_inverse([[4.0, 7.0], [2.0, 6.0]])
        expected = [[0.6, -0.7], [-0.2, 0.4]]
        for row, want in zip(inv, expected):
            for value, target in zip(row, want):
                assert value == pytest.approx(target)

    def test_inverse_times_original_is_identity(self):
        matrix = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        inv = mat_inverse(matrix)
        for i in range(3):
            col = mat_vec(inv, [matrix[r][i] for r in range(3)])
            for j in range(3):
                assert col[j] == pytest.approx(1.0 if i == j else 0.0)

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="singular"):
            mat_inverse([[1.0, 2.0], [2.0, 4.0]])

    def test_pivoting_handles_zero_leading_entry(self):
        # Without partial pivoting the first pivot would be 0.
        inv = mat_inverse([[0.0, 1.0], [1.0, 0.0]])
        assert inv == [[0.0, 1.0], [1.0, 0.0]]


class TestRidgeModel:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RidgeModel(0)
        with pytest.raises(ValueError):
            RidgeModel(2, lambda_reg=0.0)
        with pytest.raises(ValueError):
            RidgeModel(2, forgetting=0.0)
        with pytest.raises(ValueError):
            RidgeModel(2, forgetting=1.5)

    def test_update_dimension_check(self):
        model = RidgeModel(2)
        with pytest.raises(ValueError, match="dim"):
            model.update([1.0, 0.0, 0.0], 1.0)

    def test_hand_computed_single_observation(self):
        # dim=2, lambda=1, one observation x=[1,0] with reward 2:
        # V = [[2,0],[0,1]], b = [2,0], theta = [1,0].
        model = RidgeModel(2, lambda_reg=1.0)
        model.update([1.0, 0.0], 2.0)
        assert model.v == [[2.0, 0.0], [0.0, 1.0]]
        assert model.b == [2.0, 0.0]
        assert model.theta() == pytest.approx([1.0, 0.0])
        assert model.mean([1.0, 0.0]) == pytest.approx(1.0)
        # width([1,0]) = sqrt([1,0] V^-1 [1,0]^T) = sqrt(1/2)
        assert model.width([1.0, 0.0]) == pytest.approx(math.sqrt(0.5))
        assert model.ucb([1.0, 0.0], alpha=2.0) == pytest.approx(
            1.0 + 2.0 * math.sqrt(0.5)
        )

    def test_orthogonal_observations_decouple(self):
        model = RidgeModel(2, lambda_reg=1.0)
        model.update([1.0, 0.0], 2.0)
        model.update([0.0, 1.0], 3.0)
        assert model.theta() == pytest.approx([1.0, 1.5])
        assert model.updates == 2

    def test_width_shrinks_with_evidence(self):
        model = RidgeModel(2)
        x = [1.0, 0.5]
        before = model.width(x)
        for _ in range(10):
            model.update(x, 1.0)
        assert model.width(x) < before

    def test_decay_blends_toward_prior(self):
        # gamma=0.5: V <- 0.5 V + 0.5 lambda I, b <- 0.5 b.
        model = RidgeModel(2, lambda_reg=1.0, forgetting=0.5)
        model.update([1.0, 0.0], 2.0)
        model.decay()
        assert model.v == [[1.5, 0.0], [0.0, 1.0]]
        assert model.b == [1.0, 0.0]

    def test_decay_reinflates_confidence(self):
        model = RidgeModel(2, lambda_reg=1.0, forgetting=0.5)
        x = [1.0, 0.0]
        for _ in range(5):
            model.update(x, 1.0)
        narrowed = model.width(x)
        for _ in range(20):
            model.decay()
        # Evidence fades, width re-expands toward the cold-start value
        # (never past it: V stays anchored at lambda*I).
        assert model.width(x) > narrowed
        assert model.width(x) <= RidgeModel(2).width(x) + 1e-9

    def test_decay_noop_without_forgetting(self):
        model = RidgeModel(2, forgetting=1.0)
        model.update([1.0, 1.0], 1.0)
        v_before = [list(row) for row in model.v]
        model.decay()
        assert model.v == v_before

    def test_updates_counter_survives_decay(self):
        model = RidgeModel(2, forgetting=0.5)
        model.update([1.0, 0.0], 1.0)
        model.decay()
        assert model.updates == 1


class TestSnapshot:
    def test_round_trip(self):
        model = RidgeModel(3, lambda_reg=2.0, forgetting=0.9)
        model.update([1.0, 0.0, 2.0], 1.5)
        model.update([0.0, 1.0, 0.0], -0.5)
        restored = RidgeModel.from_snapshot(model.to_snapshot())
        assert restored.dim == 3
        assert restored.lambda_reg == 2.0
        assert restored.forgetting == 0.9
        assert restored.v == model.v
        assert restored.b == model.b
        assert restored.updates == 2
        assert restored.theta() == pytest.approx(model.theta())

    def test_snapshot_is_json_shaped(self):
        import json

        model = RidgeModel(2)
        model.update([1.0, 1.0], 1.0)
        assert json.loads(json.dumps(model.to_snapshot())) == model.to_snapshot()

    def test_wrong_v_shape_rejected(self):
        snap = RidgeModel(2).to_snapshot()
        snap["v"] = [[1.0]]
        with pytest.raises(ValueError, match="shape"):
            RidgeModel.from_snapshot(snap)

    def test_wrong_b_shape_rejected(self):
        snap = RidgeModel(2).to_snapshot()
        snap["b"] = [0.0]
        with pytest.raises(ValueError, match="shape"):
            RidgeModel.from_snapshot(snap)


def _old_mat_vec(matrix, vector):
    """The generator form ``mat_vec`` had before it used ``map``."""
    return [
        sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix
    ]


def _old_dot(a, b):
    """The generator form ``dot`` had before it used ``map``."""
    return sum(x * y for x, y in zip(a, b))


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestProductsMatchTheGeneratorForms:
    """``dot``/``mat_vec`` feed ``sum`` the same products in the same
    order as the generator forms, so every result is bit-identical."""

    @given(data=st.data(), dim=st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_property(self, data, dim):
        vector = data.draw(st.lists(_floats, min_size=dim, max_size=dim))
        other = data.draw(st.lists(_floats, min_size=dim, max_size=dim))
        matrix = data.draw(
            st.lists(
                st.lists(_floats, min_size=dim, max_size=dim),
                min_size=1,
                max_size=dim,
            )
        )
        # repr() compares bits, NaN from inf - inf included.
        assert repr(dot(vector, other)) == repr(_old_dot(vector, other))
        assert repr(mat_vec(matrix, vector)) == repr(_old_mat_vec(matrix, vector))

    def test_twenty_thousand_random_vectors(self):
        rng = random.Random(20_000)
        for _ in range(20_000):
            dim = rng.randint(1, 12)
            a = [rng.uniform(-1e3, 1e3) for _ in range(dim)]
            b = [rng.gauss(0.0, 1.0) * 10 ** rng.randint(-6, 6) for _ in range(dim)]
            assert dot(a, b) == _old_dot(a, b)
        for _ in range(2_000):
            dim = rng.randint(1, 12)
            matrix = [[rng.uniform(-5.0, 5.0) for _ in range(dim)] for _ in range(dim)]
            vector = [rng.uniform(-5.0, 5.0) for _ in range(dim)]
            assert mat_vec(matrix, vector) == _old_mat_vec(matrix, vector)


def _fresh_theta(model):
    return mat_vec(mat_inverse(model.v), model.b)


class TestRidgeCache:
    """``theta`` is cached beside ``V^-1`` and must always equal a fresh
    ``V^-1 b``, bit for bit."""

    def _model(self):
        model = RidgeModel(4, lambda_reg=1.5, forgetting=0.8)
        rng = random.Random(4)
        for _ in range(6):
            model.update([rng.uniform(-1.0, 1.0) for _ in range(4)], rng.uniform(-2.0, 2.0))
        return model

    def test_after_update(self):
        model = self._model()
        assert model.theta() == _fresh_theta(model)
        model.update([0.5, -1.0, 0.0, 2.0], 3.0)
        assert model.theta() == _fresh_theta(model)

    def test_after_decay(self):
        model = self._model()
        assert model.theta() == _fresh_theta(model)
        model.decay()
        assert model.theta() == _fresh_theta(model)

    def test_after_from_snapshot(self):
        model = self._model()
        model.theta()
        restored = RidgeModel.from_snapshot(model.to_snapshot())
        assert restored.theta() == _fresh_theta(restored) == model.theta()

    def test_interleaved_reads_and_writes(self):
        model = RidgeModel(3, forgetting=0.9)
        rng = random.Random(3)
        for step in range(60):
            x = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            theta = _fresh_theta(model)
            assert model.theta() == theta
            assert model.mean(x) == dot(theta, x)
            assert model.ucb(x, 0.7) == dot(theta, x) + 0.7 * model.width(x)
            if step % 3 == 0:
                model.decay()
            else:
                model.update(x, rng.uniform(-1.0, 1.0))

    def test_returned_theta_cannot_poison_the_cache(self):
        model = self._model()
        x = [1.0, 0.5, -0.25, 2.0]
        mean = model.mean(x)
        theta = model.theta()
        theta[0] += 1e6
        theta.append(7.0)
        assert model.mean(x) == mean
        assert model.theta() == _fresh_theta(model)
