"""Logits-seeded gradients on compiled views: ``vjp`` and ``jacobian``.

``jacobian`` replays one forward and one input-only backward per class over
the same pooled forward values; ``vjp`` one forward and one backward for an
arbitrary logits seed.  Both must match their autograd references
(:func:`eager_jacobian`, :func:`eager_vjp`) and fall back to them exactly
when ``value_and_grad`` falls back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import CompileError, compile_model
from repro.compile.model import eager_jacobian, eager_vjp
from repro.compile.training import LiveEvalModel
from repro.models import VGG16

TOL = 1e-12


@pytest.fixture()
def batch(rng):
    return rng.random((5, 3, 16, 16))


def _plan(compiled):
    return next(iter(compiled._plans.values()))


def _square_seed(logits):
    """Gradient of ``0.5 * ||logits||^2``: a seed that differs per row and class."""
    return logits.copy()


class TestPlanJacobian:
    def test_matches_per_class_eager_backwards(self, small_cnn, batch):
        small_cnn.eval()
        plan = _plan(compile_model(small_cnn, batch))
        logits, jacobian = plan.jacobian(batch)
        eager_logits, eager = eager_jacobian(small_cnn, batch)
        assert jacobian.shape == (10,) + batch.shape
        np.testing.assert_allclose(logits, eager_logits, rtol=0, atol=TOL)
        np.testing.assert_allclose(jacobian, eager, rtol=0, atol=TOL)

    def test_backwards_over_one_forward_equal_separate_replays(self, small_cnn, batch):
        """A backward replay never disturbs the forward values the next one reads."""
        small_cnn.eval()
        plan = _plan(compile_model(small_cnn, batch))
        _, jacobian = plan.jacobian(batch)
        for column in range(jacobian.shape[0]):
            plan.forward(batch)
            seed = np.zeros((len(batch), jacobian.shape[0]))
            seed[:, column] = 1.0
            assert np.array_equal(plan.backward(seed), jacobian[column])

    def test_repeat_calls_allocate_no_pool_buffers(self, small_cnn, batch):
        small_cnn.eval()
        plan = _plan(compile_model(small_cnn, batch))
        plan.jacobian(batch)
        plan.vjp(batch, _square_seed)
        allocations = plan.pool.allocations
        for _ in range(3):
            plan.jacobian(batch)
            plan.vjp(batch, _square_seed)
        assert plan.pool.allocations == allocations

    def test_results_are_owned_copies(self, small_cnn, batch, rng):
        small_cnn.eval()
        plan = _plan(compile_model(small_cnn, batch))
        logits, jacobian = plan.jacobian(batch)
        kept = logits.copy(), jacobian.copy()
        plan.jacobian(rng.random(batch.shape))
        assert np.array_equal(logits, kept[0]) and np.array_equal(jacobian, kept[1])

    def test_bn_folded_vgg(self, rng):
        model = VGG16(num_classes=10, image_size=32, width_multiplier=0.125, seed=0)
        model.eval()
        images = rng.random((2, 3, 32, 32))
        logits, jacobian = _plan(compile_model(model, images)).jacobian(images)
        eager_logits, eager = eager_jacobian(model, images)
        np.testing.assert_allclose(logits, eager_logits, rtol=0, atol=TOL)
        np.testing.assert_allclose(jacobian, eager, rtol=0, atol=TOL)


class TestCompiledModelViews:
    def test_vjp_matches_eager_and_counts_one_backward(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        logits, grad = compiled.vjp(batch, _square_seed)
        eager_logits, eager_grad = eager_vjp(small_cnn, batch, _square_seed)
        np.testing.assert_allclose(logits, eager_logits, rtol=0, atol=TOL)
        np.testing.assert_allclose(grad, eager_grad, rtol=0, atol=TOL)
        stats = compiled.stats
        assert (stats.forward_calls, stats.vjp_calls, stats.grad_calls) == (1, 1, 0)
        assert stats.fallback_calls == 0

    def test_jacobian_counts_one_forward_and_k_backwards(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        compiled.jacobian(batch)
        compiled.jacobian(batch)
        stats = compiled.stats
        assert (stats.forward_calls, stats.vjp_calls, stats.grad_calls) == (2, 20, 0)
        assert stats.as_dict()["vjp_calls"] == 20

    def test_training_mode_falls_back_to_eager(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        small_cnn.train()
        try:
            compiled.vjp(batch, _square_seed)
            compiled.jacobian(batch)
        finally:
            small_cnn.eval()
        stats = compiled.stats
        assert stats.fallback_calls == 2 and stats.forward_calls == 0 and stats.vjp_calls == 0

    def test_unseen_signature_falls_back_then_compiles(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        other = batch[:2]
        first = compiled.jacobian(other)  # first sighting: eager
        second = compiled.jacobian(other)  # second sighting: plan
        assert compiled.stats.fallback_calls == 1 and compiled.stats.vjp_calls == 10
        np.testing.assert_allclose(first[1], second[1], rtol=0, atol=TOL)

    def test_backward_failure_is_remembered(self, small_cnn, batch, monkeypatch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        attempts = []

        def broken(output_grad):
            attempts.append(1)
            raise CompileError("backward unavailable")

        monkeypatch.setattr(_plan(compiled), "backward", broken)
        first = compiled.vjp(batch, _square_seed)
        compiled.jacobian(batch)
        compiled.value_and_grad(batch, np.zeros(len(batch), dtype=np.int64))
        # One failed replay marks the signature; later gradient queries of
        # every kind go straight to eager, forwards keep the plan.
        assert len(attempts) == 1 and compiled.stats.fallback_calls == 3
        np.testing.assert_allclose(
            first[1], eager_vjp(small_cnn, batch, _square_seed)[1], rtol=0, atol=TOL
        )
        compiled(batch)
        assert compiled.stats.forward_calls == 1  # a failed replay is not counted


class TestLiveEvalModelViews:
    def test_vjp_and_jacobian_match_eager(self, small_cnn, batch):
        small_cnn.eval()
        view = LiveEvalModel(small_cnn)
        view.warm([batch])
        _, grad = view.vjp(batch, _square_seed)
        eager_grad = eager_vjp(small_cnn, batch, _square_seed)[1]
        np.testing.assert_allclose(grad, eager_grad, rtol=0, atol=TOL)
        logits, jacobian = view.jacobian(batch)
        eager_logits, eager = eager_jacobian(small_cnn, batch)
        np.testing.assert_allclose(logits, eager_logits, rtol=0, atol=TOL)
        np.testing.assert_allclose(jacobian, eager, rtol=0, atol=TOL)
        assert view.pool_allocations > 0

    def test_first_sighting_runs_eager_in_eval_mode(self, small_cnn, batch):
        small_cnn.train()
        view = LiveEvalModel(small_cnn)
        _, jacobian = view.jacobian(batch)  # eager, eval semantics, mode restored
        assert small_cnn.training
        small_cnn.eval()
        np.testing.assert_allclose(jacobian, eager_jacobian(small_cnn, batch)[1], rtol=0, atol=TOL)
