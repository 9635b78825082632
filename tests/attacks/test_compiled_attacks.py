"""FAB, CW and DeepFool through compiled views: parity with eager and telemetry.

The three attacks query the model only through ``Attack._logits_and_jacobian``
/ ``_logits_and_vjp`` (and ``_logits``), so one implementation of each
attack's math serves both paths; the eager branch is the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import CW, FAB, AttackEngine, AttackSpec, DeepFool
from repro.attacks.engine import AttackTelemetry
from repro.compile import compile_model, eager_jacobian
from repro.nn import Tensor

TOL = 1e-12

ATTACKS = [
    (FAB, dict(steps=3)),
    (CW, dict(steps=5, c=5.0, lr=0.05)),
    (DeepFool, dict(steps=3)),
]


@pytest.fixture(scope="module")
def batch(tiny_dataset):
    return tiny_dataset.x_test[:8], tiny_dataset.y_test[:8]


@pytest.mark.parametrize("attack_cls, kwargs", ATTACKS, ids=["fab", "cw", "deepfool"])
def test_compiled_adversarials_match_eager(attack_cls, kwargs, trained_small_cnn, batch):
    images, labels = batch
    trained_small_cnn.eval()
    eager = attack_cls(trained_small_cnn, **kwargs).attack(images, labels)
    compiled = compile_model(trained_small_cnn, images)
    adversarial = attack_cls(trained_small_cnn, **kwargs).use_compiled(compiled).attack(
        images, labels
    )
    assert np.max(np.abs(adversarial - eager)) <= TOL
    assert compiled.stats.vjp_calls > 0


def test_compiled_engine_matches_eager_accuracies(trained_small_cnn, batch):
    images, labels = batch
    suite = [AttackSpec(cls.name, kwargs) for cls, kwargs in ATTACKS]
    options = dict(batch_size=16, early_exit=False)
    eager = AttackEngine(suite, **options).run(trained_small_cnn, images, labels)
    compiled = AttackEngine(suite, compile=True, **options).run(trained_small_cnn, images, labels)
    assert compiled.compiled and compiled.compile_error is None
    assert compiled.natural == eager.natural
    assert dict(compiled.adversarial) == dict(eager.adversarial)


def test_telemetry_counts_plan_replays_not_eager_passes(trained_small_cnn, batch):
    images, labels = batch
    fab_steps, cw_steps, pgd_steps = 3, 4, 3
    suite = [
        AttackSpec("fab", dict(steps=fab_steps)),
        AttackSpec("cw", dict(steps=cw_steps)),
        AttackSpec("pgd", dict(steps=pgd_steps, seed=0)),
    ]
    result = AttackEngine(suite, batch_size=16, early_exit=False, compile=True).run(
        trained_small_cnn, images, labels
    )
    telemetry = {t.name: t for t in result.telemetry}
    classes = trained_small_cnn.num_classes
    fab, cw, pgd = telemetry["fab"], telemetry["cw"], telemetry["pgd"]
    for record in (fab, cw, pgd):
        assert record.forward_calls == 0 and record.compiled_fallbacks == 0
    assert fab.compiled_vjp_calls == fab_steps * classes and fab.compiled_grad_calls == 0
    # one forward per Jacobian, the final bookkeeping pass, the engine's predictions
    assert fab.compiled_forward_calls == fab_steps + 2
    assert cw.compiled_vjp_calls == cw_steps and cw.compiled_grad_calls == 0
    assert pgd.compiled_grad_calls == pgd_steps and pgd.compiled_vjp_calls == 0


def test_telemetry_without_vjp_calls_revives_as_zero():
    record = AttackTelemetry(
        name="fab", examples_attacked=4, examples_skipped=0, forward_calls=0,
        forward_examples=0, seconds=0.5, accuracy=0.25, compiled_forward_calls=3,
        compiled_grad_calls=0, compiled_vjp_calls=20, compiled_fallbacks=0,
    )
    stored = record.as_dict()
    assert AttackTelemetry.from_dict(stored) == record
    del stored["compiled_vjp_calls"]  # written before the counter existed
    revived = AttackTelemetry.from_dict(stored)
    assert revived.compiled_vjp_calls == 0
    assert revived.compiled_forward_calls == 3 and revived.accuracy == 0.25


def _per_example_fab(model, images, labels, steps, eta=1.05, beta=0.9, eps=8 / 255):
    """FAB with its projection written one example at a time (the reference)."""
    n = len(images)
    adversarial, best = images.copy(), images.copy()
    best_distance = np.full(n, np.inf)

    def project(x):
        return np.clip(images + np.clip(x - images, -eps, eps), 0.0, 1.0)

    for _ in range(steps):
        logits, jacobian = eager_jacobian(model, adversarial)
        distances = np.abs(adversarial - images).reshape(n, -1).max(axis=1)
        improved = (np.argmax(logits, axis=1) != labels) & (distances < best_distance)
        best_distance[improved] = distances[improved]
        best[improved] = adversarial[improved]
        for i in range(n):
            y = labels[i]
            margins = logits[i] - logits[i, y]
            gradients = jacobian[:, i] - jacobian[y, i]
            grad_l1 = np.abs(gradients).reshape(len(margins), -1).sum(axis=1)
            grad_l1[y] = np.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                boundary = np.abs(margins) / np.maximum(grad_l1, 1e-12)
            boundary[y] = np.inf
            target = int(np.argmin(boundary))
            g = gradients[target].reshape(-1)
            step = -margins[target] / max(np.abs(g).sum(), 1e-12)
            candidate = adversarial[i].reshape(-1) + eta * step * np.sign(g)
            candidate = beta * candidate + (1.0 - beta) * images[i].reshape(-1)
            adversarial[i] = candidate.reshape(images.shape[1:])
        adversarial = project(adversarial)
    predictions = np.argmax(model.forward(Tensor(adversarial)).data, axis=1)
    distances = np.abs(adversarial - images).reshape(n, -1).max(axis=1)
    improved = (predictions != labels) & (distances < best_distance)
    best[improved] = adversarial[improved]
    best[np.isinf(best_distance) & ~improved] = adversarial[np.isinf(best_distance) & ~improved]
    return project(best)


def test_batched_fab_equals_per_example_reference(trained_small_cnn, batch):
    images, labels = batch
    trained_small_cnn.eval()
    expected = _per_example_fab(trained_small_cnn, images, labels, steps=3)
    assert np.array_equal(FAB(trained_small_cnn, steps=3).attack(images, labels), expected)


def test_cw_margin_seed_matches_autograd_on_ties_and_hinge_edge(small_cnn):
    logits = np.array(
        [
            [5.0, 1.0, 2.0, 2.0],  # hinge active, best other tied: gradient split
            [2.0, 2.0, 1.0, 0.0],  # f == 0 exactly: the hinge passes gradient
            [0.0, 4.0, 1.0, 1.0],  # hinge inactive: no gradient
            [1.0, 3.0, 3.0, 0.0],  # inactive despite the tie
        ]
    )
    labels = np.zeros(4, dtype=np.int64)
    attack = CW(small_cnn, c=2.5, kappa=0.0)
    one_hot = np.zeros_like(logits)
    one_hot[np.arange(4), labels] = 1.0
    z = Tensor(logits, requires_grad=True)
    real = (z * Tensor(one_hot)).sum(axis=1)
    other = (z + Tensor(one_hot * (-1e4))).max(axis=1)
    ((real - other + attack.kappa).maximum(0.0) * attack.c).sum().backward()
    seed = attack._margin_seed(logits, labels)
    assert np.array_equal(seed, z.grad)
    assert seed[0, 2] == seed[0, 3] == -1.25 and seed[1, 0] == 2.5 and not seed[2:].any()
