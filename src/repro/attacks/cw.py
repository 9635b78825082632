"""Carlini & Wagner attack (Carlini & Wagner, 2017).

The paper evaluates with the Torchattacks ``CW`` implementation (L2 attack,
``steps = 200`` by default, swept from 10 to 50 steps in Figure 2b).  This
module reproduces that formulation: the perturbation is optimized in tanh
space with Adam, minimizing

    || x_adv - x ||_2^2  +  c * f(x_adv),
    f(x_adv) = max( Z_y - max_{i != y} Z_i, -kappa )

for an untargeted attack, where ``Z`` are the logits.  The best (lowest
distortion) adversarial example found over the optimization is returned; if
no misclassification is found, the final iterate is returned, matching the
Torchattacks behaviour of always returning a perturbed image.
"""

from __future__ import annotations

import numpy as np

from ..models.base import ImageClassifier
from .base import Attack

__all__ = ["CW"]


def _atanh(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.log((1 + x) / (1 - x))


class CW(Attack):
    """L2 Carlini-Wagner attack optimized with Adam in tanh space."""

    name = "cw"

    def __init__(
        self,
        model: ImageClassifier,
        c: float = 1.0,
        kappa: float = 0.0,
        steps: int = 200,
        lr: float = 0.01,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ) -> None:
        # eps is unused by the L2 formulation but kept for the common interface.
        super().__init__(model, eps=0.0, clip_min=clip_min, clip_max=clip_max)
        if steps < 1:
            raise ValueError("CW needs at least one optimization step")
        self.c = c
        self.kappa = kappa
        self.steps = steps
        self.lr = lr

    def _margin_seed(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """``d/dlogits`` of ``c * f`` summed over the batch.

        Matches autograd on the loss as written: ties in the best-other
        ``max`` share its gradient evenly, and the hinge passes gradient at
        exactly ``f = 0``.
        """
        n = len(labels)
        one_hot = np.zeros_like(logits)
        one_hot[np.arange(n), labels] = 1.0
        shifted = logits + one_hot * (-1e4)
        other = shifted.max(axis=1, keepdims=True)
        real = logits[np.arange(n), labels][:, None]
        # Untargeted: push the true-class logit below the best other logit.
        active = (real - other + self.kappa) >= 0.0
        weight = self.c * active
        ties = shifted == other
        return one_hot * weight - ties * weight / ties.sum(axis=1, keepdims=True)

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        n = images.shape[0]
        span = self.clip_max - self.clip_min
        # Map images into tanh space; the 0.999999 margin avoids infinities.
        scaled = (images - self.clip_min) / span * 2.0 - 1.0
        w = _atanh(np.clip(scaled, -0.999999, 0.999999))

        best_adv = images.copy()
        best_l2 = np.full(n, np.inf)

        # Adam state for the perturbation variable.
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        beta1, beta2, adam_eps = 0.9, 0.999, 1e-8

        def seed_fn(logits: np.ndarray) -> np.ndarray:
            return self._margin_seed(logits, labels)

        for step in range(1, self.steps + 1):
            tanh_w = np.tanh(w)
            adv = (tanh_w + 1.0) * (span / 2.0) + self.clip_min
            logits, logits_grad = self._logits_and_vjp(adv, seed_fn)
            predictions = np.argmax(logits, axis=1)
            # Chain rule of sum(||adv - x||^2 + c * f) through adv = tanh-space map of w.
            gradient = (2.0 * (adv - images) + logits_grad) * (span / 2.0) * (1.0 - tanh_w ** 2)

            # Track the best adversarial examples so far.
            l2 = ((adv - images) ** 2).sum(axis=(1, 2, 3))
            improved = (predictions != labels) & (l2 < best_l2)
            best_l2[improved] = l2[improved]
            best_adv[improved] = adv[improved]

            m = beta1 * m + (1 - beta1) * gradient
            v = beta2 * v + (1 - beta2) * gradient * gradient
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            w = w - self.lr * m_hat / (np.sqrt(v_hat) + adam_eps)

        # Examples never misclassified fall back to the final iterate.
        final_adv = (np.tanh(w) + 1.0) * (span / 2.0) + self.clip_min
        never_successful = np.isinf(best_l2)
        best_adv[never_successful] = final_adv[never_successful]
        return np.clip(best_adv, self.clip_min, self.clip_max)
