"""Fast Adaptive Boundary attack (Croce & Hein, 2020).

FAB searches for a minimal-norm perturbation by repeatedly projecting onto a
linearization of the closest decision boundary and biasing the iterate back
toward the original image.  The full FAB algorithm alternates a projection on
the intersection of the linearized boundary with the input box and an
extrapolation step; this implementation follows that scheme for the L_inf
norm with the standard simplifications used in lightweight re-implementations:

1. at each step, linearize ``f_k(x) = Z_k(x) - Z_y(x)`` for every class
   ``k != y`` and pick the class whose boundary is closest in the scaled
   L_inf metric;
2. project the current iterate onto that hyperplane (minimal L_inf step) and
   take a slightly overshooting step (``eta``) toward it;
3. bias the iterate back toward the original image with weight ``beta``
   (FAB's backward step), keeping the perturbation small;
4. finally, clip into the eps-ball / valid range, as the paper evaluates FAB
   at the same eps as the other attacks.

The attack is gradient-based and white-box, like the original.
"""

from __future__ import annotations

import numpy as np

from ..models.base import ImageClassifier
from .base import Attack

__all__ = ["FAB"]


class FAB(Attack):
    """Minimal-distortion boundary attack, evaluated inside an L_inf eps-ball."""

    name = "fab"

    def __init__(
        self,
        model: ImageClassifier,
        eps: float = 8.0 / 255.0,
        steps: int = 10,
        eta: float = 1.05,
        beta: float = 0.9,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(model, eps=eps, clip_min=clip_min, clip_max=clip_max)
        if steps < 1:
            raise ValueError("FAB needs at least one step")
        self.steps = steps
        self.eta = eta
        self.beta = beta
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        n = images.shape[0]
        rows = np.arange(n)
        adversarial = images.copy()
        best = images.copy()
        best_distance = np.full(n, np.inf)
        original = images.reshape(n, -1)

        for _ in range(self.steps):
            logits, jacobian = self._logits_and_jacobian(adversarial)
            predictions = np.argmax(logits, axis=1)

            # Record currently-misclassified iterates with the smallest distortion.
            distances = np.abs(adversarial - images).reshape(n, -1).max(axis=1)
            improved = (predictions != labels) & (distances < best_distance)
            best_distance[improved] = distances[improved]
            best[improved] = adversarial[improved]

            # Difference functions f_k = Z_k - Z_y, linearized at the iterate:
            # margins (N, K) and gradients (K, N, D).
            margins = logits - logits[rows, labels][:, None]
            flat = jacobian.reshape(jacobian.shape[0], n, -1)
            gradients = flat - flat[labels, rows][None]
            grad_l1 = np.abs(gradients).sum(axis=2)
            grad_l1[labels, rows] = np.inf
            # Distance to each linearized boundary in the L_inf metric
            # is |f_k| / ||grad f_k||_1.
            with np.errstate(divide="ignore", invalid="ignore"):
                boundary_distance = np.abs(margins) / np.maximum(grad_l1.T, 1e-12)
            boundary_distance[rows, labels] = np.inf
            target = np.argmin(boundary_distance, axis=1)

            g = gradients[target, rows]
            f_val = margins[rows, target]
            denom = np.maximum(np.abs(g).sum(axis=1), 1e-12)
            # Minimal L_inf projection onto the hyperplane f + g . delta = 0
            # moves every coordinate by the same magnitude along sign(g).
            step_size = -f_val / denom
            candidate = adversarial.reshape(n, -1) + (self.eta * step_size)[:, None] * np.sign(g)

            # Backward step: bias toward the original image (FAB's beta step).
            candidate = self.beta * candidate + (1.0 - self.beta) * original
            adversarial = self._project(candidate.reshape(images.shape), images)

        # Final bookkeeping with the last iterate.
        predictions = np.argmax(self._logits(adversarial), axis=1)
        distances = np.abs(adversarial - images).reshape(n, -1).max(axis=1)
        improved = (predictions != labels) & (distances < best_distance)
        best[improved] = adversarial[improved]
        still_clean = np.isinf(best_distance) & ~improved
        best[still_clean] = adversarial[still_clean]
        return self._project(best, images)
