"""Batching-identity property test.

The server's contract: results are byte-identical to the offline compiled
engine **regardless of how requests were coalesced, padded or interleaved**.
A plan's logits can differ in the last bits between batch sizes, so only
work that absorbs those bits is coalesced into padded bucket batches
(predictions and the sign-step attacks); CW, which carries raw gradient
values through Adam, is served whole at the request's own shape, and its
reference runs the same way offline.  This test fires a randomized mix of
classify and deterministic-attack requests from several threads in
randomized arrival orders (so batches mix chunks from different requests
non-deterministically) and checks every response bitwise against
serially-computed offline references.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.attacks.engine import AttackSpec
from repro.compile import compile_model
from repro.compile.training import LiveEvalModel
from repro.serve import RobustnessServer, ServeClient, is_coalescable

BUCKETS = (4, 8, 16)

SPECS = [
    AttackSpec("fgsm", dict(eps=8 / 255)),
    AttackSpec("pgd", dict(eps=8 / 255, alpha=2 / 255, steps=3, random_start=False)),
    AttackSpec("nifgsm", dict(eps=8 / 255, alpha=2 / 255, steps=3)),
    AttackSpec("cw", dict(steps=3)),
]


def offline_references(model, requests, image_shape):
    """Serial, coalescing-free results for every request (compiled path)."""
    compiled = compile_model(model, np.zeros((BUCKETS[-1],) + image_shape))
    compiled.warm(np.zeros((b,) + image_shape) for b in BUCKETS)
    references = []
    for kind, spec, images, labels in requests:
        if kind == "classify":
            parts = []
            for start in range(0, len(images), BUCKETS[-1]):
                chunk = images[start : start + BUCKETS[-1]]
                padded = np.zeros(
                    ([b for b in BUCKETS if len(chunk) <= b][0],) + image_shape,
                    dtype=chunk.dtype,
                )
                padded[: len(chunk)] = chunk
                parts.append(compiled.predict(padded)[: len(chunk)].copy())
            references.append(np.concatenate(parts))
        elif is_coalescable(spec):
            attack = spec.build(model).use_compiled(compiled)
            references.append(attack.attack(images, labels))
        else:
            # Served whole through the registered module's live view, with
            # the request's own signature warmed.
            view = LiveEvalModel(model)
            view.warm([images])
            references.append(spec.build(model).use_compiled(view).attack(images, labels))
    return references


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_arrival_orders_are_byte_identical(
    seed, small_cnn, tiny_dataset
):
    small_cnn.eval()
    rng = np.random.default_rng(seed)
    pool_images = tiny_dataset.x_test
    pool_labels = tiny_dataset.y_test

    requests = []
    for _ in range(14):
        n = int(rng.integers(1, 2 * BUCKETS[-1]))
        picks = rng.integers(0, len(pool_images), size=n)
        images = pool_images[picks].copy()
        labels = pool_labels[picks].copy()
        if rng.random() < 0.5:
            requests.append(("classify", None, images, None))
        else:
            spec = SPECS[int(rng.integers(0, len(SPECS)))]
            requests.append(("attack", spec, images, labels))

    references = offline_references(
        small_cnn, requests, tuple(pool_images.shape[1:])
    )

    results = [None] * len(requests)
    with RobustnessServer(buckets=BUCKETS, max_wait_ms=2.0, workers=2) as server:
        server.register("cnn", small_cnn)
        client = ServeClient(server)
        order = rng.permutation(len(requests))
        delays = rng.random(len(requests)) * 0.004

        def fire(index, delay):
            time.sleep(delay)
            kind, spec, images, labels = requests[index]
            if kind == "classify":
                results[index] = client.classify("cnn", images)["predictions"]
            else:
                results[index] = client.attack("cnn", spec, images, labels)[
                    "adversarial"
                ]

        threads = [
            threading.Thread(target=fire, args=(int(index), float(delay)))
            for index, delay in zip(order, delays)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

    for index, (result, reference) in enumerate(zip(results, references)):
        assert result is not None, f"request {index} never completed"
        assert result.tobytes() == reference.tobytes(), (
            f"request {index} ({requests[index][0]}) differed from the offline engine"
        )
