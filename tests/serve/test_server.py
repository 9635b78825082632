"""In-process server tests: request kinds, identity, caching, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.engine import AttackSpec
from repro.compile import compile_model
from repro.serve import RobustnessServer, ServeClient, ServeError, is_coalescable

BUCKETS = (4, 8, 16)


@pytest.fixture()
def server(small_cnn):
    small_cnn.eval()
    with RobustnessServer(buckets=BUCKETS, max_wait_ms=2.0, workers=2) as srv:
        srv.register("cnn", small_cnn)
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server)


@pytest.fixture()
def offline(small_cnn, tiny_images):
    """The offline compiled comparator: same module, bucket-warmed plans."""
    compiled = compile_model(small_cnn, np.zeros((BUCKETS[-1],) + tiny_images.shape[1:]))
    compiled.warm(np.zeros((b,) + tiny_images.shape[1:]) for b in BUCKETS)
    return compiled


def offline_classify(compiled, images):
    """Predictions through the same padded-bucket plan path the server uses."""
    sizes = [b for b in BUCKETS if len(images) <= b]
    padded = np.zeros((sizes[0],) + images.shape[1:], dtype=images.dtype)
    padded[: len(images)] = images
    return compiled.predict(padded)[: len(images)].copy()


class TestClassify:
    def test_matches_offline_plan(self, client, offline, tiny_images):
        out = client.classify("cnn", tiny_images[:5])
        np.testing.assert_array_equal(
            out["predictions"], offline_classify(offline, tiny_images[:5])
        )

    def test_return_logits(self, client, tiny_images):
        out = client.classify("cnn", tiny_images[:3], return_logits=True)
        assert out["logits"].shape == (3, 10)
        np.testing.assert_array_equal(
            out["predictions"], np.argmax(out["logits"], axis=1)
        )

    def test_large_request_chunked_across_buckets(self, client, offline, tiny_dataset):
        images = tiny_dataset.x_test[:40]  # 40 > max bucket -> 16+16+8 chunks
        out = client.classify("cnn", images)
        expected = np.concatenate(
            [offline_classify(offline, images[s : s + 16]) for s in (0, 16, 32)]
        )
        np.testing.assert_array_equal(out["predictions"], expected)


class TestAttack:
    def test_deterministic_attack_byte_identical(
        self, client, small_cnn, offline, tiny_images, tiny_labels
    ):
        spec = AttackSpec("fgsm", dict(eps=8 / 255))
        out = client.attack("cnn", spec, tiny_images[:6], tiny_labels[:6])
        reference = (
            spec.build(small_cnn)
            .use_compiled(offline)
            .attack(tiny_images[:6], tiny_labels[:6])
        )
        assert out["adversarial"].tobytes() == reference.tobytes()

    def test_stochastic_attack_runs_whole_with_fresh_rng(
        self, client, small_cnn, offline, tiny_images, tiny_labels
    ):
        spec = AttackSpec("pgd", dict(eps=8 / 255, alpha=2 / 255, steps=3, seed=7))
        assert not is_coalescable(spec)  # random_start defaults True
        out = client.attack("cnn", spec, tiny_images[:5], tiny_labels[:5])
        reference = (
            spec.build(small_cnn)
            .use_compiled(offline)
            .attack(tiny_images[:5], tiny_labels[:5])
        )
        assert out["adversarial"].tobytes() == reference.tobytes()

    def test_pgd_without_random_start_coalesces(self):
        spec = AttackSpec("pgd", dict(random_start=False))
        assert is_coalescable(spec)
        assert not is_coalescable(AttackSpec("cw"))
        assert not is_coalescable(AttackSpec("deepfool"))
        assert not is_coalescable(AttackSpec("fab"))


class TestRobustness:
    def test_matches_offline_engine(self, client, small_cnn, tiny_images, tiny_labels):
        from repro.evaluation import evaluate_robustness

        suite = [AttackSpec("fgsm", dict(eps=8 / 255))]
        out = client.robustness(
            "cnn", tiny_images, tiny_labels, suite=suite, options={"batch_size": 16}
        )
        reference = evaluate_robustness(
            small_cnn,
            tiny_images,
            tiny_labels,
            attacks=suite,
            method_name="cnn",
            batch_size=16,
            compile=True,
        )
        assert out["report"]["natural"] == reference.natural
        assert out["report"]["adversarial"] == dict(reference.adversarial)
        assert out["cached"] is False  # live modules are never report-cached

    def test_rejects_unknown_options(self, client, tiny_images, tiny_labels):
        with pytest.raises(ServeError, match="unknown robustness options"):
            client.robustness(
                "cnn", tiny_images, tiny_labels, options={"verbose": True}
            )


class TestRobustnessReportCache:
    def test_read_through_store_cache(self, tmp_path, tiny_images, tiny_labels):
        from repro.experiments import ArtifactStore, ExperimentRunner, ExperimentSpec

        store = ArtifactStore(tmp_path / "store")
        spec = ExperimentSpec(
            dataset="cifar10",
            dataset_params={"n_train": 64, "n_test": 32, "image_size": 16, "seed": 0},
            model="smallcnn",
            model_params={"image_size": 16, "base_channels": 4, "hidden_dim": 16, "seed": 0},
            loss="ce",
            epochs=1,
            batch_size=32,
            seed=0,
            name="serve-cache",
        )
        model, history, timing = ExperimentRunner(store=store).train(spec)
        store.save_model(spec, model, history=history, timing=timing)
        images = tiny_images[:8]
        labels = tiny_labels[:8]
        suite = [AttackSpec("fgsm", dict(eps=8 / 255))]
        with RobustnessServer(store=store, buckets=(4, 8), workers=1) as srv:
            client = ServeClient(srv)
            first = client.robustness(
                spec.training_hash[:10], images, labels, suite=suite
            )
            second = client.robustness(
                spec.training_hash[:10], images, labels, suite=suite
            )
            assert first["cached"] is False and second["cached"] is True
            assert first["report"] == second["report"]
            assert store.has_serve_report(first["key"])
            # Different data -> different key -> recompute.
            third = client.robustness(
                spec.training_hash[:10], images[:4], labels[:4], suite=suite
            )
            assert third["cached"] is False and third["key"] != first["key"]
            stats = client.stats()["server"]["report_cache"]
            assert stats == {"hits": 1, "misses": 2}


class TestStatsAndErrors:
    def test_stats_shape(self, client, tiny_images):
        client.classify("cnn", tiny_images[:4])
        stats = client.stats()
        server_stats = stats["server"]
        for key in (
            "examples_per_sec",
            "pad_waste_pct",
            "batches",
            "latency_ms",
            "queue_ms",
        ):
            assert key in server_stats
        assert {"p50", "p95", "p99"} <= set(server_stats["latency_ms"])
        assert stats["buckets"] == list(BUCKETS)
        assert "cnn" in stats["models"]
        cache = stats["models"]["cnn"]["cache"]
        assert cache["builds"] >= 1 and cache["build_failures"] == 0

    def test_unknown_model_fails_request(self, client, tiny_images):
        with pytest.raises(ServeError, match="unknown model"):
            client.classify("nope", tiny_images[:2])

    def test_malformed_requests_rejected(self, server, tiny_images):
        assert server.handle({"kind": "warp"})["ok"] is False
        assert server.handle({"kind": "classify", "model": "cnn"})["ok"] is False
        assert (
            server.handle(
                {
                    "kind": "attack",
                    "model": "cnn",
                    "images": tiny_images[:2].tolist(),
                }
            )["ok"]
            is False
        )

    def test_responses_echo_request_id(self, server, tiny_images):
        from repro.serve.protocol import encode_payload

        response = server.handle(
            encode_payload(
                {"id": "req-77", "kind": "classify", "model": "cnn", "images": tiny_images[:2]}
            )
        )
        assert response["id"] == "req-77" and response["ok"] is True
