"""``serve_classify``: a closed loop of classify requests into ``RobustnessServer``.

The server runs in process with one worker thread and buckets 4/8/16/32.
Two client threads split a fixed sequence of classify requests of 1-8
examples each, whose rows the seed picks; a client sends its next request
when the previous one has been answered.  A unit is the whole sequence.  Every answer is compared
byte for byte with offline compiled evaluation of the same rows.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .common import Checks, clock, metric, percentile, timed_median
from .layers import SERVE_BUCKETS, SpanIndex

SETUP_REPEATS = 9
MODEL_ID = "vgg16"
#: how long a server worker blocks in one ``RequestQueue.next_work`` poll
POLL_SECONDS = 0.05
#: 200 latencies per unit, so one unit already has 10 beyond its p95
REQUESTS = 200
MAX_REQUEST = 8
CLIENTS = 2
MAX_WAIT_MS = 5.0
#: every n-th request also asks for logits, compared byte for byte
LOGITS_EVERY = 8


@dataclass(frozen=True)
class Scale:
    model: str = "vgg16"
    model_kwargs: Dict[str, float] = field(default_factory=lambda: {"width_multiplier": 0.125})
    image_size: int = 32
    pool: int = 64


BENCH = Scale()
TINY = Scale(
    model="smallcnn",
    model_kwargs={"base_channels": 4, "hidden_dim": 16},
    image_size=16,
    pool=16,
)


class ServeClassify:
    name = "serve_classify"

    def __init__(self, seed: int, scale: Scale = BENCH) -> None:
        self.seed, self.scale = seed, scale
        self.checks = Checks()
        self.server = None
        self.latencies: List[float] = []
        self.pending: List[List[dict]] = []

    def _start(self):
        """Data, model and a started server whose bucket plans are warm."""
        from repro.data import synthetic_cifar10
        from repro.models import build_model
        from repro.serve import RobustnessServer

        scale = self.scale
        if self.server is not None:
            self.server.stop()
            self.server = None
        data = synthetic_cifar10(n_train=1, n_test=scale.pool, image_size=scale.image_size, seed=self.seed)
        model = build_model(scale.model, image_size=scale.image_size, seed=self.seed, **scale.model_kwargs)
        model.eval()
        server = RobustnessServer(buckets=SERVE_BUCKETS, max_wait_ms=MAX_WAIT_MS, workers=1)
        server.start()
        self.server = server
        server.register(MODEL_ID, model)
        warm = server.submit({"kind": "classify", "model": MODEL_ID, "images": data.x_test[:1]}).result()
        if not warm.get("ok"):
            raise RuntimeError(f"warm-up request failed: {warm}")
        return model, data.x_test

    def setup(self) -> float:
        seconds, (self.model, pool) = timed_median(self._start, SETUP_REPEATS)
        # Every seed sends the same sequence of request sizes (an equal
        # number of each size, in one fixed shuffled order), so the requests
        # that can share a padded batch are the same; the seed picks the rows.
        sizes = np.random.default_rng(0).permutation(np.resize(np.arange(1, MAX_REQUEST + 1), REQUESTS))
        rng = np.random.default_rng(self.seed)
        self.rows = [rng.integers(0, len(pool), size=int(n)) for n in sizes]
        self.messages = [
            {
                "id": index,
                "kind": "classify",
                "model": MODEL_ID,
                "images": pool[rows],
                "return_logits": index % LOGITS_EVERY == 0,
            }
            for index, rows in enumerate(self.rows)
        ]
        self.examples = sum(len(rows) for rows in self.rows)
        self.expected = self._offline(pool)
        return seconds

    def _offline(self, pool: np.ndarray) -> List[Tuple[bytes, set]]:
        """Each request's predictions and logits from offline compiled evaluation.

        The served module is a live in-process module, so the offline side
        uses the same live-parameter eval plans.  A row's result does not
        depend on its position in a batch, but its logits differ in the last
        bit between bucket sizes, and the server pads a batch to the
        smallest bucket that holds all its co-riders.  So the pool is
        evaluated once per bucket size, every bucket that can hold a request
        gives one accepted logits value, and predictions must equal the
        smallest such bucket's.
        """
        from repro.compile.training import LiveEvalModel

        shape = pool.shape[1:]
        offline = LiveEvalModel(self.model, max_plans=len(SERVE_BUCKETS) + 4)
        offline.warm(np.zeros((b,) + shape) for b in SERVE_BUCKETS)
        per_bucket = {}
        for bucket in SERVE_BUCKETS:
            parts = []
            for start in range(0, len(pool), bucket):
                chunk = pool[start : start + bucket]
                padded = np.zeros((bucket,) + shape)
                padded[: len(chunk)] = chunk
                parts.append(offline(padded)[: len(chunk)].copy())
            per_bucket[bucket] = np.concatenate(parts)
        expected = []
        for rows in self.rows:
            fits = [b for b in SERVE_BUCKETS if b >= len(rows)]
            predictions = np.argmax(per_bucket[fits[0]][rows], axis=1).tobytes()
            expected.append((predictions, {per_bucket[b][rows].tobytes() for b in fits}))
        return expected

    def traced_pass_starts(self) -> None:
        """Let the worker leave the untraced queue poll it may be blocked in."""
        time.sleep(4 * POLL_SECONDS)

    def unit(self, index: int, tracer=None) -> None:
        server = self.server
        latencies: List[List[float]] = [[] for _ in range(CLIENTS)]
        responses: List[dict] = [None] * len(self.messages)

        def client(slot: int) -> None:
            for request in range(slot, len(self.messages), CLIENTS):
                start = clock()
                if tracer is None:
                    response = server.submit(self.messages[request]).result()
                else:
                    with tracer.span("bench.request", request=request):
                        response = server.submit(self.messages[request]).result()
                latencies[slot].append(clock() - start)
                responses[request] = response

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if tracer is None:
            self.latencies.extend(l for per_client in latencies for l in per_client)
        self.pending.append(responses)

    def _check_responses(self, responses: List[dict]) -> None:
        from repro.serve.protocol import decode_payload

        for request, response in enumerate(responses):
            ok = response is not None and response.get("ok")
            if not self.checks.expect(bool(ok), f"request {request} failed: {response}"):
                continue
            result = decode_payload(response["result"])
            predictions, logits = self.expected[request]
            self.checks.expect(
                result["predictions"].tobytes() == predictions
                and ("logits" not in result or result["logits"].tobytes() in logits),
                f"request {request} differs from offline compiled evaluation",
            )

    def end_to_end(self, durations: List[float]) -> Dict[str, dict]:
        return {"ex_per_s": metric(statistics.median(self.examples / d for d in durations), "ex/s")}

    def counters(self) -> Dict[str, int]:
        stats = self.server.stats
        cache = self.server.pool.stats()[MODEL_ID]["cache"]
        return {
            "batches": stats.batches,
            "classify": stats.requests.get("classify", 0),
            "cache.hits": cache.get("hits", 0),
        }

    def per_layer(self, index: SpanIndex, units: int, before, after) -> Dict[str, float]:
        spans = index.spans
        put_at: Dict[str, float] = {}
        for i in index.named("serve.put"):
            for request in spans[i].attrs["requests"]:
                put_at[request] = spans[i].start
        waits: Dict[str, float] = {}
        batches = []  # (next_work span, serve.batch span)
        pending: Dict[int, int] = {}
        for i, span in enumerate(spans):
            if span.name == "serve.next_work" and span.attrs:
                pending[span.thread] = i
                for request in span.attrs["requests"]:
                    waits[request] = span.end - put_at[request]
            elif span.name == "serve.batch":
                batches.append((pending.pop(span.thread), i))
        replay_by_request: Dict[str, float] = {}
        replay_by_bucket: Dict[int, List[float]] = {b: [] for b in SERVE_BUCKETS}
        real = padded = busy = 0.0
        for work, batch in batches:
            attrs = spans[work].attrs
            replay = index.total_ms(index.named("compile.replay_fwd", batch)) / 1e3
            replay_by_bucket[attrs["pad_to"]].append(replay * 1e3)
            for request in attrs["requests"]:
                replay_by_request[request] = replay
            real += attrs["examples"]
            padded += attrs["pad_to"]
            busy += spans[batch].seconds
        overheads = []
        for i in index.named("bench.request"):
            put = index.named("serve.put", i)
            request = spans[put[0]].attrs["requests"][0]
            overheads.append((spans[i].seconds - waits[request] - replay_by_request[request]) * 1e3)
        wait_ms = [w * 1e3 for w in waits.values()]
        unit_seconds = sum(spans[u].seconds for u in index.named("bench.unit"))
        out = {
            "serve.p50_ms": percentile(self.latencies, 50) * 1e3,
            "serve.p95_ms": percentile(self.latencies, 95) * 1e3,
            "serve.queue_wait_p50_ms": percentile(wait_ms, 50),
            "serve.queue_wait_p95_ms": percentile(wait_ms, 95),
            "serve.batch_fill": real / padded,
            "serve.batches": len(batches) / units,
            "serve.batch_examples_mean": real / len(batches),
            "serve.request_overhead_ms": float(np.median(overheads)),
            "serve.worker_busy_share": busy / unit_seconds,
        }
        for bucket, times in replay_by_bucket.items():
            out[f"serve.replay_ms.b{bucket}"] = float(np.mean(times)) if times else 0.0
        stats = self.server.stats
        out["serve.failed"] = float(stats.errors)
        out["serve.shed"] = float(stats.shed)
        out["serve.deadline_exceeded"] = float(stats.deadline_exceeded)
        out.update(index.shared_compile_metrics(units))
        traced = {
            "batches": len(batches),
            "classify": len(index.named("bench.request")),
            "cache.hits": sum(1 for l in index.named("compile.cache_lookup") if spans[l].attrs["hit"]),
        }
        for key, count in traced.items():
            program = after[key] - before[key]
            self.checks.expect(count == program, f"traced {key}={count} but the server counted {program}")
        return out

    def finish(self) -> None:
        for responses in self.pending:
            self._check_responses(responses)
        self.pending = []
        stats = self.server.stats
        for key in ("errors", "shed", "deadline_exceeded"):
            value = getattr(stats, key)
            self.checks.expect(value == 0, f"server counted {value} {key}")

    def info(self) -> Dict[str, object]:
        return {
            "requests": REQUESTS,
            "examples": self.examples,
            "latency_p50_ms": percentile(self.latencies, 50) * 1e3,
            "latency_p95_ms": percentile(self.latencies, 95) * 1e3,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
