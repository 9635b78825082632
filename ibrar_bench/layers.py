"""The layers' traced entry points, span queries and the declared per-layer metrics.

Every span name starts with the layer it belongs to (``data``, ``nn``,
``compile``, ``training``, ``core``, ``ib``, ``attacks``, ``serve``); spans the
benchmark opens itself start with ``bench`` and are not a layer.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from .tracer import Span, Target, self_times

LOSSES = ("pgd_at", "trades", "mart", "ibrar")
ATTACKS = ("pgd", "cw", "fgsm", "fab", "nifgsm")
SERVE_BUCKETS = (4, 8, 16, 32)

# --------------------------------------------------------------------------- #
# computed conv FLOPs per plan
# --------------------------------------------------------------------------- #
class ConvFlops:
    """Forward conv FLOPs of one replay of a plan, computed from its graph.

    ``2 * N * OC * OH * OW * C * K * K`` summed over the plan's ``conv2d``
    nodes; cached while the plan object lives.
    """

    def __init__(self) -> None:
        self._cache: Dict[int, float] = {}

    def __call__(self, plan) -> float:
        key = id(plan)
        flops = self._cache.get(key)
        if flops is None:
            graph = plan.graph
            flops = 0.0
            for node in graph.nodes:
                if node.op != "conv2d":
                    continue
                n, oc, oh, ow = node.shape
                _, c, kh, kw = graph.node(node.inputs[1]).shape
                flops += 2.0 * n * oc * oh * ow * c * kh * kw
            self._cache[key] = flops
            weakref.finalize(plan, self._cache.pop, key, None)
        return flops


def _backward_multiplier(plan, full: bool) -> float:
    """Backward conv FLOPs as a multiple of the forward's (computed, not measured).

    An input-gradient program costs one forward's worth of conv GEMMs; a
    program that also accumulates weight gradients costs two.
    """
    return 2.0 if full and plan.grad_mode in ("params", "both") else 1.0


# --------------------------------------------------------------------------- #
# span attribute hooks
# --------------------------------------------------------------------------- #
def _pool_allocs(args, kwargs):
    return args[0].pool.allocations


def _replay_attrs(conv_flops: ConvFlops, multiplier):
    """Span attributes of a plan replay: batch size, pool allocations, conv FLOPs."""

    def attrs(args, kwargs, result, before):
        plan = args[0]
        return {
            "n": plan.input_shape[0],
            "allocs": plan.pool.allocations - before,
            "flops": conv_flops(plan) * multiplier(plan),
        }

    return attrs


def _step_attrs(args, kwargs, result, before):
    return {"compiled": result is not None}


def _lookup_before(args, kwargs):
    return args[0].builds


def _lookup_attrs(args, kwargs, result, before):
    return {"hit": result is not None and args[0].builds == before}


def _attack_attrs(args, kwargs, result, before):
    attack = args[0]
    return {"attack": attack.name, "n": len(args[1])}


def _request_key(request) -> str:
    """A request's identity that stays unique across units: its id and enqueue time."""
    return f"{request.id}@{request.enqueued!r}"


def _put_attrs(args, kwargs, result, before):
    return {"requests": [_request_key(item.request) for item in args[2]]}


def _next_work_attrs(args, kwargs, result, before):
    if not result or result[0] != "batch":
        return None
    batch = result[1]
    return {
        "requests": [_request_key(item.request) for item in batch.items],
        "examples": batch.examples,
        "pad_to": batch.pad_to,
    }


def targets() -> List[Target]:
    """The public entry points the traced run wraps, one span name each."""
    flops = ConvFlops()
    forward = _replay_attrs(flops, lambda plan: 1.0)
    input_backward = _replay_attrs(flops, lambda plan: _backward_multiplier(plan, False))
    full_backward = _replay_attrs(flops, lambda plan: _backward_multiplier(plan, True))
    return [
        Target("data.batch", "repro.data.loaders:DataLoader.__iter__", generator=True),
        Target("nn.forward", "repro.models.base:ImageClassifier.forward_with_hidden", subclasses=True),
        Target("nn.backward", "repro.nn.tensor:Tensor.backward"),
        Target("nn.optim_step", "repro.nn.optim:Optimizer.step", subclasses=True),
        Target("nn.optim_step", "repro.nn.optim:Optimizer.step_with_grads", subclasses=True),
        Target("compile.capture", "repro.compile.graph:capture_forward"),
        Target("compile.optimize", "repro.compile.passes:optimize"),
        Target("compile.plan_bind", "repro.compile.executor:Plan.__init__"),
        Target("compile.replay_fwd", "repro.compile.executor:Plan.forward", forward, _pool_allocs),
        Target("compile.replay_bwd", "repro.compile.executor:Plan.backward", input_backward, _pool_allocs),
        Target("compile.replay_bwd", "repro.compile.executor:Plan.run_backward", full_backward, _pool_allocs),
        Target("compile.grad_replay", "repro.compile.executor:Plan.value_and_grad_ce"),
        Target("compile.predict", "repro.compile.model:CompiledModel.predict"),
        Target("compile.cache_lookup", "repro.compile.cache:SignatureCache.lookup", _lookup_attrs, _lookup_before),
        Target("training.epoch", "repro.training.trainer:Trainer.train_epoch"),
        Target("training.step", "repro.compile.training:CompiledTrainer.train_batch", _step_attrs),
        Target("core.mi_loss", "repro.core.losses:MILoss.loss_and_logits"),
        Target("core.mask_refresh", "repro.core.mask:FeatureChannelMask.apply"),
        Target("ib.mi_score", "repro.core.mask:FeatureChannelMask.scores"),
        Target("attacks.engine_run", "repro.attacks.engine:AttackEngine.run"),
        Target("attacks.attack", "repro.attacks.base:Attack.attack", _attack_attrs),
        Target("serve.submit", "repro.serve.server:RobustnessServer.submit"),
        Target("serve.put", "repro.serve.queueing:RequestQueue.put_items", _put_attrs),
        Target("serve.next_work", "repro.serve.queueing:RequestQueue.next_work", _next_work_attrs),
        Target("serve.batch", "repro.serve.server:RobustnessServer._run_batch"),
    ]


# --------------------------------------------------------------------------- #
# span queries
# --------------------------------------------------------------------------- #
class SpanIndex:
    """Parent/child lookups and self times over one list of spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.own = self_times(self.spans)
        self.children: List[List[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                self.children[span.parent].append(index)

    def named(self, name: str, within: Optional[int] = None) -> List[int]:
        pool = range(len(self.spans)) if within is None else self.descendants(within)
        return [i for i in pool if self.spans[i].name == name]

    def descendants(self, index: int) -> Iterator[int]:
        stack = list(reversed(self.children[index]))
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.children[current]))

    def ancestor(self, index: int, name: str) -> Optional[int]:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return parent
            parent = self.spans[parent].parent
        return None

    def under(self, index: int, name: str) -> bool:
        return self.ancestor(index, name) is not None

    def total_ms(self, indices, own: bool = False) -> float:
        if own:
            return sum(self.own[i] for i in indices) * 1e3
        return sum(self.spans[i].seconds for i in indices) * 1e3

    def eager(self, name: str, within: Optional[int] = None) -> List[int]:
        """``name`` spans that are real eager work, not a capture's traced forward."""
        return [i for i in self.named(name, within) if not self.under(i, "compile.capture")]

    def shared_compile_metrics(self, units: int, within: Optional[List[int]] = None) -> Dict[str, float]:
        """``compile.*``/``nn.*`` metrics per unit over the given root spans."""
        roots = within if within is not None else [None]

        def collect(name: str) -> List[int]:
            found: List[int] = []
            for root in roots:
                found.extend(self.named(name, root))
            return found

        captures = collect("compile.capture")
        binds = collect("compile.plan_bind")
        optimizes = collect("compile.optimize")
        fwd = collect("compile.replay_fwd")
        bwd = collect("compile.replay_bwd")
        lookups = collect("compile.cache_lookup")
        replay_ms = self.total_ms(fwd + bwd, own=True)
        flops = sum((self.spans[i].attrs or {}).get("flops", 0.0) for i in fwd + bwd)
        hits = sum(1 for i in lookups if (self.spans[i].attrs or {}).get("hit"))
        forwards = [i for i in collect("nn.forward") if not self.under(i, "compile.capture")]
        backwards = collect("nn.backward")
        return {
            "compile.captures": len(captures) / units,
            "compile.capture_ms": self.total_ms(captures) / max(len(captures), 1),
            "compile.plans_built": len(binds) / units,
            "compile.plan_build_ms": (self.total_ms(binds) + self.total_ms(optimizes)) / max(len(binds), 1),
            "compile.replay_fwd_ms": self.total_ms(fwd, own=True) / units,
            "compile.replay_bwd_ms": self.total_ms(bwd, own=True) / units,
            "compile.conv_gflops": flops / (replay_ms * 1e6) if replay_ms else 0.0,
            "compile.steady_pool_allocs": float(
                sum((self.spans[i].attrs or {}).get("allocs", 0) for i in fwd + bwd)
            ),
            "compile.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
            "nn.optim_step_ms": self.total_ms(collect("nn.optim_step"), own=True) / units,
            "nn.eager_forward_ms": self.total_ms(forwards) / units,
            "nn.eager_backward_ms": self.total_ms(backwards) / units,
            "data.batch_wait_ms": self.total_ms(collect("data.batch")) / units,
        }


# --------------------------------------------------------------------------- #
# the declared per-layer metrics
# --------------------------------------------------------------------------- #
def declared_per_layer() -> Dict[str, str]:
    """Name -> unit of every per-layer metric ``BENCHMARK.json`` declares."""
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in declared["per_layer"]}
