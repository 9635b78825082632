"""``attack_suite``: the five attacks of Tables 1-2 against an IB-RAR VGG16.

A unit is one whole ``AttackEngine.run`` of the paper suite (PGD, CW, FGSM,
FAB, NI-FGSM) over the same held-out batch, compiled and without early exit,
so the work does not depend on which clean predictions happen to be right.
Set-up builds the data and trains the model with a short fixed IB-RAR recipe
(one eager epoch, CE base, ending in the Eq. 3 mask refresh), then runs the
same suite once through the eager engine.  Every compiled pass must produce
the eager pass's adversarials: the recipe leaves the model near chance, so equal
accuracies alone would say little about the compiled input gradients.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .common import Checks, metric, timed_median
from .layers import ATTACKS, SpanIndex
from .tracer import Target, Tracer

SETUP_REPEATS = 5
#: held-out examples attacked per pass
EXAMPLES = 4
#: largest allowed difference between a compiled and the eager adversarial
ADV_TOL = 1e-9


@dataclass(frozen=True)
class Scale:
    model: str = "vgg16"
    model_kwargs: Dict[str, float] = field(default_factory=lambda: {"width_multiplier": 0.125})
    image_size: int = 32
    recipe_examples: int = 64
    recipe_batch: int = 32
    pgd_steps: int = 10
    cw_steps: int = 20


BENCH = Scale()
TINY = Scale(
    model="smallcnn",
    model_kwargs={"base_channels": 4, "hidden_dim": 16},
    image_size=16,
    recipe_examples=16,
    recipe_batch=8,
    pgd_steps=2,
    cw_steps=2,
)


def _record_output(args, kwargs, result, before):
    attack = args[0]
    return {"attack": attack.name, "eps": attack.eps, "images": args[1], "labels": args[2], "output": result}


def _recorder() -> Tracer:
    """Records every ``Attack.attack`` call's inputs and adversarial output."""
    return Tracer([Target("attacks.attack", "repro.attacks.base:Attack.attack", _record_output)])


class AttackSuite:
    name = "attack_suite"

    def __init__(self, seed: int, scale: Scale = BENCH) -> None:
        self.seed, self.scale = seed, scale
        self.checks = Checks()
        self.traced_results: List[object] = []

    def _build(self):
        from repro.core import IBRAR, IBRARConfig
        from repro.data import synthetic_cifar10
        from repro.models import build_model

        scale = self.scale
        data = synthetic_cifar10(
            n_train=scale.recipe_examples, n_test=EXAMPLES, image_size=scale.image_size, seed=self.seed
        )
        model = build_model(scale.model, image_size=scale.image_size, seed=self.seed, **scale.model_kwargs)
        IBRAR(model, IBRARConfig()).fit(
            data.x_train, data.y_train, epochs=1, batch_size=scale.recipe_batch, shuffle=False, seed=self.seed
        )
        model.eval()
        return model, data.x_test, data.y_test

    def setup(self) -> float:
        from repro.attacks import AttackEngine
        from repro.attacks.engine import paper_suite_specs

        seconds, (self.model, self.images, self.labels) = timed_median(self._build, SETUP_REPEATS)
        specs = paper_suite_specs(pgd_steps=self.scale.pgd_steps, cw_steps=self.scale.cw_steps, seed=self.seed)
        self.engine = AttackEngine(specs, compile=True, early_exit=False)
        recorder = _recorder()
        with recorder:
            eager = AttackEngine(specs, compile=False, early_exit=False).run(self.model, self.images, self.labels)
        self.expected = self._accuracies(eager)
        self.expected_spans = recorder.spans
        self.passes: List[tuple] = []
        return seconds

    @staticmethod
    def _accuracies(result) -> Dict[str, float]:
        return {"clean": result.natural, **result.adversarial}

    def traced_pass_starts(self) -> None:
        pass

    def unit(self, index: int, tracer=None) -> None:
        """One engine pass; its adversarials are recorded and checked afterwards."""
        recorder = _recorder()
        with recorder:
            result = self.engine.run(self.model, self.images, self.labels)
        self.passes.append((result, recorder.spans))
        if tracer is not None:
            self.traced_results.append(result)

    def _check_pass(self, result, spans) -> None:
        """Accuracies and adversarials equal the eager engine's; adversarials stay in range."""
        got = self._accuracies(result)
        for name, expected in self.expected.items():
            self.checks.expect(
                got.get(name) == expected,
                f"{name}: compiled accuracy {got.get(name)} != eager {expected}",
            )
        self.checks.expect(
            [s.attrs["attack"] for s in spans] == [s.attrs["attack"] for s in self.expected_spans],
            "the compiled pass called other attacks than the eager pass",
        )
        for span, eager in zip(spans, self.expected_spans):
            attrs = span.attrs
            adversarial, images, name = attrs["output"], attrs["images"], attrs["attack"]
            self.checks.expect(
                bool(np.all(np.isfinite(adversarial)) and adversarial.min() >= 0.0 and adversarial.max() <= 1.0),
                f"{name}: adversarial outside [0, 1]",
            )
            if name != "cw":  # CW is the suite's L2 attack; its eps is unused
                excess = float(np.max(np.abs(adversarial - images))) - attrs["eps"]
                self.checks.expect(excess <= 1e-12, f"{name}: adversarial leaves the eps ball by {excess:.3g}")
            expected = eager.attrs["output"]
            differs = (
                float(np.max(np.abs(adversarial - expected)))
                if adversarial.shape == expected.shape and np.array_equal(images, eager.attrs["images"])
                else np.inf
            )
            self.checks.expect(
                differs <= ADV_TOL, f"{name}: compiled adversarial differs from eager by {differs:.3g}"
            )

    def end_to_end(self, durations: List[float]) -> Dict[str, dict]:
        return {"ex_per_s": metric(statistics.median(len(self.images) / d for d in durations), "ex/s")}

    def counters(self) -> Dict[str, int]:
        return {}

    def per_layer(self, index: SpanIndex, units: int, before, after) -> Dict[str, float]:
        out: Dict[str, float] = {}
        fooled = self._fooled(self.passes[-1][1])
        attacks = index.named("attacks.attack")
        for name in ATTACKS:
            mine = [a for a in attacks if index.spans[a].attrs["attack"] == name]
            examples = sum(index.spans[a].attrs["n"] for a in mine)
            grads = [g for a in mine for g in index.named("compile.grad_replay", a)]
            forwards = [f for a in mine for f in index.eager("nn.forward", a)]
            backwards = [b for a in mine for b in index.named("nn.backward", a)]
            out[f"attacks.busy_ms_per_ex.{name}"] = index.total_ms(mine) / max(examples, 1)
            out[f"attacks.compiled_grad_calls.{name}"] = len(grads) / units
            out[f"attacks.eager_forwards.{name}"] = len(forwards) / units
            out[f"attacks.eager_backwards.{name}"] = len(backwards) / units
            gradients = len(grads) + len(backwards)
            out[f"attacks.compiled_share.{name}"] = len(grads) / gradients if gradients else 0.0
            out[f"attacks.glue_ms.{name}"] = index.total_ms(mine, own=True) / units
            out[f"attacks.fooled.{name}"] = fooled.get(name, 0.0)
        predicts = [p for p in index.named("compile.predict") if not index.under(p, "attacks.attack")]
        out["attacks.predict_ms"] = index.total_ms(predicts) / units
        out.update(index.shared_compile_metrics(units, index.named("bench.unit")))
        self._check_counters(index)
        return out

    def _fooled(self, spans) -> Dict[str, float]:
        """Per attack, the examples classified right when clean and wrong after it."""
        from repro.models.base import predict_batched

        fooled: Dict[str, float] = {}
        for span in spans:
            attrs = span.attrs
            right = predict_batched(self.model, attrs["images"]) == attrs["labels"]
            wrong = predict_batched(self.model, attrs["output"]) != attrs["labels"]
            fooled[attrs["attack"]] = fooled.get(attrs["attack"], 0.0) + float(np.sum(right & wrong))
        return fooled

    def _check_counters(self, index: SpanIndex) -> None:
        """Per attack and pass, the traced counts must equal AttackTelemetry."""
        for root, result in zip(index.named("bench.unit"), self.traced_results):
            attacks = index.named("attacks.attack", root)
            for telemetry in result.telemetry:
                if telemetry.name == "clean":
                    continue
                mine = [a for a in attacks if index.spans[a].attrs["attack"] == telemetry.name]
                traced = {
                    "forward_calls": sum(len(index.eager("nn.forward", a)) for a in mine),
                    "compiled_grad_calls": sum(len(index.named("compile.grad_replay", a)) for a in mine),
                }
                for key, count in traced.items():
                    program = getattr(telemetry, key)
                    self.checks.expect(
                        count == program,
                        f"{telemetry.name}: traced {key}={count} but AttackTelemetry has {program}",
                    )

    def finish(self) -> None:
        for result, spans in self.passes:
            self._check_pass(result, spans)
        self.passes = []

    def info(self) -> Dict[str, object]:
        return {"eager_accuracies": self.expected}

    def close(self) -> None:
        pass
