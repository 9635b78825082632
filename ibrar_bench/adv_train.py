"""``adv_train``: compiled adversarial training under the paper's four losses.

A unit is one fixed-length epoch of each loss (PGD-AT, TRADES, MART and
IB-RAR with a PGD base), always over the same batches.  Set-up builds each
loss's VGG16 and trainer and runs two warm-up batches: the first runs eager
(the compile-on-second-sighting policy), the second captures the plans.
IB-RAR then installs its first Eq. 3 mask, which differs from the one its
plans were captured under, so its first measured epoch pays an eager batch
and a recapture before it replays.

Every unit repeats that first epoch exactly.  Before each unit, outside the
timed region, every job's parameters, buffers, optimizer and scheduler state
and channel mask are restored in place to their values after set-up, and
IB-RAR's plans are dropped again.  The checks then require every epoch of a
loss to do the same work (captures, plans, eager and compiled batches) and
to reach the same loss.
"""

from __future__ import annotations

import copy
import gc
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .common import Checks, clock, metric
from .layers import LOSSES, SpanIndex

#: tolerance of the eager-vs-compiled first-step check
PARITY_TOL = 1e-9
#: relative tolerance of the check that every epoch of a loss reaches the same loss
REPEAT_TOL = 1e-12
SETUP_REPEATS = 3
#: the counters one epoch must move by the same amount in every unit
WORK_COUNTERS = ("captures", "plans_built", "eager_batches", "compiled_batches")


@dataclass(frozen=True)
class Scale:
    model: str = "vgg16"
    model_kwargs: Dict[str, float] = field(default_factory=lambda: {"width_multiplier": 0.125})
    image_size: int = 32
    batch_size: int = 16
    batches: int = 4
    pgd_steps: int = 2


BENCH = Scale()
TINY = Scale(
    model="smallcnn",
    model_kwargs={"base_channels": 4, "hidden_dim": 16},
    image_size=16,
    batch_size=8,
    batches=3,
    pgd_steps=1,
)


class _Job:
    """One loss: its model, trainer and the epoch it runs per unit."""

    def __init__(self, loss: str, scale: Scale, seed: int, images: np.ndarray, labels: np.ndarray) -> None:
        from repro.core import IBRAR, IBRARConfig
        from repro.data import ArrayDataset, DataLoader
        from repro.models import build_model
        from repro.training import Trainer
        from repro.training.adversarial import MARTLoss, PGDAdversarialLoss, TRADESLoss

        self.name = loss
        self.images, self.labels = images, labels
        self.batch_size = scale.batch_size
        model = build_model(scale.model, image_size=scale.image_size, seed=seed, **scale.model_kwargs)
        self.model = model
        self.ibrar = None
        if loss == "ibrar":
            self.ibrar = IBRAR(
                model,
                IBRARConfig(),
                base_loss=PGDAdversarialLoss(steps=scale.pgd_steps, seed=seed),
                compile=True,
            )
            self.trainer = self.ibrar.trainer
        else:
            strategy = {"pgd_at": PGDAdversarialLoss, "trades": TRADESLoss, "mart": MARTLoss}[loss]
            self.trainer = Trainer(model, loss_strategy=strategy(steps=scale.pgd_steps, seed=seed), compile=True)
            self.loader = DataLoader(
                ArrayDataset(images, labels), batch_size=scale.batch_size, shuffle=False, drop_last=True
            )
        self.losses: List[float] = []
        #: per epoch, how far it moved each of :data:`WORK_COUNTERS`
        self.work: List[tuple] = []

    def warm_up(self, checks: Checks) -> float:
        """Two warm-up batches; returns the seconds spent outside the parity check.

        The second batch is the first compiled step.  A snapshot taken just
        before it takes the same step eagerly, and every parameter and
        buffer must agree within :data:`PARITY_TOL`.
        """
        from repro.training import Trainer

        start = clock()
        first, second = [
            (self.images[i : i + self.batch_size], self.labels[i : i + self.batch_size])
            for i in (0, self.batch_size)
        ]
        self.trainer.train_epoch([first])
        check_start = clock()
        model, optimizer, strategy = copy.deepcopy(
            (self.model, self.trainer.optimizer, self.trainer.loss_strategy)
        )
        check_seconds = clock() - check_start
        self.trainer.train_epoch([second])
        check_start = clock()
        Trainer(model, loss_strategy=strategy, optimizer=optimizer, compile=False).train_epoch([second])
        compiled, eager = self.model.state_dict(), model.state_dict()
        worst = max(float(np.max(np.abs(compiled[k] - eager[k]), initial=0.0)) for k in compiled)
        checks.expect(
            worst <= PARITY_TOL,
            f"{self.name}: first compiled step differs from eager by {worst:.3g}",
        )
        stats = self.trainer.compile_stats
        checks.expect(
            stats is not None and stats.compiled_batches == 1,
            f"{self.name}: the second warm-up batch did not run compiled",
        )
        check_seconds += clock() - check_start
        if self.ibrar is not None:
            count = min(self.ibrar.mask_examples, len(self.images))
            self.ibrar.mask_builder.apply(self.model, self.images[:count], self.labels[:count])
        return clock() - start - check_seconds

    def snapshot(self) -> None:
        """Remember the state after set-up, which every unit starts from."""
        optimizer = self.trainer.optimizer
        self.saved = {
            "params": [p.data.copy() for p in self.model.parameters()],
            "buffers": [b.copy() for b in _buffers(self.model)],
            "velocity": [v.copy() for v in optimizer._velocity],
            "lr": optimizer.lr,
            "epoch": self.trainer.scheduler.epoch,
            "mask": self.model.channel_mask,
        }

    def restore(self) -> None:
        """Put the state after set-up back, in place, so the plans' aliases stay valid."""
        saved, optimizer = self.saved, self.trainer.optimizer
        for live, value in zip(self.model.parameters(), saved["params"]):
            np.copyto(live.data, value)
        for live, value in zip(_buffers(self.model), saved["buffers"]):
            np.copyto(live, value)
        for live, value in zip(optimizer._velocity, saved["velocity"]):
            np.copyto(live, value)
        optimizer.lr, self.trainer.scheduler.epoch = saved["lr"], saved["epoch"]
        if self.ibrar is not None:
            self.model.set_channel_mask(saved["mask"])
            # After set-up the plans were captured under an older mask; the
            # epoch must meet them that way again, not replay its own.
            self.trainer._compiled_trainer.invalidate()

    def epoch(self) -> None:
        before = self.trainer.compile_stats.as_dict()
        if self.ibrar is not None:
            history = self.ibrar.fit(
                self.images, self.labels, epochs=1, batch_size=self.batch_size, shuffle=False
            ).history
        else:
            history = self.trainer.fit(self.loader, 1)
        after = self.trainer.compile_stats.as_dict()
        self.work.append(tuple(after[key] - before[key] for key in WORK_COUNTERS))
        self.losses.append(history.train_loss[-1])

    def counters(self) -> Dict[str, int]:
        stats = self.trainer.compile_stats.as_dict()
        stats.update(
            {"cache." + k: v for k, v in self.trainer._compiled_trainer._cache.stats().items()}
        )
        return stats


def _buffers(model) -> List[np.ndarray]:
    return [buffer for module in model.modules() for buffer in module._buffers.values()]


class AdvTrain:
    name = "adv_train"

    def __init__(self, seed: int, scale: Scale = BENCH) -> None:
        self.seed, self.scale = seed, scale
        self.checks = Checks()
        self.examples_per_epoch = scale.batch_size * scale.batches
        self.loss_seconds: Dict[str, List[float]] = {loss: [] for loss in LOSSES}

    def setup(self) -> float:
        """Set up :data:`SETUP_REPEATS` times from scratch; returns the median seconds.

        A set-up makes the data, then each loss's model, trainer and
        warm-up batches.  The jobs of the last set-up are the ones measured.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            self.jobs = []
            gc.collect()
            times.append(self._setup_once())
        for job in self.jobs:
            job.snapshot()
        return statistics.median(times)

    def _setup_once(self) -> float:
        from repro.data import synthetic_cifar10

        start = clock()
        data = synthetic_cifar10(
            n_train=self.examples_per_epoch, n_test=1, image_size=self.scale.image_size, seed=self.seed
        )
        seconds = clock() - start
        for loss in LOSSES:
            start = clock()
            job = _Job(loss, self.scale, self.seed, data.x_train, data.y_train)
            seconds += clock() - start
            seconds += job.warm_up(self.checks)
            self.jobs.append(job)
        return seconds

    def prepare_unit(self, index: int) -> None:
        for job in self.jobs:
            job.restore()

    def traced_pass_starts(self) -> None:
        pass

    def unit(self, index: int, tracer=None) -> None:
        for job in self.jobs:
            if tracer is not None:
                with tracer.span("bench.loss", loss=job.name):
                    job.epoch()
                continue
            start = clock()
            job.epoch()
            self.loss_seconds[job.name].append(clock() - start)

    def end_to_end(self, durations: List[float]) -> Dict[str, dict]:
        examples = self.examples_per_epoch * len(self.jobs)
        return {"ex_per_s": metric(statistics.median(examples / d for d in durations), "ex/s")}

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {job.name: job.counters() for job in self.jobs}

    def per_layer(self, index: SpanIndex, units: int, before, after) -> Dict[str, float]:
        out: Dict[str, float] = {}
        roots = index.named("bench.loss")
        for job in self.jobs:
            mine = [r for r in roots if index.spans[r].attrs["loss"] == job.name]
            steps = [s for r in mine for s in index.named("training.step", r)]
            compiled = [s for s in steps if index.spans[s].attrs["compiled"]]
            replayed = [s for s in compiled if not index.named("compile.capture", s)]
            replay_ms = [index.spans[s].seconds * 1e3 for s in replayed]
            glue = []
            for s in replayed:
                inner = [
                    d
                    for d in index.descendants(s)
                    if index.spans[d].name in ("compile.replay_fwd", "compile.replay_bwd", "nn.optim_step")
                ]
                glue.append(index.spans[s].seconds * 1e3 - index.total_ms(inner, own=True))
            seconds = self.loss_seconds[job.name]
            out[f"training.ex_per_s.{job.name}"] = statistics.median(self.examples_per_epoch / t for t in seconds)
            out[f"training.step_ms.{job.name}"] = statistics.fmean(replay_ms) if replay_ms else 0.0
            out[f"training.boundary_ms.{job.name}"] = (index.total_ms(mine) - sum(replay_ms)) / len(mine)
            out[f"training.compiled_share.{job.name}"] = len(compiled) / len(steps) if steps else 0.0
            out[f"training.glue_ms.{job.name}"] = statistics.fmean(glue) if glue else 0.0
            self._check_counters(job.name, index, mine, steps, compiled, before[job.name], after[job.name])
        out["training.fallbacks"] = float(sum(after[j.name]["fallbacks"] for j in self.jobs))
        out.update(index.shared_compile_metrics(units, index.named("bench.unit")))
        out["core.mask_refresh_ms"] = index.total_ms(index.named("core.mask_refresh")) / units
        out["ib.mi_score_ms"] = index.total_ms(index.named("ib.mi_score")) / units
        return out

    def _check_counters(self, loss, index, roots, steps, compiled, before, after) -> None:
        """The traced counts must equal TrainingCompileStats and SignatureCache.stats."""
        lookups = [l for r in roots for l in index.named("compile.cache_lookup", r)]
        traced = {
            "captures": sum(len(index.named("compile.capture", s)) for s in steps),
            "compiled_batches": len(compiled),
            "eager_batches": len(steps) - len(compiled),
            "plans_built": sum(len(index.named("compile.plan_bind", s)) for s in steps),
            "cache.hits": sum(1 for l in lookups if index.spans[l].attrs["hit"]),
        }
        for key, count in traced.items():
            program = after[key] - before[key]
            self.checks.expect(
                count == program, f"{loss}: traced {key}={count} but the program counted {program}"
            )

    def finish(self) -> None:
        for job in self.jobs:
            finite = all(math.isfinite(value) for value in job.losses)
            self.checks.expect(finite, f"{job.name}: non-finite training loss {job.losses}")
            fallbacks = job.trainer.compile_stats.fallbacks
            self.checks.expect(fallbacks == 0, f"{job.name}: {fallbacks} eager fallbacks")
            # every unit repeats the first: the same work and the same loss
            for epoch, (work, loss) in enumerate(zip(job.work, job.losses)):
                self.checks.expect(
                    work == job.work[0],
                    f"{job.name}: epoch {epoch} moved {WORK_COUNTERS} by {work}, epoch 0 by {job.work[0]}",
                )
                self.checks.expect(
                    abs(loss - job.losses[0]) <= REPEAT_TOL * max(1.0, abs(job.losses[0])),
                    f"{job.name}: epoch {epoch} reached loss {loss!r}, epoch 0 {job.losses[0]!r}",
                )
            # every training step ran, the two warm-up batches included
            self.checks.count(len(job.losses) * self.scale.batches + 2)

    def info(self) -> Dict[str, object]:
        return {
            "losses": {job.name: job.losses for job in self.jobs},
            "epoch_work": {job.name: dict(zip(WORK_COUNTERS, job.work[0])) for job in self.jobs},
            "epoch_seconds": self.loss_seconds,
            "compile_stats": {job.name: job.trainer.compile_stats.as_dict() for job in self.jobs},
        }

    def close(self) -> None:
        self.jobs = []
