"""One benchmark run: set-up, the untraced pass, the traced pass, the checks."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from .common import metric, peak_rss_mb, run_units
from .layers import SpanIndex, declared_per_layer, targets
from .tracer import Tracer, layer_self_ms


def workload_classes():
    from .adv_train import AdvTrain
    from .attack_suite import AttackSuite
    from .serve_classify import ServeClassify

    return {cls.name: cls for cls in (AdvTrain, AttackSuite, ServeClassify)}


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale=None,
    gemm_gflops: Optional[float] = None,
    delays: Optional[Dict[str, float]] = None,
    trace_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Run workload ``name`` once and return its result record.

    The untraced pass runs whole units for about ``seconds``; with ``trace``
    the traced pass then repeats the same number of units under the
    :class:`Tracer`, whose spans give the per-layer metrics.  ``delays``
    slows chosen spans through the tracer's wrappers (tests only).
    """
    cls = workload_classes()[name]
    workload = cls(seed) if scale is None else cls(seed, scale)
    try:
        setup_s = workload.setup()
        prepare = getattr(workload, "prepare_unit", None)
        durations = run_units(workload.unit, seconds, prepare=prepare)
        metrics = workload.end_to_end(durations)
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
        record: Dict[str, object] = {"units": len(durations), "unit_seconds": durations}
        if trace:
            units = declared_per_layer()
            values = {name: 0.0 for name in units}
            before = workload.counters()
            tracer = Tracer(targets(), delays=delays)

            def traced_unit(index: int) -> None:
                with tracer.span("bench.unit", unit=index):
                    workload.unit(index, tracer)

            with tracer:
                workload.traced_pass_starts()
                traced = run_units(traced_unit, seconds, count=len(durations), prepare=prepare)
            after = workload.counters()
            failed_before = workload.checks.failed
            values.update(workload.per_layer(SpanIndex(tracer.spans), len(traced), before, after))
            values["obs.counter_mismatches"] = float(workload.checks.failed - failed_before)
            if gemm_gflops:
                values["compile.conv_gemm_share"] = values["compile.conv_gflops"] / gemm_gflops
            values["obs.trace_overhead_pct"] = (sum(traced) / sum(durations) - 1.0) * 100.0
            unknown = set(values) - set(units)
            if unknown:
                raise KeyError(f"per-layer metrics BENCHMARK.json does not declare: {sorted(unknown)}")
            metrics = {key: metric(values[key], units[key]) for key in units}
            record["traced_unit_seconds"] = traced
            record["layer_self_ms"] = layer_self_ms(tracer.spans)
            if trace_path is not None:
                tracer.dump(str(trace_path))
        workload.finish()
        record["info"] = workload.info()
    finally:
        workload.close()
    checks = workload.checks
    record.update(
        correct=checks.failed == 0 and checks.attempted > 0,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        metrics=metrics,
    )
    return record
