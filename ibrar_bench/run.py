"""Command-line entry point of the IB-RAR repository benchmark.

Run from the root of a checkout::

    python3 ibrar_bench/run.py --workload adv_train --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines before
it carry the fingerprint and details.  The run exits non-zero without a
result when the checkout has no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adv_train", "attack_suite", "serve_classify")
OUT_DIR = ".bench_out"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REPRO_SWITCHES = ("REPRO_PROVIDER", "REPRO_TRACE", "REPRO_PROFILE", "REPRO_RUNS", "REPRO_ARTIFACTS")


def _pin_environment() -> None:
    """BLAS on one thread and every repro switch cleared, before NumPy loads."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    for name in REPRO_SWITCHES:
        os.environ.pop(name, None)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro package under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    # Finish every import (and its bytecode compilation) before set-up is timed.
    import numpy  # noqa: F401
    import repro.attacks  # noqa: F401
    import repro.compile.training  # noqa: F401
    import repro.core  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.training  # noqa: F401
    from repro.nn import get_default_dtype

    from ibrar_bench.fingerprint import fingerprint
    from ibrar_bench.harness import execute

    machine = fingerprint(ROOT, get_default_dtype())
    print(json.dumps({"fingerprint": machine}))
    trace_path = None
    if args.trace:
        (ROOT / OUT_DIR).mkdir(exist_ok=True)
        trace_path = ROOT / OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    record = execute(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        gemm_gflops=machine["gemm_gflops_fp64"],
        trace_path=trace_path,
    )
    details = {key: value for key, value in record.items() if key not in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
