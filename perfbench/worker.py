"""One workload in one fresh process: set up, measure, check.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--phase setup`` stops after set-up (the extra set-up samples behind
``setup_s``).  ``--trace-out`` installs the span wrappers of ``spans.py``
and writes the spans there at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import spans

    tracer = spans.Tracer(args.trace_out) if args.trace_out else spans.NullTracer()
    with tracer.span("setup.import"):
        import numpy
        import scipy

        import repro
        from repro.core import active_lp_mode
        from repro.relational import kernels

        import workloads
    if args.trace_out:
        spans.install(tracer)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, args.tiny, Path(args.work_dir), tracer
    )
    result = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "repro": repro.__version__,
            "lp_mode": active_lp_mode(),
            "kernel_mode": kernels.active_mode(),
        },
    }
    try:
        workload.setup()
        result["setup_s"] = time.monotonic() - args.spawned_at
        if args.phase == "run":
            start = time.perf_counter()
            metrics = workload.measure()
            result["measure_s"] = time.perf_counter() - start
            if args.trace_out:
                tracer.enabled = False  # the checks are not the workload
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            outcome = workload.outcome()
            result.update(
                metrics=metrics,
                attempted=outcome.attempted,
                failed=outcome.failed,
                failures=list(outcome.failures.values())[:20],
                service=workload.service_metrics(),
            )
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
