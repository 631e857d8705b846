"""Start ``repro serve`` for the plan-search workload.

``python3 serve_launcher.py [--trace-out PATH] serve ARGS...`` runs the
CLI's ``serve`` command in this process; with ``--trace-out`` the span
wrappers of ``spans.py`` are installed first, so the server's layers are
traced the same way as the benchmark process's, and the spans are written
when the server stops (SIGINT).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    tracer = spans.NullTracer()
    if argv[:1] == ["--trace-out"]:
        tracer = spans.Tracer(argv[1])
        argv = argv[2:]
    with tracer.span("setup.import"):
        from repro.cli import main as cli_main
    if tracer.enabled:
        spans.install(tracer)
    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
