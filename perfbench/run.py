"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh worker
processes (``worker.py``) against the sources under ``src/``.  With
``--trace 0`` the run prints every end-to-end metric of ``BENCHMARK.json``;
``setup_s`` is the median over three fresh set-ups.  With ``--trace 1`` it
runs the workload once untraced and once traced (``spans.py``) and prints
every per-layer metric, including the tracing overhead.  The last stdout
line is the result as JSON; the exit code is 0 only when every output
passed its checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("job-bounds", "plan-search", "graph-count")

#: Every worker process of one invocation must end within this budget.
BUDGET_S = 170.0
#: Fresh set-ups per ``--trace 0`` run: extra set-up-only processes plus
#: the measuring one.
SETUP_SAMPLES = 3
SOLVE_SPANS = ("lp.solve", "lp.solve_family")


def pinned_env() -> dict[str, str]:
    """The environment every worker and server runs under."""
    env = dict(os.environ)
    env.pop("REPRO_DATASET_CACHE", None)  # data generation is always timed
    env.update(REPRO_LP="auto", REPRO_KERNELS="auto", PYTHONHASHSEED="0")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def spawn(args, env, work_dir: Path, deadline: float, phase: str,
          trace_out: Path | None = None) -> dict:
    """Run one worker process to completion; its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase,
        "--work-dir", str(work_dir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if args.tiny:
        command.append("--tiny")
    command += ["--spawned-at", repr(time.monotonic())]
    # a session of its own, so a timeout also stops the worker's server
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload} {phase} worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args.workload} {phase} worker exited {proc.returncode}:\n"
            f"{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(base: dict, traced: dict, work_dir: Path) -> dict[str, float]:
    """Per-layer metrics from the traced run's span files and /metrics."""
    self_s: Counter = Counter()
    counters: Counter = Counter()
    solve_max = 0.0
    round_trips: list[float] = []
    for path in sorted(work_dir.glob("spans-*.jsonl")):
        records, counts = spans.read(path)
        self_s.update(spans.self_times(records))
        counters.update(counts)
        names = {r["id"]: r["name"] for r in records}
        for r in records:
            duration = r["end"] - r["start"]
            if r["name"] in SOLVE_SPANS and names.get(r["parent"]) not in SOLVE_SPANS:
                solve_max = max(solve_max, duration)
            elif r["name"] == "client.bound":
                round_trips.append(duration)
    service = traced.get("service") or {}
    bound_latency = service.get("latency", {}).get("bound", {})
    server_p50 = float(bound_latency.get("p50_ms", 0.0))
    stats_cache = service.get("statistics_cache", {})
    client_p50 = 1e3 * statistics.median(round_trips) if round_trips else 0.0
    return {
        "setup.import_s": self_s["setup.import"],
        "setup.data_s": self_s["setup.data"],
        "query.parse_s": self_s["query.parse"],
        "catalog.precompute_s": (
            self_s["catalog.precompute"] + self_s["catalog.statistics_for"]
        ),
        "catalog.lexsorts": counters["catalog_lexsorts"],
        "catalog.sequences": counters["catalog_sequences"],
        "lp.solve_s": (
            self_s["lp.solve"] + self_s["lp.solve_family"]
            + self_s["lp.bound_many"]
        ),
        "lp.solve_max_ms": 1e3 * solve_max,
        "lp.solves": counters["lp_solves"],
        "lp.memo_hit_ratio": _ratio(
            counters["lp_result_hits"],
            counters["lp_result_hits"] + counters["lp_solves"],
        ),
        "lp.assembly_hit_ratio": _ratio(
            counters["lp_assembly_hits"],
            counters["lp_assembly_hits"] + counters["lp_assembly_misses"],
        ),
        "certificate.verify_s": self_s["certificate.verify"],
        "relational.encode_s": self_s["relational.columnar"],
        "relational.trie_build_s": self_s["relational.trie"],
        "relational.columnar_share": _ratio(
            counters["columnar_hits"], counters["columnar_calls"]
        ),
        "wcoj.join_s": self_s["wcoj.generic_join"],
        "wcoj.nodes_visited": counters["wcoj_nodes_visited"],
        "service.bound_p50_ms": server_p50,
        "service.bound_p99_ms": float(bound_latency.get("p99_ms", 0.0)),
        "service.http_overhead_p50_ms": (
            client_p50 - server_p50 if round_trips else 0.0
        ),
        "service.statistics_hit_ratio": _ratio(
            stats_cache.get("hits", 0),
            stats_cache.get("hits", 0) + stats_cache.get("misses", 0),
        ),
        "service.cache_bytes": service.get("caches", {}).get("total_bytes", 0),
        "trace.overhead_ratio": traced["measure_s"] / base["measure_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (the smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S
    work_dir = HERE / "_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = pinned_env()
    try:
        if args.trace == 0:
            runs = [
                spawn(args, env, work_dir, deadline, "setup")
                for _ in range(SETUP_SAMPLES - 1)
            ]
            runs.append(spawn(args, env, work_dir, deadline, "run"))
            values = dict(runs[-1]["metrics"])
            values["setup_s"] = statistics.median(r["setup_s"] for r in runs)
            measured = runs[-1:]
            wanted = spec["end_to_end"]
        else:
            base = spawn(args, env, work_dir, deadline, "run")
            traced = spawn(args, env, work_dir, deadline, "run",
                           trace_out=work_dir / "spans-worker.jsonl")
            values = layer_metrics(base, traced, work_dir)
            measured = [base, traced]
            wanted = spec["per_layer"]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    for r in measured:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    env_line = dict(measured[-1]["env"], nproc=os.cpu_count())
    print("env: " + json.dumps(env_line, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
