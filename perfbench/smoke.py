"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size (``--tiny``) on two seeds untraced and
twice traced, and checks the result line against ``BENCHMARK.json``: exact
keys, every metric named there with its unit, correct outputs, and work
counts that repeat between the two traced runs.  Then feeds each checker an
injected wrong answer (wrong count, non-optimal status, mismatched bound)
and requires it to be rejected, and requires ``run.py`` to fail without a
result in a directory holding only the benchmark.  Exits 1 on any failure.
It is a script rather than a pytest module so that the repository's test
suite is unchanged by the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import checks
from run import HERE, ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("catalog.lexsorts", "catalog.sequences", "lp.solves",
          "wcoj.nodes_visited")
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def run_bench(workload: str, seed: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    label = f"{workload} seed {seed} trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    if not proc.stdout.strip():
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{label}: not correct ({result['failed']} failed)")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}")
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    expect(list(result["metrics"]) == [m["name"] for m in wanted],
           f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"], f"{label}: unit of {m['name']}")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} = {value!r}")
        if trace == 0:
            expect(value > 0, f"{label}: {m['name']} is {value!r}, never 0")
    print(f"ok   {label}")
    return result


def check_runs() -> None:
    for workload in WORKLOADS:
        for seed in (3, 4):
            run_bench(workload, seed, 0)
        first, second = (run_bench(workload, 3, 1) for _ in range(2))
        if first is None or second is None:
            continue
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} differs between traced runs: "
                           f"{a} != {b}")


def rejected(outcome: checks.Outcome, what: str) -> None:
    expect(outcome.failed == 1, f"checker accepted {what} "
                                f"({outcome.failed} failures)")


def check_checkers() -> None:
    job = [
        checks.JobBound(0, 1, "full", "optimal", 10.0, True),
        checks.JobBound(0, 1, "{1,inf}", "optimal", 11.0, True),
        checks.JobBound(0, 1, "{1}", "optimal", 12.0, True),
    ]
    truth = {1: 1000}
    expect(checks.check_job(job, truth).failed == 0, "job: good bounds failed")
    rejected(checks.check_job([replace(job[0], status="infeasible"), *job[1:]],
                              truth), "a non-optimal job bound")
    rejected(checks.check_job([replace(job[0], certified=False), *job[1:]],
                              truth), "an uncertified job bound")
    rejected(checks.check_job(job, {1: 1500}), "a bound below the true count")
    rejected(checks.check_job([job[0], replace(job[1], log2_bound=12.5), job[2]],
                              truth), "{1,inf} looser than {1}")

    text = "Q(x,y) :- R(x,y)"
    plan = [checks.PlanResponse(0, text, "optimal", 3.0),
            checks.PlanResponse(1, text, "optimal", 3.0)]
    expect(checks.check_plan(plan, {text: 3.0}).failed == 0,
           "plan: good responses failed")
    rejected(checks.check_plan([plan[0], replace(plan[1], log2_bound=3.5)], {}),
             "a bound that changes between rounds")
    rejected(checks.check_plan([plan[0], replace(plan[1], status="unbounded")],
                               {}), "a non-optimal response")
    rejected(checks.check_plan([plan[0], replace(plan[1], error="internal: x")],
                               {}), "an HTTP error")
    rejected(checks.check_plan(plan, {text: 3.1}),
             "a bound that differs from one-shot lp_bound")

    graph = [checks.GraphAnswer(0, "g", "triangle", "optimal", 5.0, 6)]
    expected = {("g", "triangle"): 6}
    expect(checks.check_graph(graph, expected).failed == 0,
           "graph: good answers failed")
    rejected(checks.check_graph([replace(graph[0], count=7)], expected),
             "a wrong count")
    rejected(checks.check_graph([replace(graph[0], log2_bound=2.0)], expected),
             "a count above 2^bound")
    rejected(checks.check_graph([replace(graph[0], status="infeasible")],
                                expected), "a non-optimal graph bound")

    def both_ways(edges):
        return [e for x, y in edges for e in ((x, y), (y, x))]

    triangle = both_ways([(0, 1), (1, 2), (2, 0)])
    square = both_ways([(0, 1), (1, 2), (2, 3), (3, 0)])
    expect(checks.closed_walks(triangle, 3) == 6, "trace(A^3) of K3 != 6")
    expect(checks.closed_walks(square, 4) == 32, "trace(A^4) of C4 != 32")
    print("ok   checkers reject injected wrong answers")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails without a result."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)
    print("ok   fails without the program")


def main() -> int:
    check_checkers()
    check_bare_directory()
    check_runs()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
