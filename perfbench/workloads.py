"""The three workloads: seeded inputs, the timed work, and what is checked.

Each workload does a fixed amount of work for a given ``--seconds``: the
number of passes (or warm rounds) is ``seconds`` divided by the pass's
nominal cost on the reference machine (2 cores, Python 3.11, scipy 1.17,
no highspy or numba), so a slower or faster machine changes the time a
run takes, never the work it measures.  The program only ever sees the
inputs generated here from ``--seed``.

Calls into the program go through module attributes (``repro.x``) so
that a traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
import repro.evaluation
import repro.service
from repro.core import collect_statistics, lp_bound
from repro.datasets import (
    JOB_QUERY_IDS,
    SNAP_SPECS,
    imdb_database,
    job_query,
    power_law_graph,
)
from repro.experiments.job import JOB_PS
from repro.relational import CountSink

import checks

HERE = Path(__file__).resolve().parent

IMDB_SCALE = 0.3
SERVE_PS = (1.0, 2.0, math.inf)
GRAPH_PS = (1.0, 2.0, 3.0, 4.0, math.inf)
FAMILIES = (("full", None), ("{1}", (1.0,)), ("{1,inf}", (1.0, math.inf)))
TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
CYCLE4 = "Q(a,b,c,d) :- R(a,b), R(b,c), R(c,d), R(d,a)"

#: Nominal seconds of one unit of work on the reference machine.
JOB_PASS_S = 5.5
PLAN_COLD_S = 4.9
PLAN_WARM_S = 1.6
GRAPH_PASS_S = 1.3


def derive_seed(seed: int, tag: str) -> int:
    """An independent generator seed per input, fixed by the run's seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def units(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (the rule the service's /metrics uses)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def sub_plan_texts(query_ids) -> list[str]:
    """Every connected 2–4-atom sub-plan of the given JOB templates.

    Identical sub-plans of different templates render to one text, so the
    list repeats texts the way a join-order search re-costs sub-plans.
    """
    texts = []
    for qid in query_ids:
        atoms = job_query(qid).atoms
        for size in (2, 3, 4):
            for combo in itertools.combinations(atoms, size):
                if not _connected(combo):
                    continue
                head = list(dict.fromkeys(v for a in combo for v in a.variables))
                body = ", ".join(
                    f"{a.relation}({','.join(a.variables)})" for a in combo
                )
                texts.append(f"Q({','.join(head)}) :- {body}")
    return texts


def _connected(atoms) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j, atom in enumerate(atoms):
            if j not in reached and atoms[i].variable_set & atom.variable_set:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(atoms)


class Workload:
    """One workload run: ``setup``, then ``measure``, then ``outcome``."""

    name = ""

    def __init__(self, seed, seconds, tiny, work_dir: Path, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.work_dir = work_dir
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> dict[str, float]:
        """The timed work; returns the end-to-end metrics except set-up."""
        raise NotImplementedError

    def outcome(self) -> checks.Outcome:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def service_metrics(self) -> dict | None:
        return None

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class _TimedSolver(repro.BoundSolver):
    """A BoundSolver that records each bound's solve time on the pool
    thread that ran it (nested ``solve`` calls are not double-counted)."""

    def __init__(self) -> None:
        super().__init__()
        self.latencies: list[float] = []
        self._depth = threading.local()

    def _timed(self, call, *args, **kwargs):
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self._depth.value = depth
            if depth == 0:
                self.latencies.append(time.perf_counter() - start)

    def solve(self, *args, **kwargs):
        return self._timed(super().solve, *args, **kwargs)

    def solve_family(self, *args, **kwargs):
        return self._timed(super().solve_family, *args, **kwargs)


class JobBounds(Workload):
    """E3 cold: statistics, 33 × 3 LPs and certificates, then exact counts."""

    name = "job-bounds"

    def setup(self) -> None:
        with self.tracer.span("setup.data"):
            self.db = imdb_database(
                IMDB_SCALE, seed=derive_seed(self.seed, "imdb")
            )
        ids = JOB_QUERY_IDS[:5] if self.tiny else JOB_QUERY_IDS
        self.query_ids = list(ids)
        self.queries = [job_query(qid) for qid in ids]

    def measure(self) -> dict[str, float]:
        passes = 1 if self.tiny else units(self.seconds, JOB_PASS_S)
        self.bounds: list[checks.JobBound] = []
        self.counts: dict[int, int] = {}
        bound_wall = query_wall = 0.0
        latencies: list[float] = []
        for pass_no in range(passes):
            start = time.perf_counter()
            catalog = repro.StatisticsCatalog(self.db)
            stat_sets = catalog.precompute(self.queries, ps=JOB_PS)
            tasks = [
                repro.BoundTask(stats, query=query, family=family)
                for query, stats in zip(self.queries, stat_sets)
                for _, family in FAMILIES
            ]
            solver = _TimedSolver()
            results = repro.lp_bound_many(tasks, solver=solver)
            certified = [repro.verify_certificate(r) for r in results]
            for result in results:
                if result.status == "optimal":
                    repro.product_form(result)
            bounds_done = time.perf_counter()
            counts = [
                repro.evaluation.acyclic_count(q, self.db) for q in self.queries
            ]
            end = time.perf_counter()
            bound_wall += bounds_done - start
            query_wall += end - start
            latencies.extend(solver.latencies)
            labels = [(qid, label) for qid in self.query_ids for label, _ in FAMILIES]
            for (qid, label), result, ok in zip(labels, results, certified):
                self.bounds.append(checks.JobBound(
                    pass_no, qid, label, result.status, result.log2_bound, ok
                ))
            self.counts.update(zip(self.query_ids, counts))
        return {
            "bounds_per_s": len(self.bounds) / bound_wall,
            "queries_per_s": passes * len(self.queries) / query_wall,
            "requests_per_s": len(latencies) / sum(latencies),
            "request_p50_ms": 1e3 * percentile(latencies, 0.50),
            "request_p99_ms": 1e3 * percentile(latencies, 0.99),
        }

    def outcome(self) -> checks.Outcome:
        # the timed counts are checked against a fresh, untimed count
        truth = {
            qid: repro.evaluation.acyclic_count(q, self.db)
            for qid, q in zip(self.query_ids, self.queries)
        }
        outcome = checks.check_job(self.bounds, truth)
        for qid, count in self.counts.items():
            if count != truth[qid]:
                outcome.fail(f"count/Q{qid}", f"{count} != {truth[qid]}")
        return outcome


# ----------------------------------------------------------------------
class PlanSearch(Workload):
    """Sub-plan bounds from a ``repro serve`` process, one cold round and
    then warm rounds, over one keep-alive client in a closed loop."""

    name = "plan-search"

    def setup(self) -> None:
        with self.tracer.span("setup.data"):
            self.db = imdb_database(
                IMDB_SCALE, seed=derive_seed(self.seed, "imdb")
            )
            tables = self.work_dir / "tables"
            tables.mkdir(parents=True, exist_ok=True)
            specs = []
            for name in self.db:
                relation = self.db[name]
                path = tables / f"{name}.csv"
                with open(path, "w") as handle:
                    handle.write(",".join(relation.attributes) + "\n")
                    handle.writelines(
                        ",".join(map(str, row)) + "\n" for row in relation
                    )
                specs += ["--table", f"{name}={path}"]
        ids = JOB_QUERY_IDS[:3] if self.tiny else JOB_QUERY_IDS
        self.texts = sub_plan_texts(ids)
        # Client and server share one core, which the server inherits.  A
        # closed loop of one client has no parallelism to lose, and a
        # request crossing cores waits on a wake-up of the other virtual
        # CPU, whose cost swings with the host's load from run to run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        with self.tracer.span("setup.server"):
            self._start_server(specs)

    def _start_server(self, table_specs: list[str]) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.tracer.enabled:
            command += ["--trace-out", str(self.work_dir / "spans-server.jsonl")]
        command += [
            "serve", "--port", "0", "--norms", ",".join(
                "inf" if p == math.inf else format(p, "g") for p in SERVE_PS
            ),
            "--cache-budget", "256M", *table_specs,
        ]
        log_path = self.work_dir / "server.log"
        self._log = open(log_path, "w")
        self.server = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self._log
        )
        deadline = time.monotonic() + 120
        url = None
        while url is None:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited: {log_path.read_text()[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not come up within 120 s")
            found = re.search(r"serving on (http://\S+)", log_path.read_text())
            if found:
                url = found.group(1)
            else:
                time.sleep(0.01)
        self.client = repro.service.BoundClient(url)
        self.client.healthz()

    def measure(self) -> dict[str, float]:
        warm = 1 if self.tiny else units(
            self.seconds - PLAN_COLD_S, PLAN_WARM_S
        )
        rng = np.random.default_rng(derive_seed(self.seed, "order"))
        self.responses: list[checks.PlanResponse] = []
        latencies: list[float] = []
        server_ms = 0.0
        start = time.perf_counter()
        for round_no in range(1 + warm):
            for index in rng.permutation(len(self.texts)):
                text = self.texts[index]
                sent = time.perf_counter()
                try:
                    response = self.client.bound(query=text, ps=SERVE_PS)
                except repro.service.ServiceError as exc:
                    latencies.append(time.perf_counter() - sent)
                    self.responses.append(checks.PlanResponse(
                        round_no, text, "", math.nan, f"{exc.code}: {exc}"
                    ))
                    continue
                latencies.append(time.perf_counter() - sent)
                server_ms += response.elapsed_ms
                self.responses.append(checks.PlanResponse(
                    round_no, text, response.status, response.log2_bound
                ))
            if round_no == 0:
                cold_wall = time.perf_counter() - start
        wall = time.perf_counter() - start
        self._metrics = self.client.metrics()
        self._peak_rss = _vm_hwm_mb(self.server.pid)
        answered = sum(r.error is None for r in self.responses)
        return {
            "bounds_per_s": answered / (server_ms / 1e3),
            "queries_per_s": len(set(self.texts)) / cold_wall,
            "requests_per_s": len(latencies) / wall,
            "request_p50_ms": 1e3 * percentile(latencies, 0.50),
            "request_p99_ms": 1e3 * percentile(latencies, 0.99),
        }

    def outcome(self) -> checks.Outcome:
        distinct = sorted(set(self.texts))
        rng = np.random.default_rng(derive_seed(self.seed, "oracle"))
        sample = rng.choice(len(distinct), size=min(24, len(distinct)),
                            replace=False)
        oracle = {}
        for index in sample:
            query = repro.parse_query(distinct[index])
            stats = collect_statistics(query, self.db, ps=SERVE_PS)
            oracle[distinct[index]] = lp_bound(stats, query=query).log2_bound
        return checks.check_plan(self.responses, oracle)

    def peak_rss_mb(self) -> float:
        return self._peak_rss

    def service_metrics(self) -> dict | None:
        return self._metrics

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        if hasattr(self, "client"):
            self.client.close()
        if server.poll() is None:
            server.send_signal(signal.SIGINT)  # lets a traced server write
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        self._log.close()


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process, from /proc (Linux)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
class GraphCount(Workload):
    """Per query: a bound, then an exact count through ``generic_join``."""

    name = "graph-count"

    def setup(self) -> None:
        scale = 10 if self.tiny else 1
        with self.tracer.span("setup.data"):
            graphs = {
                s.name: power_law_graph(
                    s.num_nodes // scale, s.num_edges // scale, s.exponent,
                    derive_seed(self.seed, s.name),
                ).with_name(s.name)
                for s in SNAP_SPECS
            }
        self.graphs = graphs
        self.dbs = {name: repro.Database({"R": g}) for name, g in graphs.items()}
        triangle, cycle = repro.parse_query(TRIANGLE), repro.parse_query(CYCLE4)
        self.queries = {
            name: [("triangle", triangle)]
            + ([("4-cycle", cycle)] if name.startswith("ca-") else [])
            for name in graphs
        }
        # encodings and tries are cached on the relations, as in a
        # long-running service: the untimed triangle pass builds them
        with self.tracer.span("setup.warmup"):
            for db in self.dbs.values():
                self._answer(db, repro.StatisticsCatalog(db), triangle,
                             repro.BoundSolver())

    @staticmethod
    def _answer(db, catalog, query, solver):
        stats = catalog.statistics_for(query, ps=GRAPH_PS)
        result = solver.solve(stats, query=query)
        bounded = time.perf_counter()
        run = repro.evaluation.generic_join(query, db, sink=CountSink())
        return result, run.count, bounded

    def measure(self) -> dict[str, float]:
        passes = 1 if self.tiny else units(self.seconds, GRAPH_PASS_S)
        self.answers: list[checks.GraphAnswer] = []
        bound_s, count_s = [], []
        start = time.perf_counter()
        for pass_no in range(passes):
            solver = repro.BoundSolver()
            for name, db in self.dbs.items():
                catalog = repro.StatisticsCatalog(db)
                for label, query in self.queries[name]:
                    asked = time.perf_counter()
                    result, count, bounded = self._answer(
                        db, catalog, query, solver
                    )
                    counted = time.perf_counter()
                    bound_s.append(bounded - asked)
                    count_s.append(counted - bounded)
                    self.answers.append(checks.GraphAnswer(
                        pass_no, name, label, result.status,
                        result.log2_bound, count,
                    ))
        wall = time.perf_counter() - start
        return {
            "bounds_per_s": len(bound_s) / sum(bound_s),
            "queries_per_s": len(self.answers) / wall,
            "requests_per_s": len(count_s) / sum(count_s),
            "request_p50_ms": 1e3 * percentile(count_s, 0.50),
            "request_p99_ms": 1e3 * percentile(count_s, 0.99),
        }

    def _expected(self) -> dict[tuple[str, str], int]:
        return {
            (name, label): checks.closed_walks(
                self.graphs[name], 3 if label == "triangle" else 4
            )
            for name, queries in self.queries.items()
            for label, _ in queries
        }

    def outcome(self) -> checks.Outcome:
        return checks.check_graph(self.answers, self._expected())


WORKLOADS = {
    w.name: w for w in (JobBounds, PlanSearch, GraphCount)
}
