"""Correctness checks on the outputs a benchmark run produced.

Every checker takes plain records (no live objects), so the smoke test can
feed each one an injected wrong answer.  A check that fails marks the
operation that produced the wrong output; ``Outcome.failed`` counts
operations, not individual failed checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

#: Slack for comparisons between two LP optima of the same bound.
LP_TOL = 1e-6


@dataclass
class Outcome:
    """Operations attempted, and the first failure message of each failed one."""

    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, f"{key}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class JobBound:
    """One bound of the job-bounds workload."""

    pass_no: int
    query_id: int
    family: str  # "full", "{1}" or "{1,inf}"
    status: str
    log2_bound: float
    certified: bool


@dataclass(frozen=True)
class PlanResponse:
    """One /bound request of the plan-search workload (``error`` set when
    the request did not get an HTTP 200 answer)."""

    round_no: int
    text: str
    status: str
    log2_bound: float
    error: str | None = None


@dataclass(frozen=True)
class GraphAnswer:
    """One query (bound + exact count) of a graph workload."""

    pass_no: int
    graph: str
    query: str
    status: str
    log2_bound: float
    count: int


def _above(log2_bound: float, count: int) -> bool:
    """Whether 2**log2_bound ≥ count, up to LP tolerance."""
    if count == 0:
        return True
    return math.log2(count) <= log2_bound + LP_TOL * max(1.0, abs(log2_bound))


def check_job(bounds: list[JobBound], true_counts: dict[int, int]) -> Outcome:
    """Optimal and certified; ≥ log2 of the true count; and per query
    full ≤ {1,∞} ≤ {1} (each narrower family can only loosen the bound)."""
    outcome = Outcome(attempted=len(bounds))
    by_query: dict[tuple[int, int], dict[str, float]] = {}
    for b in bounds:
        key = f"pass{b.pass_no}/Q{b.query_id}/{b.family}"
        if b.status != "optimal":
            outcome.fail(key, f"status {b.status!r}")
            continue
        if not b.certified:
            outcome.fail(key, "dual certificate does not verify")
        if not _above(b.log2_bound, true_counts[b.query_id]):
            outcome.fail(
                key,
                f"bound 2^{b.log2_bound:.6f} below the true count "
                f"{true_counts[b.query_id]}",
            )
        by_query.setdefault((b.pass_no, b.query_id), {})[b.family] = (
            b.log2_bound
        )
    order = ("full", "{1,inf}", "{1}")
    for (pass_no, qid), values in by_query.items():
        for tighter, looser in zip(order, order[1:]):
            if tighter in values and looser in values and (
                values[tighter] > values[looser] + LP_TOL
            ):
                outcome.fail(
                    f"pass{pass_no}/Q{qid}/{looser}",
                    f"{tighter} bound {values[tighter]:.6f} exceeds "
                    f"{looser} bound {values[looser]:.6f}",
                )
    return outcome


def check_plan(
    responses: list[PlanResponse], oracle: dict[str, float]
) -> Outcome:
    """HTTP 200 and optimal; one bound per text across every round; and
    each oracle-sampled text matches a one-shot ``lp_bound``."""
    outcome = Outcome(attempted=len(responses))
    first: dict[str, tuple[str, float]] = {}
    for index, r in enumerate(responses):
        key = f"round{r.round_no}/request{index}"
        if r.error is not None:
            outcome.fail(key, f"error {r.error}")
            continue
        if r.status != "optimal":
            outcome.fail(key, f"status {r.status!r} for {r.text}")
            continue
        seen = first.setdefault(r.text, (key, r.log2_bound))
        if abs(seen[1] - r.log2_bound) > 1e-9:
            outcome.fail(
                key,
                f"bound {r.log2_bound!r} differs from {seen[1]!r} "
                f"answered earlier for {r.text}",
            )
    for text, expected in oracle.items():
        if text not in first:
            continue
        key, got = first[text]
        if abs(got - expected) > LP_TOL:
            outcome.fail(
                key,
                f"served bound {got!r} differs from one-shot lp_bound "
                f"{expected!r} for {text}",
            )
    return outcome


def check_graph(
    answers: list[GraphAnswer],
    expected: dict[tuple[str, str], int],
) -> Outcome:
    """Optimal; count equals the closed-walk count of the adjacency matrix;
    and count ≤ 2^bound."""
    outcome = Outcome(attempted=len(answers))
    for a in answers:
        key = f"pass{a.pass_no}/{a.graph}/{a.query}"
        if a.status != "optimal":
            outcome.fail(key, f"status {a.status!r}")
        truth = expected[(a.graph, a.query)]
        if a.count != truth:
            outcome.fail(key, f"count {a.count} != trace count {truth}")
        if not _above(a.log2_bound, a.count):
            outcome.fail(
                key, f"count {a.count} exceeds bound 2^{a.log2_bound:.6f}"
            )
    return outcome


def closed_walks(edges, length: int) -> int:
    """trace(A^length) of the adjacency matrix of an edge relation.

    For a relation holding both orientations of every edge, the triangle
    query counts trace(A³) and the 4-cycle query trace(A⁴).  Values of
    any hashable type are mapped to matrix indices first.
    """
    index: dict = {}
    sources, targets = [], []
    for x, y in edges:
        sources.append(index.setdefault(x, len(index)))
        targets.append(index.setdefault(y, len(index)))
    n = len(index)
    adjacency = sparse.csr_matrix(
        (np.ones(len(sources), dtype=np.int64), (sources, targets)),
        shape=(n, n),
    )
    square = adjacency @ adjacency
    if length == 3:
        return int(square.multiply(adjacency.T).sum())
    if length == 4:
        return int(square.multiply(square.T).sum())
    raise ValueError(f"closed walks of length {length} are not supported")
