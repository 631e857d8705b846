"""Shared fixtures: small deterministic relations, graphs, and queries."""

import importlib
import random

import pytest

from repro.core.certificates import verify_certificate
from repro.query import parse_query
from repro.relational import Database, Relation

# the module, not the identically-named function repro.core re-exports
_LP_BOUND = importlib.import_module("repro.core.lp_bound")


@pytest.fixture
def tiny_relation():
    """R(x, y) with 4 rows, one skewed y-value."""
    return Relation(("x", "y"), [(1, 10), (2, 10), (3, 10), (4, 20)], name="R")


@pytest.fixture
def small_graph():
    """A deterministic 60-node random graph, symmetric, ~400 edges."""
    rng = random.Random(1234)
    edges = set()
    while len(edges) < 200:
        a, b = rng.randrange(60), rng.randrange(60)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    rows = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    return Relation(("x", "y"), rows, name="R")


@pytest.fixture
def graph_db(small_graph):
    return Database({"R": small_graph})


@pytest.fixture
def triangle_query():
    return parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")


@pytest.fixture
def one_join_query():
    return parse_query("onejoin(x,y,z) :- R(x,y), S(y,z)")


@pytest.fixture
def two_table_db():
    """R(x,y), S(y,z): a small skewed join instance."""
    r = Relation(
        ("x", "y"),
        [(i, i % 4) for i in range(12)] + [(100 + i, 0) for i in range(6)],
        name="R",
    )
    s = Relation(
        ("y", "z"),
        [(j % 4, j) for j in range(10)] + [(0, 200 + j) for j in range(5)],
        name="S",
    )
    return Database({"R": r, "S": s})


@pytest.fixture(autouse=True)
def _step_cone_certificates(monkeypatch):
    """Postcondition: every optimal step-cone result carries a certificate
    that passes the full check (dual feasibility and strong duality).

    Wraps the one function both LP paths build optimal results with, so
    results from ``lp_bound``, ``BoundSolver`` and the persistent model are
    all covered; failures are collected and reported after the test.
    """
    build = _LP_BOUND._optimal_result
    failures = []

    def checked(assembly, *args, **kwargs):
        result = build(assembly, *args, **kwargs)
        if assembly.cone in ("normal", "modular") and not verify_certificate(
            result
        ):
            failures.append(result)
        return result

    monkeypatch.setattr(_LP_BOUND, "_optimal_result", checked)
    yield
    assert not failures, f"step-cone certificate check failed: {failures[0]}"
