"""The REPRO_LP solve-mode machinery and the persistent/one-shot contract.

``REPRO_LP=oneshot`` is one fresh model per solve on scipy's bundled
HiGHS, the path the whole suite already exercises; its bit-identity with
the ``linprog`` oracle is ``test_oneshot_highs.py``'s.  These tests pin
down the rest:

* env parsing, ``set_lp_mode`` validation ordering, ``forced_lp_mode``
  save/restore;
* graceful degradation when highspy is absent (``auto`` falls back,
  ``persistent`` raises :class:`LpUnavailableError` naming the extra);
* the differential contract: the warm-started persistent path agrees
  with the one-shot oracle to 1e-6 on every cone and query shape
  (run only where highspy is installed — the CI service leg).
"""

import math

import pytest

from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import (
    LP_MODES,
    BoundSolver,
    LpUnavailableError,
    active_lp_mode,
    configured_lp_mode,
    forced_lp_mode,
    highspy_available,
    set_lp_mode,
)
import importlib

# the module, not the identically-named function repro.core re-exports
lp_mod = importlib.import_module("repro.core.lp_bound")
from repro.datasets import power_law_graph

PS = [1.0, 2.0, 3.0, math.inf]


@pytest.fixture(autouse=True)
def _restore_lp_mode():
    previous = lp_mod._LP_ACTIVE
    yield
    lp_mod._LP_ACTIVE = previous


@pytest.fixture
def skew_db():
    return Database(
        {
            "R": power_law_graph(80, 400, 0.9, seed=3),
            "S": power_law_graph(80, 300, 0.2, seed=4),
        }
    )


class TestModeConfiguration:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP", raising=False)
        assert configured_lp_mode() == "auto"

    @pytest.mark.parametrize(
        "raw", ["oneshot", "ONESHOT", " persistent ", "Auto", ""]
    )
    def test_parses_env(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_LP", raw)
        assert configured_lp_mode() in LP_MODES

    def test_rejects_unknown_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP", "warp")
        with pytest.raises(ValueError, match="REPRO_LP"):
            configured_lp_mode()

    def test_set_mode_rejects_unknown_without_switching(self):
        before = active_lp_mode()
        with pytest.raises(ValueError, match="not one of"):
            set_lp_mode("warp")
        assert active_lp_mode() == before

    def test_active_mode_is_resolved(self):
        # auto never survives resolution: the active mode is concrete
        assert active_lp_mode() in ("persistent", "oneshot")
        expected = "persistent" if highspy_available() else "oneshot"
        assert set_lp_mode("auto") == expected

    def test_forced_mode_restores(self):
        before = active_lp_mode()
        with forced_lp_mode("oneshot") as mode:
            assert mode == "oneshot"
            assert active_lp_mode() == "oneshot"
        assert active_lp_mode() == before

    def test_solver_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="lp_mode"):
            BoundSolver(lp_mode="warp")

    def test_pinned_solver_ignores_process_mode(self):
        solver = BoundSolver(lp_mode="oneshot")
        with forced_lp_mode("oneshot"):
            assert solver.resolved_lp_mode() == "oneshot"
        unpinned = BoundSolver()
        with forced_lp_mode("oneshot"):
            assert unpinned.resolved_lp_mode() == "oneshot"


@pytest.mark.skipif(
    highspy_available(), reason="highspy installed: degradation n/a"
)
class TestWithoutHighspy:
    def test_auto_degrades_to_oneshot(self):
        assert set_lp_mode("auto") == "oneshot"

    def test_persistent_raises_naming_the_extra(self):
        with pytest.raises(LpUnavailableError, match=r"repro\[service\]"):
            set_lp_mode("persistent")

    def test_pinned_persistent_solver_fails_at_solve_time(
        self, skew_db
    ):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        stats = collect_statistics(query, skew_db, ps=PS)
        solver = BoundSolver(lp_mode="persistent")
        with pytest.raises(LpUnavailableError):
            solver.solve(stats, query=query)


class TestOneshotIsTheOracle:
    def test_bit_identical_to_lp_bound(self, skew_db):
        query = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, skew_db, ps=PS)
        direct = lp_bound(stats, query=query)
        with forced_lp_mode("oneshot"):
            served = BoundSolver().solve(stats, query=query)
        assert served.log2_bound == direct.log2_bound
        assert served.cone == direct.cone
        assert served.status == direct.status


DIFFERENTIAL_QUERIES = [
    "triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)",
    "chain(a,b,c,d) :- R(a,b), S(b,c), R(c,d)",
    "star(a,b,c,d) :- R(a,b), S(a,c), R(a,d)",
    "cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)",
    "selfjoin(x,y) :- R(x,y), S(y,x)",
    "one(x,y) :- R(x,y)",
]


@pytest.mark.skipif(
    not highspy_available(), reason="persistent path needs highspy"
)
class TestPersistentDifferential:
    """The warm path must agree with scipy to LP-solver tolerance."""

    @pytest.mark.parametrize("text", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("cone", ["auto", "polymatroid", "normal"])
    def test_agrees_with_oneshot(self, skew_db, text, cone):
        query = parse_query(text)
        stats = collect_statistics(query, skew_db, ps=PS)
        with forced_lp_mode("oneshot"):
            oracle = BoundSolver().solve(stats, query=query, cone=cone)
        with forced_lp_mode("persistent"):
            warm = BoundSolver().solve(stats, query=query, cone=cone)
        assert warm.status == oracle.status
        assert warm.cone == oracle.cone
        if oracle.status == "optimal":
            assert warm.log2_bound == pytest.approx(
                oracle.log2_bound, abs=1e-6
            )

    def test_model_reuse_across_b_swaps(self):
        # same LP structure, different statistics vectors: one model,
        # many warm re-solves
        query = parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        solver = BoundSolver(lp_mode="persistent", memoize_results=False)
        bounds = []
        for seed in (11, 12, 13, 14):
            db = Database({"R": power_law_graph(60, 250, 0.7, seed=seed)})
            stats = collect_statistics(query, db, ps=PS)
            with forced_lp_mode("oneshot"):
                oracle = lp_bound(stats, query=query)
            bounds.append(
                (solver.solve(stats, query=query).log2_bound,
                 oracle.log2_bound)
            )
        assert solver.cached_models() == 1
        assert solver.persistent_resolves == 4
        for warm, oracle in bounds:
            assert warm == pytest.approx(oracle, abs=1e-6)

    def test_family_slices_use_persistent_path(self, skew_db):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        stats = collect_statistics(query, skew_db, ps=PS)
        solver = BoundSolver(lp_mode="persistent")
        full = solver.solve(stats, query=query)
        agm = solver.solve_family(stats, (1.0,), query=query)
        assert agm.log2_bound >= full.log2_bound - 1e-9
