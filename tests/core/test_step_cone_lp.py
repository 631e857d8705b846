"""The step-cone LP (``normal`` and ``modular`` cones) against oracles.

The production path solves the step-cone LP over deduplicated candidate
columns, with HiGHS presolve off under the ``oneshot`` LP mode.  The
oracles here are independent:

* the LP over *every* generator W (no deduplication), solved by
  ``scipy.optimize.linprog`` with HiGHS's default presolve;
* the candidate dedup as it was first written, ``np.unique(axis=0)``
  over the boolean pattern matrix;
* dual certificates that satisfy strong duality but are infeasible,
  which :func:`verify_certificate` must reject.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro import StatisticsCatalog
from repro.core import lp_bound
from repro.core.certificates import certificate_gap, verify_certificate
from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from repro.datasets import JOB_QUERY_IDS, imdb_database, job_query
from repro.query.query import Atom

lp_mod = importlib.import_module("repro.core.lp_bound")

STEP_CONES = ("normal", "modular")
PS = (1.0, 2.0, 3.0, math.inf)


def oracle_step_bound(
    variables: tuple[str, ...], statistics: StatisticsSet, cone: str
) -> float:
    """max Σ_W α_W over all generators W, presolve left on."""
    n = len(variables)
    if cone == "modular":
        generators = 1 << np.arange(n, dtype=np.int64)
    else:
        generators = np.arange(1, 1 << n, dtype=np.int64)
    index = {v: i for i, v in enumerate(variables)}
    rows, b = [], []
    for stat in statistics:
        u = sum(1 << index[x] for x in stat.conditional.u)
        uv = u | sum(1 << index[x] for x in stat.conditional.v)
        inv_p = 0.0 if stat.p == math.inf else 1.0 / stat.p
        hit_uv = (generators & uv) != 0
        hit_u = (generators & u) != 0
        rows.append(hit_uv + (inv_p - 1.0) * hit_u)
        b.append(stat.log2_bound)
    res = linprog(
        -np.ones(len(generators)),
        A_ub=np.array(rows),
        b_ub=np.array(b),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def unique_axis0_candidates(n: int, struct) -> np.ndarray:
    """The original dedup: first W of each boolean pattern row."""
    all_w = np.arange(1, 1 << n, dtype=np.int64)
    relevant = sorted({m for mu, muv, _ in struct for m in (mu, muv) if m})
    if not relevant:
        return all_w[:1]
    patterns = np.stack([(all_w & g) != 0 for g in relevant], axis=1)
    _, keep = np.unique(patterns, axis=0, return_index=True)
    return all_w[np.sort(keep)]


@pytest.fixture(scope="module")
def job_statistics():
    db = imdb_database(scale=0.05, seed=11)
    queries = [job_query(qid) for qid in JOB_QUERY_IDS]
    return list(zip(queries, StatisticsCatalog(db).precompute(queries, PS)))


# ----------------------------------------------------------------------
# hypothesis strategy: simple statistics over a few variables, bounded
# by one cardinality statistic over all of them.  HiGHS accepts a row
# violated by up to its 1e-7 feasibility tolerance, so two correct
# solves agree only to about that much when b values differ by less
# (b = 0 and b = 6e-8 on one conditional: presolve on returns 6e-8,
# presolve off 0).  ``grid`` draws b in steps of 1/16, where optima
# agree to 1e-9; arbitrary floats are compared to 1e-6.
@st.composite
def simple_statistics(draw, grid=True):
    if grid:
        log2_bounds = st.integers(0, 320).map(lambda k: k / 16)
    else:
        log2_bounds = st.floats(0.0, 20.0)
    n = draw(st.integers(2, 6))
    variables = tuple(f"x{i}" for i in range(n))
    atom = Atom("R", variables)
    stats = [
        ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset(variables)), 1.0),
            draw(log2_bounds),
            atom,
        )
    ]
    for _ in range(draw(st.integers(0, 8))):
        u = draw(st.sets(st.sampled_from(variables), max_size=1))
        v = draw(
            st.sets(st.sampled_from(variables), min_size=1).filter(
                lambda s, u=u: not (s & u)
            )
        )
        stats.append(
            ConcreteStatistic(
                AbstractStatistic(
                    Conditional(frozenset(v), frozenset(u)),
                    draw(st.sampled_from(PS)),
                ),
                draw(log2_bounds),
                atom,
            )
        )
    return variables, StatisticsSet(stats)


class TestStepConeOracle:
    @pytest.mark.parametrize("cone", STEP_CONES)
    def test_job_templates_match_presolve_on_oracle(
        self, job_statistics, cone
    ):
        for query, stats in job_statistics:
            result = lp_bound(stats, query=query, cone=cone)
            assert result.status == "optimal", query.name
            expected = oracle_step_bound(query.variables, stats, cone)
            assert result.log2_bound == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("cone", STEP_CONES)
    @settings(max_examples=40, deadline=None)
    @given(case=simple_statistics())
    def test_simple_statistics_match_presolve_on_oracle(self, cone, case):
        variables, stats = case
        result = lp_bound(stats, variables=variables, cone=cone)
        assert result.status == "optimal"
        expected = oracle_step_bound(variables, stats, cone)
        assert result.log2_bound == pytest.approx(expected, abs=1e-9)
        assert verify_certificate(result)

    @pytest.mark.parametrize("cone", STEP_CONES)
    @settings(max_examples=40, deadline=None)
    @given(case=simple_statistics(grid=False))
    def test_any_float_statistics_match_to_solver_tolerance(self, cone, case):
        variables, stats = case
        result = lp_bound(stats, variables=variables, cone=cone)
        assert result.status == "optimal"
        expected = oracle_step_bound(variables, stats, cone)
        assert result.log2_bound == pytest.approx(expected, abs=1e-6)
        assert verify_certificate(result)


class TestCandidateDedup:
    def test_job_candidates_equal_unique_axis0(self, job_statistics):
        for query, stats in job_statistics:
            order = query.variables
            struct, _ = lp_mod._stat_structure(order, stats)
            got = lp_mod._step_candidates(len(order), "normal", struct)
            want = unique_axis0_candidates(len(order), struct)
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 10),
        masks=st.lists(st.integers(0, 1023), max_size=150),
    )
    def test_random_masks_equal_unique_axis0(self, n, masks):
        # up to 150 relevant masks: keys span several uint64 words
        limit = (1 << n) - 1
        struct = [(m & limit & -(m & limit), m & limit, 0.5) for m in masks]
        got = lp_mod._step_candidates(n, "normal", struct)
        want = unique_axis0_candidates(n, struct)
        np.testing.assert_array_equal(got, want)

    def test_every_mask_relevant_spans_sixteen_words(self):
        struct = [(m & -m, m, 0.5) for m in range(1, 1 << 10)]
        got = lp_mod._step_candidates(10, "normal", struct)
        want = unique_axis0_candidates(10, struct)
        np.testing.assert_array_equal(got, want)
        assert len(got) == (1 << 10) - 1


def _chain(n: int, log2_size: float = 10.0) -> tuple:
    """R_i(x_i, x_{i+1}) for i < n − 1: cardinalities and ℓ∞ degrees."""
    variables = tuple(f"x{i}" for i in range(n))
    stats = []
    for i in range(n - 1):
        atom = Atom(f"R{i}", variables[i : i + 2])
        pair = frozenset(variables[i : i + 2])
        stats.append(
            ConcreteStatistic(
                AbstractStatistic(Conditional(pair), 1.0), log2_size, atom
            )
        )
        stats.append(
            ConcreteStatistic(
                AbstractStatistic(
                    Conditional(
                        frozenset([variables[i + 1]]),
                        frozenset([variables[i]]),
                    ),
                    math.inf,
                ),
                1.0,
                atom,
            )
        )
    return variables, StatisticsSet(stats)


class TestFullCertificate:
    def _forged(self, result, weights):
        forged = lp_mod.BoundResult(
            result.log2_bound,
            result.cone,
            "optimal",
            result.variables,
            result.statistics,
            dual_weights=np.asarray(weights, dtype=float),
        )
        # the forgery passes the strong-duality half of the check
        assert certificate_gap(forged) < 1e-12
        return forged

    @pytest.mark.parametrize("cone", STEP_CONES)
    def test_accepts_solver_certificate(self, cone):
        variables, stats = _chain(5)
        result = lp_bound(stats, variables=variables, cone=cone)
        assert verify_certificate(result)

    @pytest.mark.parametrize("cone", STEP_CONES)
    def test_rejects_infeasible_weights_with_zero_gap(self, cone):
        # w puts the whole bound on one cardinality: Σ w_i·b_i matches,
        # but the witness inequality fails on W = {x4}
        variables, stats = _chain(5)
        result = lp_bound(stats, variables=variables, cone=cone)
        weights = np.zeros(len(stats))
        weights[0] = result.log2_bound / stats[0].log2_bound
        assert not verify_certificate(self._forged(result, weights))

    @pytest.mark.parametrize("cone", STEP_CONES)
    def test_rejects_negative_weight_with_zero_gap(self, cone):
        # a duplicated statistic has the same row and the same b: moving
        # weight between the twins keeps Σ w_i·b_i and every generator
        # sum, so only the sign check can reject the negative twin
        variables, stats = _chain(3)
        stats = StatisticsSet([*stats, stats[0]])
        result = lp_bound(stats, variables=variables, cone=cone)
        weights = np.array(result.dual_weights, dtype=float)
        twin = len(stats) - 1
        weights[0] += weights[twin] + 1.0
        weights[twin] = -1.0
        assert not verify_certificate(self._forged(result, weights))

    def test_polymatroid_keeps_strong_duality_only(self):
        variables, stats = _chain(3)
        result = lp_bound(stats, variables=variables, cone="polymatroid")
        assert verify_certificate(result)
        weights = np.zeros(len(stats))
        weights[0] = result.log2_bound / stats[0].log2_bound
        assert verify_certificate(self._forged(result, weights))


class TestLargeQueryErrors:
    def test_thirty_variable_chain_states_real_limits(self):
        variables, stats = _chain(30)
        assert stats.is_simple
        with pytest.raises(ValueError) as info:
            lp_bound(stats, variables=variables)
        message = str(info.value)
        assert "limited to 14 variables (got 30)" in message
        assert "22 variables" in message
        assert "use cone='normal'" not in message
        with pytest.raises(ValueError, match="limited to 22 variables"):
            lp_bound(stats, variables=variables, cone="normal")

    def test_non_simple_statistics_are_not_sent_to_normal(self):
        variables, stats = _chain(16)
        atom = Atom("T", variables[:3])
        stats = StatisticsSet(
            list(stats)
            + [
                ConcreteStatistic(
                    AbstractStatistic(
                        Conditional(
                            frozenset(variables[2:3]),
                            frozenset(variables[:2]),
                        ),
                        2.0,
                    ),
                    1.0,
                    atom,
                )
            ]
        )
        with pytest.raises(ValueError) as info:
            lp_bound(stats, variables=variables)
        assert "use cone='normal'" not in str(info.value)
        assert "simple statistics" in str(info.value)

    def test_sixteen_variable_simple_chain_is_sent_to_normal(self):
        variables, stats = _chain(16)
        with pytest.raises(ValueError, match="use cone='normal'"):
            lp_bound(stats, variables=variables, cone="polymatroid")
        assert lp_bound(stats, variables=variables).status == "optimal"


class TestSolverOptions:
    """Step cones skip presolve under ``oneshot``; while ``persistent`` is
    active every solve keeps HiGHS's defaults, as the persistent model
    does, so the two paths stay bit-identical."""

    def test_oneshot_mode_skips_presolve_on_step_cones_only(
        self, monkeypatch
    ):
        monkeypatch.setattr(lp_mod, "_LP_ACTIVE", "oneshot")
        assert lp_mod._oneshot_options("normal") == {"presolve": False}
        assert lp_mod._oneshot_options("modular") == {"presolve": False}
        assert lp_mod._oneshot_options("polymatroid") == {}

    def test_persistent_mode_keeps_highs_defaults(self, monkeypatch):
        monkeypatch.setattr(lp_mod, "_HAVE_HIGHSPY", True)
        monkeypatch.setattr(lp_mod, "_LP_ACTIVE", "persistent")
        for cone in ("normal", "modular", "polymatroid"):
            assert lp_mod._oneshot_options(cone) == {}

    def test_bad_lp_mode_leaves_lp_bound_working(self, monkeypatch):
        # lp_bound is the one-shot oracle: it never needs the LP mode
        monkeypatch.setattr(lp_mod, "_HAVE_HIGHSPY", True)
        monkeypatch.setattr(lp_mod, "_LP_ACTIVE", None)
        monkeypatch.setenv("REPRO_LP", "bogus")
        variables, stats = _chain(4)
        result = lp_bound(stats, variables=variables, cone="normal")
        assert result.status == "optimal"
