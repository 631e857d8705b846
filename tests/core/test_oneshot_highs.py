"""The one-shot HiGHS call against ``scipy.optimize.linprog``.

The one-shot path (``lp_bound._solve``) builds a fresh model on the HiGHS
build scipy ships and loads it straight from numpy arrays.
``linprog(method="highs")`` with the same options runs the same build
through scipy's wrapper, so the two must agree bit for bit: status,
objective, x and row duals.  Each test records the LPs ``_solve`` is
handed by the public entry points and re-solves every one with
``linprog``, the oracle.  The solvers here are pinned to the one-shot
mode, so every solve reaches ``_solve`` whatever ``REPRO_LP`` says.
"""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from repro import BoundSolver, StatisticsCatalog, lp_bound
from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from repro.datasets import JOB_QUERY_IDS, imdb_database, job_query
from repro.query.query import Atom
from test_step_cone_lp import simple_statistics

lp_mod = importlib.import_module("repro.core.lp_bound")

CONES = ("normal", "modular", "polymatroid")
PS = (1.0, 2.0, 3.0, math.inf)
FAMILIES = ((1.0,), (1.0, math.inf))
_LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def linprog_oracle(cone, c, a_ub, b_ub, bounds):
    return linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs",
        options=lp_mod._oneshot_options(cone),
    )


class Recorder:
    """Wraps ``lp_bound._solve``; keeps every (arguments, answer) pair."""

    def __init__(self, monkeypatch):
        self.calls = []
        solve = lp_mod._solve

        def recording(*args):
            call = [args, None]  # kept even when the solve raises
            self.calls.append(call)
            call[1] = solve(*args)
            return call[1]

        monkeypatch.setattr(lp_mod, "_solve", recording)

    def assert_match_oracle(self) -> list[str]:
        """Every recorded solve equals ``linprog``'s; returns the statuses."""
        assert self.calls
        statuses = []
        for args, (status, objective, x, row_duals) in self.calls:
            res = linprog_oracle(*args)
            want = _LINPROG_STATUS.get(res.status, "error")
            assert status.split(":")[0] == want, (status, res.message)
            if status == "optimal":
                assert np.array_equal(objective, res.fun)
                assert np.array_equal(x, res.x)
                assert np.array_equal(row_duals, res.ineqlin.marginals)
            statuses.append(status)
        self.calls.clear()
        return statuses


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)


@pytest.fixture(scope="module")
def job_statistics():
    db = imdb_database(scale=0.05, seed=11)
    queries = [job_query(qid) for qid in JOB_QUERY_IDS]
    return list(zip(queries, StatisticsCatalog(db).precompute(queries, PS)))


def _stat(variables, v, u, p, log2_bound):
    return ConcreteStatistic(
        AbstractStatistic(Conditional(frozenset(v), frozenset(u)), p),
        log2_bound,
        Atom("R", tuple(variables)),
    )


class TestJobTemplates:
    @pytest.mark.parametrize("cone", ("normal", "modular"))
    def test_step_cones_with_family_slices(
        self, recorder, job_statistics, cone
    ):
        solver = BoundSolver(lp_mode="oneshot")
        for query, stats in job_statistics:
            solver.solve(stats, query=query, cone=cone)
            for family in FAMILIES:
                solver.solve_family(stats, family, query=query, cone=cone)
        assert set(recorder.assert_match_oracle()) == {"optimal"}

    def test_polymatroid_with_family_slices(self, recorder, job_statistics):
        solver = BoundSolver(lp_mode="oneshot")
        for query, stats in job_statistics:
            if len(query.variables) > 7:
                continue
            solver.solve(stats, query=query, cone="polymatroid")
            solver.solve_family(
                stats, (1.0, math.inf), query=query, cone="polymatroid"
            )
        assert solver.family_slices > 0
        assert set(recorder.assert_match_oracle()) == {"optimal"}

    def test_extra_inequalities(self, recorder, job_statistics):
        query, stats = min(job_statistics, key=lambda qs: len(qs[0].variables))
        size = 1 << len(query.variables)
        extra = np.zeros(size)
        extra[1] = extra[2] = 1.0
        extra[3] = -1.0  # h(x0) + h(x1) − h(x0 x1) ≥ 0, a Shannon inequality
        result = lp_bound(
            stats, query=query, cone="polymatroid", extra_inequalities=[extra]
        )
        assert recorder.assert_match_oracle() == ["optimal"]
        assert result.status == "optimal"


class TestEdgeCases:
    @pytest.mark.parametrize("cone", CONES)
    @settings(max_examples=25, deadline=None)
    @given(case=simple_statistics(grid=False))
    def test_simple_statistics(self, cone, case):
        variables, stats = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            recorder = Recorder(monkeypatch)
            lp_bound(stats, variables=variables, cone=cone)
            assert recorder.assert_match_oracle() == ["optimal"]

    @pytest.mark.parametrize("cone", CONES)
    def test_no_statistics(self, recorder, cone):
        result = lp_bound(StatisticsSet([]), variables=("x", "y"), cone=cone)
        if cone != "polymatroid":
            assert recorder.calls[0][0][2] is None  # a_ub
        assert recorder.assert_match_oracle() == ["unbounded"]
        assert result.status == "unbounded"
        assert result.log2_bound == math.inf

    @pytest.mark.parametrize("cone", CONES)
    def test_unconstrained_variable_is_unbounded(self, recorder, cone):
        variables = ("x", "y")
        stats = StatisticsSet([_stat(("x",), ("x",), (), 1.0, 5.0)])
        result = lp_bound(stats, variables=variables, cone=cone)
        assert recorder.assert_match_oracle() == ["unbounded"]
        assert result.status == "unbounded"

    @pytest.mark.parametrize("cone", CONES)
    @pytest.mark.parametrize("shift", (1.0, -10.0), ids=("row", "bound"))
    def test_infeasible_optimum_is_an_error(self, monkeypatch, cone, shift):
        # linprog's post-solve check: an "optimal" x that leaves a row
        # (x = 6 > 5) or a bound (x = -5 < 0) is reported as an error
        class Shifted(lp_mod._Highs):
            def getSolution(self):
                solution = super().getSolution()
                solution.col_value = [v + shift for v in solution.col_value]
                return solution

        monkeypatch.setattr(lp_mod, "_Highs", Shifted)
        stats = StatisticsSet([_stat(("x",), ("x",), (), 1.0, 5.0)])
        result = lp_bound(stats, variables=("x",), cone=cone)
        assert result.status.startswith("error: the solution violates")
        assert math.isnan(result.log2_bound)

    @pytest.mark.parametrize("cone", CONES)
    @pytest.mark.parametrize("bad", (-math.inf, math.inf, math.nan))
    def test_non_finite_statistic_rejected(self, recorder, cone, bad):
        # an empty relation has log2 norm -inf; linprog rejects it too
        stats = StatisticsSet([_stat(("x",), ("x",), (), 1.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            lp_bound(stats, variables=("x",), cone=cone)
        ((args, answer),) = recorder.calls
        assert answer is None
        with pytest.raises(ValueError, match="b_ub must not contain"):
            linprog_oracle(*args)

    def test_non_finite_extra_inequality_rejected(self):
        stats = StatisticsSet([_stat(("x",), ("x",), (), 1.0, 3.0)])
        with pytest.raises(ValueError, match="finite"):
            lp_bound(
                stats,
                variables=("x",),
                cone="polymatroid",
                extra_inequalities=[np.array([0.0, math.nan])],
            )


# run before ``import repro`` in a fresh interpreter: scipy.optimize loads
# the real bindings first, then they are taken away or replaced by a class
# without the numpy-array overloads
_OLD_SCIPY = {
    "no bindings module": (
        "import scipy.optimize\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
    ),
    "no addRows/addCols": (
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "class _Highs:\n"
        "    def setOptionValue(self, key, value):\n"
        "        pass\n"
        "_core._Highs = _Highs\n"
    ),
    "no array overloads": (
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "class _Highs(_core._Highs):\n"
        "    def addRows(self, *args):\n"
        "        raise TypeError('incompatible function arguments')\n"
        "_core._Highs = _Highs\n"
    ),
}


@pytest.mark.parametrize("case", sorted(_OLD_SCIPY))
def test_import_names_the_scipy_floor(case):
    src = Path(lp_mod.__file__).resolve().parents[2]
    script = "import sys\n" + _OLD_SCIPY[case] + "import repro\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode != 0
    assert "ImportError: repro needs scipy>=1.15" in proc.stderr
