"""The ℓp-norm bound as a linear program (Sec. 5, Theorem 5.2).

Theorem 5.2 identifies the best upper bound derivable from a statistics set
(Σ, B) with the optimum of

    Log-L-Bound_K(Σ, b)  =  max h(X)
                            s.t.  h ∈ K,
                                  (1/p_i)·h(U_i) + h(V_i|U_i) ≤ b_i  ∀τ_i∈Σ

over a cone K of set functions.  This module implements the LP for three
cones:

``polymatroid``
    K = Γ_n, cut out by the elemental Shannon inequalities.  The exact
    polymatroid bound of the paper; 2^n LP variables.
``normal``
    K = N_n, parameterised by step-function coefficients α_W ≥ 0.  By
    Theorem 6.1 this equals the polymatroid bound whenever all statistics
    are *simple* (|U| ≤ 1) — and it is dramatically smaller: one LP column
    per distinct intersection pattern of W with the constraint sets.
``modular``
    K = M_n (singleton steps only).  This is the cone implicitly used by
    Jayaraman et al. [14]; Appendix B shows it is *not* sound in general —
    exposed here to reproduce that analysis, not for estimation.

Results carry dual weights: the witness inequality (8) behind the bound
and therefore "which norms were used" (the paper's Fig. 1 Norms column).

Solve modes
-----------
Two solve paths answer every LP, selected by a process-wide *LP mode*
(``REPRO_LP``, mirroring ``REPRO_KERNELS``):

``REPRO_LP=oneshot``
    One fresh HiGHS model per solve, on the HiGHS build scipy ships
    (``scipy.optimize._highspy._core``, scipy ≥ 1.15), loaded straight
    from numpy arrays and solved cold.  :func:`lp_bound` always uses it.
    Its results are bit-identical to ``scipy.optimize.linprog(method=
    "highs")`` with the same options, which the test suite keeps as the
    oracle (``tests/core/test_oneshot_highs.py``).
``REPRO_LP=persistent``
    A long-lived :mod:`highspy` model per (cone, order, structure),
    cached by :class:`BoundSolver` next to its assemblies: re-solves swap
    only the statistic rows' bounds, so HiGHS warm-starts from the
    previous basis instead of re-presolving and solving cold.  Requires
    the ``repro[service]`` extra; raises :class:`LpUnavailableError`
    without it.
``REPRO_LP=auto`` (default)
    ``persistent`` when :mod:`highspy` is importable, else ``oneshot``.

Both paths solve the *identical* constraint system; optima agree to
solver tolerance (the differential suite ``tests/core/test_lp_modes.py``
enforces 1e-6 on ``log2_bound`` across the E-family), but last-bit
values and degenerate dual witnesses may differ — anything that needs
bit-identical numbers pins ``oneshot``.  Under ``oneshot`` the step
cones skip HiGHS presolve (:data:`_HIGHS_OPTIONS`); while ``persistent``
is active, every solve keeps HiGHS's defaults (:func:`_oneshot_options`).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy
from scipy import sparse

from ..entropy.shannon import elemental_inequalities
from ..entropy.vectors import EntropyVector
from ..query.query import ConjunctiveQuery
from .conditionals import ConcreteStatistic, StatisticsSet
from .lru import LruCache

__all__ = [
    "BoundResult",
    "BoundSolver",
    "BoundTask",
    "BoundTaskError",
    "LpUnavailableError",
    "lp_bound",
    "lp_bound_many",
    "CONES",
    "LP_MODES",
    "active_lp_mode",
    "configured_lp_mode",
    "forced_lp_mode",
    "highspy_available",
    "set_lp_mode",
]

CONES = ("auto", "polymatroid", "normal", "modular")

_POLYMATROID_MAX_VARS = 14
_NORMAL_MAX_VARS = 22


def _probe_highs(highs_class) -> None:
    """Load an empty model through the numpy-array ``addRows``/``addCols``
    overloads the one-shot path calls (a ``TypeError`` when missing)."""
    probe = highs_class()
    probe.setOptionValue("output_flag", False)
    none, empty = np.zeros(0, dtype=np.int32), np.zeros(0)
    probe.addRows(0, empty, empty, 0, none, none, empty)
    probe.addCols(0, empty, empty, empty, 0, none, none, empty)


# The HiGHS build scipy ships, driven directly.  The module is private, so
# its shape is checked once here rather than failing on the first solve.
try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus as _ModelStatus,
        HighsStatus as _HighsStatus,
        _Highs,
    )

    _probe_highs(_Highs)
except (ImportError, AttributeError, TypeError) as exc:
    raise ImportError(
        "repro needs scipy>=1.15, whose bundled HiGHS bindings "
        "(scipy.optimize._highspy._core) take numpy arrays in "
        f"addRows/addCols; found scipy {scipy.__version__}"
    ) from exc

_STATUS_NAMES = {
    _ModelStatus.kInfeasible: "infeasible",
    _ModelStatus.kUnbounded: "unbounded",
}

#: How far an optimal x may leave its bounds or rows — linprog's
#: post-solve check, 10·√tol at its default tol of 1e-9.
_FEASIBILITY_TOL = 10 * math.sqrt(1e-9)

# ----------------------------------------------------------------------
# LP solve modes (REPRO_LP), mirroring relational.kernels' REPRO_KERNELS
# ----------------------------------------------------------------------

LP_MODES = ("auto", "persistent", "oneshot")

_LP_ENV_VAR = "REPRO_LP"


class LpUnavailableError(RuntimeError):
    """The ``persistent`` LP mode was requested but highspy is missing."""


try:  # pragma: no cover - exercised on the CI service leg
    import highspy as _highspy

    _HAVE_HIGHSPY = True
except ImportError:
    _highspy = None
    _HAVE_HIGHSPY = False


def highspy_available() -> bool:
    """Whether the persistent warm-started path can run in this process."""
    return _HAVE_HIGHSPY


def configured_lp_mode() -> str:
    """The mode requested by ``REPRO_LP`` (default ``auto``)."""
    mode = os.environ.get(_LP_ENV_VAR, "auto").strip().lower() or "auto"
    if mode not in LP_MODES:
        raise ValueError(
            f"{_LP_ENV_VAR}={mode!r} is not one of {', '.join(LP_MODES)}"
        )
    return mode


def _resolve_lp_mode(mode: str) -> str:
    if mode not in LP_MODES:
        raise ValueError(
            f"LP mode {mode!r} is not one of {', '.join(LP_MODES)}"
        )
    if mode == "auto":
        return "persistent" if _HAVE_HIGHSPY else "oneshot"
    if mode == "persistent" and not _HAVE_HIGHSPY:
        raise LpUnavailableError(
            "LP mode 'persistent' requested but highspy is not importable; "
            "install the optional extra (pip install 'repro[service]') "
            "or use REPRO_LP=oneshot"
        )
    return mode


#: The resolved mode (``"persistent"`` | ``"oneshot"``), lazily bound so
#: importing the package never fails — a bad ``REPRO_LP`` value or a
#: missing highspy surfaces on the first governed solve (or an explicit
#: :func:`set_lp_mode`), with a message naming the fix.
_LP_ACTIVE: str | None = None


def active_lp_mode() -> str:
    """The resolved LP mode of this process."""
    global _LP_ACTIVE
    if _LP_ACTIVE is None:
        _LP_ACTIVE = _resolve_lp_mode(configured_lp_mode())
    return _LP_ACTIVE


def set_lp_mode(mode: str | None = None) -> str:
    """Pin the process-wide LP mode (``None`` re-reads ``REPRO_LP``)."""
    global _LP_ACTIVE
    if mode is None:
        mode = configured_lp_mode()
    _LP_ACTIVE = _resolve_lp_mode(mode)
    return _LP_ACTIVE


@contextmanager
def forced_lp_mode(mode: str):
    """Temporarily pin the LP mode (tests and benchmarks)."""
    global _LP_ACTIVE
    previous = _LP_ACTIVE
    _LP_ACTIVE = _resolve_lp_mode(mode)
    try:
        yield _LP_ACTIVE
    finally:
        _LP_ACTIVE = previous


@dataclass
class BoundResult:
    """Outcome of the bound LP.

    ``log2_bound`` is the log2 of the upper bound on |Q(D)| (``inf`` when
    the statistics do not bound the output, e.g. a join column without any
    statistic).  ``dual_weights[i]`` is the weight w_i of statistic i in
    the witness inequality (8); Σ w_i·b_i = log2_bound at optimality.
    """

    log2_bound: float
    cone: str
    status: str
    variables: tuple[str, ...]
    statistics: StatisticsSet
    dual_weights: np.ndarray | None = None
    h_values: np.ndarray | None = None
    normal_coefficients: dict[int, float] | None = field(default=None, repr=False)

    @property
    def bound(self) -> float:
        """The bound in linear space (may overflow to inf)."""
        if self.log2_bound == math.inf:
            return math.inf
        if self.log2_bound == -math.inf:
            return 0.0
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return math.inf

    def used_statistics(
        self, tol: float = 1e-7
    ) -> list[tuple[ConcreteStatistic, float]]:
        """Statistics with non-zero dual weight, i.e. those the bound uses."""
        if self.dual_weights is None:
            return []
        return [
            (stat, float(w))
            for stat, w in zip(self.statistics, self.dual_weights)
            if w > tol
        ]

    def norms_used(self, tol: float = 1e-7) -> list[float]:
        """Sorted distinct p values carrying dual weight (Fig. 1 column)."""
        return sorted({stat.p for stat, _ in self.used_statistics(tol)})

    def witness_inequality(self, tol: float = 1e-7) -> str:
        """Human-readable rendering of the witness inequality (8)."""
        terms = []
        for stat, w in self.used_statistics(tol):
            cond = stat.conditional
            u = ",".join(sorted(cond.u)) or "∅"
            v = ",".join(sorted(cond.v))
            inv_p = 0.0 if stat.p == math.inf else 1.0 / stat.p
            terms.append(f"{w:.4g}·({inv_p:.4g}·h({u}) + h({v}|{u}))")
        lhs = " + ".join(terms) if terms else "0"
        return f"{lhs} ≥ h({','.join(self.variables)})"

    def entropy_vector(self) -> EntropyVector:
        """The optimal h* as an :class:`EntropyVector` (primal witness)."""
        if self.h_values is None:
            raise ValueError(f"no primal solution (status: {self.status})")
        return EntropyVector(self.variables, self.h_values)


def _variable_order(
    query: ConjunctiveQuery | None,
    statistics: StatisticsSet,
    variables: Sequence[str] | None,
) -> tuple[str, ...]:
    if variables is not None:
        return tuple(variables)
    if query is not None:
        return query.variables
    seen: dict[str, None] = {}
    for stat in statistics:
        for v in sorted(stat.conditional.variables):
            seen.setdefault(v, None)
    return tuple(seen)


def _stat_structure(
    variables: tuple[str, ...], statistics: StatisticsSet
) -> tuple[tuple[tuple[int, int, float], ...], np.ndarray]:
    """The LP-relevant *structure* of a statistics set, plus its b vector.

    Each statistic contributes one constraint
    (1/p)h(U) + h(UV) − h(U) ≤ b  ⟺  h(UV) + (1/p − 1)·h(U) ≤ b,
    fully described by ``(mask_u, mask_uv, 1/p)`` over subset masks — at
    most two nonzeros, never a dense 2^n row.  The structure is the
    constraint matrix's identity: two statistics sets with equal structure
    differ only in ``b``, which is exactly what :class:`BoundSolver`'s
    re-solve path swaps.
    """
    index = {v: i for i, v in enumerate(variables)}
    struct = []
    b = np.empty(len(statistics))
    for i, stat in enumerate(statistics):
        cond = stat.conditional
        mask_u = 0
        for u in cond.u:
            mask_u |= 1 << index[u]
        mask_uv = mask_u
        for v in cond.v:
            mask_uv |= 1 << index[v]
        inv_p = 0.0 if stat.p == math.inf else 1.0 / stat.p
        struct.append((mask_u, mask_uv, inv_p))
        b[i] = stat.log2_bound
    return tuple(struct), b


#: HiGHS options per cone for the one-shot path, as scipy's
#: ``linprog(method="highs")`` spells them (:func:`_solve` passes
#: ``presolve: False`` to HiGHS as ``"off"``).  The step-cone matrix is
#: dense (JOB Q33: 558 × 2879, 72 % nonzero) and presolve costs more than
#: it saves there: the 99 JOB LPs take 6.6 s of solve time with presolve
#: and 1.3 s without.  The sparse polymatroid LP keeps it: 23 JOB
#: polymatroid LPs (≤ 9 variables) take a median 3.7 s with presolve and
#: 4.4 s without.  (2-core x86 VM, scipy 1.17.1.)
_HIGHS_OPTIONS: dict[str, dict[str, object]] = {
    "polymatroid": {},
    "normal": {"presolve": False},
    "modular": {"presolve": False},
}


def _oneshot_options(cone: str) -> dict[str, object]:
    """:data:`_HIGHS_OPTIONS` for ``cone`` — or HiGHS's defaults while
    the persistent path is the active LP mode.

    The persistent model keeps HiGHS's defaults: with presolve off, a
    warm re-solve there can keep a structure-mate's optimal basis, a
    different degenerate dual than a cold solve finds.  While it is
    active, one-shot solves use the same defaults, so the two paths
    keep returning bit-identical results for the same LP.
    """
    if _HAVE_HIGHSPY:
        try:
            if active_lp_mode() == "persistent":
                return {}
        except ValueError:  # a bad REPRO_LP surfaces on governed solves
            pass
    return _HIGHS_OPTIONS[cone]


def _colwise(a_ub) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise (start, index, value) arrays of a constraint matrix —
    the nonzeros in column order, rows ascending within each column, as
    :func:`scipy.sparse.csc_array` lays them out."""
    if sparse.issparse(a_ub):
        csc = a_ub.tocsc()
        return (
            csc.indptr.astype(np.int32, copy=False),
            csc.indices.astype(np.int32, copy=False),
            csc.data,
        )
    num_rows, num_cols = a_ub.shape
    # right for any layout; a view, not a copy, for the column-major
    # step rows (see _step_rows)
    flat = a_ub.ravel(order="F")
    nonzero = np.flatnonzero(flat)
    start = np.searchsorted(nonzero // num_rows, np.arange(num_cols + 1))
    return (
        start.astype(np.int32),
        (nonzero % num_rows).astype(np.int32),
        flat[nonzero],
    )


def _solve(
    cone: str,
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray | None,
    bounds: Sequence[tuple[float, float | None]],
) -> tuple[str, float, np.ndarray, np.ndarray]:
    """Solve min c·x s.t. a_ub·x ≤ b_ub, bounds, on a fresh HiGHS model.

    Returns ``(status, objective, x, row_duals)``; ``status`` is
    ``"optimal"``, ``"infeasible"``, ``"unbounded"`` or ``"error: …"``
    (any other HiGHS model status, ``kUnboundedOrInfeasible`` included),
    and the other three are only meaningful when it is ``"optimal"``.
    An optimal answer whose x leaves its bounds or rows by more than
    :data:`_FEASIBILITY_TOL` is an error, as linprog reports it.
    """
    num_cols = len(c)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    for key, value in _oneshot_options(cone).items():
        if key == "presolve":
            value = "on" if value else "off"
        highs.setOptionValue(key, value)
    lower = np.array([low for low, _ in bounds], dtype=np.float64)
    upper = np.array(
        [math.inf if high is None else high for _, high in bounds],
        dtype=np.float64,
    )
    if a_ub is None:
        start = np.zeros(num_cols + 1, dtype=np.int32)
        index, value = np.zeros(0, dtype=np.int32), np.zeros(0)
    else:
        b_ub = np.asarray(b_ub, dtype=np.float64)
        if not np.isfinite(b_ub).all():
            raise ValueError(
                "LP right-hand sides must be finite (an empty relation has "
                f"log2 norm -inf), got {b_ub[~np.isfinite(b_ub)][:3]}"
            )
        # the rows go in empty; their entries come with the columns
        none = np.zeros(0, dtype=np.int32)
        lhs = np.full(len(b_ub), -math.inf)
        rows = highs.addRows(len(b_ub), lhs, b_ub, 0, none, none, np.zeros(0))
        if rows == _HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP's rows")
        start, index, value = _colwise(a_ub)
    cols = highs.addCols(
        num_cols, c, lower, upper, len(value), start[:-1], index, value
    )
    if cols == _HighsStatus.kError:
        raise ValueError("HiGHS rejected the LP's columns")
    highs.run()
    status = highs.getModelStatus()
    if status != _ModelStatus.kOptimal:
        name = _STATUS_NAMES.get(status)
        if name is None:
            name = f"error: {highs.modelStatusToString(status)}"
        return name, math.nan, np.zeros(0), np.zeros(0)
    solution = highs.getSolution()
    objective = highs.getInfo().objective_function_value
    x = np.array(solution.col_value)
    tol = _FEASIBILITY_TOL
    feasible = not math.isnan(objective) and np.all(
        (x >= lower - tol) & (x <= upper + tol)
    )
    if feasible and a_ub is not None:
        feasible = np.all(b_ub - a_ub @ x >= -tol)
    if not feasible:
        return (
            f"error: the solution violates the constraints by more than "
            f"{tol:.2E}",
            math.nan,
            np.zeros(0),
            np.zeros(0),
        )
    return "optimal", objective, x, np.array(solution.row_dual)


@lru_cache(maxsize=None)
def _neg_shannon_block(n: int) -> tuple[sparse.csr_matrix, int]:
    """The memoised −A block of the elemental inequalities plus its row
    count — rebuilt-per-call negation was the dominant setup cost of
    repeated polymatroid bounds.  Read-only (``sparse.vstack`` copies)."""
    shannon = elemental_inequalities(n)
    return (-shannon).tocsr(), shannon.shape[0]


@dataclass
class _Assembly:
    """A cached constraint skeleton: everything but the b vector.

    For the polymatroid cone ``a_stats`` holds the statistic rows (≤2
    nonzeros each, assembled as COO — never through dense 2^n rows) and
    ``a_ub`` the full stat+Shannon matrix; for the step cones ``a_ub`` is
    the dense statistic-row matrix over the deduplicated step-function
    ``candidates`` (``None`` when there are no statistics).
    """

    cone: str
    num_stats: int
    a_ub: "sparse.csr_matrix | np.ndarray | None"
    c: np.ndarray
    bounds: list[tuple[float, float | None]]
    a_stats: "sparse.csr_matrix | None" = None
    candidates: np.ndarray | None = None


def _stat_block(
    struct: Sequence[tuple[int, int, float]], size: int
) -> sparse.csr_matrix:
    """The statistic constraint rows as a sparse matrix, built directly in
    COO form (duplicate entries sum; explicit zeros are eliminated, so the
    result is bit-identical to densifying each row first)."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, (mask_u, mask_uv, inv_p) in enumerate(struct):
        rows.append(i)
        cols.append(mask_uv)
        data.append(1.0)
        if mask_u:
            rows.append(i)
            cols.append(mask_u)
            data.append(inv_p - 1.0)
    block = sparse.coo_matrix(
        (data, (rows, cols)), shape=(len(struct), size)
    ).tocsr()
    block.eliminate_zeros()
    return block


def _assemble_polymatroid(
    n: int, struct: Sequence[tuple[int, int, float]]
) -> _Assembly:
    if n > _POLYMATROID_MAX_VARS:
        simple = all(mask_u & (mask_u - 1) == 0 for mask_u, _, _ in struct)
        if simple and n <= _NORMAL_MAX_VARS:
            hint = "use cone='normal', which is exact for simple statistics"
        else:
            hint = (
                "cone='normal' is exact only for simple statistics "
                f"(|U| ≤ 1) and limited to {_NORMAL_MAX_VARS} variables, "
                "so no cone can bound this query"
            )
        raise ValueError(
            f"polymatroid cone limited to {_POLYMATROID_MAX_VARS} variables "
            f"(got {n}); {hint}"
        )
    size = 1 << n
    neg_shannon, _ = _neg_shannon_block(n)  # −A from A·h ≥ 0
    a_stats = _stat_block(struct, size) if struct else None
    if a_stats is not None:
        a_ub = sparse.vstack([a_stats, neg_shannon], format="csr")
    else:
        a_ub = sparse.vstack([neg_shannon], format="csr")
    c = np.zeros(size)
    c[size - 1] = -1.0
    bounds = [(0.0, 0.0)] + [(0.0, None)] * (size - 1)
    return _Assembly("polymatroid", len(struct), a_ub, c, bounds, a_stats)


def _step_candidates(
    n: int, cone: str, struct: Sequence[tuple[int, int, float]]
) -> np.ndarray:
    """Step-function masks W: singletons (modular) or all non-empty W
    deduplicated by intersection pattern with the constraint sets."""
    if cone == "modular":
        return np.array([1 << i for i in range(n)], dtype=np.int64)
    if n > _NORMAL_MAX_VARS:
        raise ValueError(
            f"normal cone limited to {_NORMAL_MAX_VARS} variables (got {n})"
        )
    all_w = np.arange(1, 1 << n, dtype=np.int64)
    relevant = sorted({m for mu, muv, _ in struct for m in (mu, muv) if m})
    if not relevant:
        return all_w[:1]
    # pattern key of W: bit j set when W hits relevant mask j, packed
    # into uint64 words; one 1-D unique over the keys (first occurrences)
    keys = np.zeros((len(all_w), (len(relevant) + 63) // 64), np.uint64)
    for j, g in enumerate(relevant):
        hit = ((all_w & g) != 0).astype(np.uint64)
        keys[:, j >> 6] |= hit << np.uint64(j & 63)
    if keys.shape[1] > 1:
        keys = keys.view(np.dtype((np.void, 8 * keys.shape[1])))
    _, keep = np.unique(keys.ravel(), return_index=True)
    return all_w[np.sort(keep)]


def _step_rows(
    struct: Sequence[tuple[int, int, float]], generators: np.ndarray
) -> np.ndarray:
    """The statistic rows (≥ 1 of them) evaluated on step functions:
    entry (i, W) is 1[W∩U_iV_i≠∅] + (1/p_i − 1)·1[W∩U_i≠∅]."""
    mask_u, mask_uv, inv_p = map(np.array, zip(*struct))
    hit_uv = (generators[:, None] & mask_uv) != 0
    hit_u = (generators[:, None] & mask_u) != 0
    # built W-major and transposed: column-major, so the solver's
    # column-wise arrays come from one pass over a contiguous buffer
    return (hit_uv + (inv_p - 1.0) * hit_u).T


def _assemble_step_cone(
    n: int, cone: str, struct: Sequence[tuple[int, int, float]]
) -> _Assembly:
    candidates = _step_candidates(n, cone, struct)
    m = len(candidates)
    a_ub = _step_rows(struct, candidates) if struct else None
    # every non-empty W intersects X, so h(X) = Σ_W α_W
    c = -np.ones(m)
    bounds = [(0.0, None)] * m
    return _Assembly(cone, len(struct), a_ub, c, bounds, None, candidates)


def _optimal_result(
    assembly: _Assembly,
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    log2_bound: float,
    x: np.ndarray,
    stat_duals: np.ndarray,
) -> BoundResult:
    """Wrap an optimal (objective, primal, stat duals) into a BoundResult.

    Shared by the one-shot path and the persistent HiGHS path — the
    two differ only in how the raw solution was produced.
    """
    if assembly.cone == "polymatroid":
        return BoundResult(
            log2_bound,
            "polymatroid",
            "optimal",
            variables,
            statistics,
            dual_weights=stat_duals,
            h_values=np.asarray(x, float),
        )
    alpha = {
        int(w): float(a)
        for w, a in zip(assembly.candidates, x)
        if a > 1e-12
    }
    masks = np.arange(1 << len(variables))
    h_values = np.zeros(len(masks))
    for w_mask, a in alpha.items():
        h_values[(masks & w_mask) != 0] += a
    return BoundResult(
        log2_bound,
        assembly.cone,
        "optimal",
        variables,
        statistics,
        dual_weights=stat_duals,
        h_values=h_values,
        normal_coefficients=alpha,
    )


def _solve_assembly(
    assembly: _Assembly,
    b_stats: np.ndarray,
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    extra_inequalities: Sequence[np.ndarray] = (),
) -> BoundResult:
    """Run the LP for an assembled skeleton and wrap up a BoundResult."""
    cone = assembly.cone
    if cone == "polymatroid":
        a_ub = assembly.a_ub
        extra_rows = len(extra_inequalities)
        if extra_rows:
            size = len(assembly.c)
            blocks = [a_ub]
            for vec in extra_inequalities:
                vec = np.asarray(vec, float)
                if vec.shape != (size,):
                    raise ValueError(
                        f"extra inequality must have length {size}, "
                        f"got {vec.shape}"
                    )
                if not np.isfinite(vec).all():
                    raise ValueError("extra inequality must be finite")
                blocks.append(sparse.csr_matrix(-vec.reshape(1, -1)))
            a_ub = sparse.vstack(blocks, format="csr")
        shannon_rows = a_ub.shape[0] - assembly.num_stats - extra_rows
        b_ub = np.concatenate(
            [b_stats, np.zeros(shannon_rows + extra_rows)]
        )
    else:
        a_ub, b_ub = assembly.a_ub, b_stats if assembly.num_stats else None
    status, objective, x, row_duals = _solve(
        cone, assembly.c, a_ub, b_ub, assembly.bounds
    )
    if status == "unbounded":
        return BoundResult(math.inf, cone, status, variables, statistics)
    if status == "infeasible":
        return BoundResult(-math.inf, cone, status, variables, statistics)
    if status != "optimal":
        return BoundResult(math.nan, cone, status, variables, statistics)
    duals = -row_duals[: assembly.num_stats]
    return _optimal_result(
        assembly, variables, statistics, float(-objective), x, duals
    )


class _PersistentModel:
    """A long-lived HiGHS model for one cached assembly.

    Built once per (cone, order, structure) from the same matrices the
    one-shot path hands to scipy; every re-solve swaps only the statistic
    rows' upper bounds (the Shannon rows stay ≤ 0), so HiGHS keeps the
    previous basis and warm-starts the simplex instead of solving cold.
    Thread-safe: one model is shared across :func:`lp_bound_many`'s
    thread pool, serialised by a per-model lock (HiGHS instances are not
    reentrant).
    """

    def __init__(self, assembly: _Assembly) -> None:
        if not _HAVE_HIGHSPY:  # pragma: no cover - guarded by callers
            raise LpUnavailableError("highspy is not importable")
        if not assembly.num_stats:
            raise ValueError("persistent models need ≥ 1 statistic row")
        self._assembly = assembly
        self._lock = threading.Lock()
        self.resolves = 0
        matrix = sparse.csr_matrix(assembly.a_ub)
        num_rows, num_cols = matrix.shape
        inf = _highspy.kHighsInf
        lp = _highspy.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.col_cost_ = np.asarray(assembly.c, dtype=np.float64)
        lp.col_lower_ = np.array(
            [low for low, _ in assembly.bounds], dtype=np.float64
        )
        lp.col_upper_ = np.array(
            [inf if high is None else high for _, high in assembly.bounds],
            dtype=np.float64,
        )
        lp.row_lower_ = np.full(num_rows, -inf)
        lp.row_upper_ = np.zeros(num_rows)
        lp.a_matrix_.format_ = _highspy.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        solver = _highspy.Highs()
        solver.setOptionValue("output_flag", False)
        solver.passModel(lp)
        self._solver = solver
        self._inf = inf

    def solve(
        self,
        b_stats: np.ndarray,
        variables: tuple[str, ...],
        statistics: StatisticsSet,
    ) -> BoundResult:
        assembly = self._assembly
        with self._lock:
            solver = self._solver
            for i, value in enumerate(np.asarray(b_stats, dtype=float)):
                solver.changeRowBounds(i, -self._inf, float(value))
            solver.run()
            status = solver.getModelStatus()
            Status = _highspy.HighsModelStatus
            if status in (Status.kUnbounded, Status.kUnboundedOrInfeasible):
                # h ≡ 0 is always feasible for our LPs (b ≥ 0), so an
                # ambiguous presolve verdict means unbounded in practice
                return BoundResult(
                    math.inf,
                    assembly.cone,
                    "unbounded",
                    variables,
                    statistics,
                )
            if status == Status.kInfeasible:
                return BoundResult(
                    -math.inf,
                    assembly.cone,
                    "infeasible",
                    variables,
                    statistics,
                )
            if status != Status.kOptimal:
                return BoundResult(
                    math.nan,
                    assembly.cone,
                    f"error: {solver.modelStatusToString(status)}",
                    variables,
                    statistics,
                )
            self.resolves += 1
            solution = solver.getSolution()
            x = np.asarray(solution.col_value, dtype=float)
            duals = -np.asarray(
                solution.row_dual[: assembly.num_stats], dtype=float
            )
            objective = float(solver.getObjectiveValue())
        return _optimal_result(
            assembly, variables, statistics, -objective, x, duals
        )


def _polymatroid_lp(
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    extra_inequalities: Sequence[np.ndarray],
) -> BoundResult:
    struct, b_stats = _stat_structure(variables, statistics)
    assembly = _assemble_polymatroid(len(variables), struct)
    return _solve_assembly(
        assembly, b_stats, variables, statistics, extra_inequalities
    )


def _step_cone_lp(
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    cone: str,
) -> BoundResult:
    """LP over positive combinations of step functions.

    ``cone='normal'`` uses all non-empty W (deduplicated by intersection
    pattern with the constraint sets); ``cone='modular'`` only singletons.
    """
    struct, b_stats = _stat_structure(variables, statistics)
    assembly = _assemble_step_cone(len(variables), cone, struct)
    return _solve_assembly(assembly, b_stats, variables, statistics)


def lp_bound(
    statistics: StatisticsSet | Iterable[ConcreteStatistic],
    query: ConjunctiveQuery | None = None,
    cone: str = "auto",
    variables: Sequence[str] | None = None,
    extra_inequalities: Sequence[np.ndarray] = (),
) -> BoundResult:
    """Compute the ℓp bound of Theorem 5.2 for a statistics set.

    Parameters
    ----------
    statistics:
        Concrete statistics (Σ, B); bounds are log2 values.
    query:
        The query, used to fix the variable order (and X = all variables).
        May be omitted when ``variables`` is given or when the statistics'
        conditionals already mention every variable.
    cone:
        One of :data:`CONES`.  ``auto`` picks ``normal`` when every
        statistic is simple (exact by Theorem 6.1) and ``polymatroid``
        otherwise.
    extra_inequalities:
        Additional valid entropic inequalities c·h ≥ 0 (subset-indexed
        vectors) to tighten the cone — e.g. Zhang–Yeung instantiations for
        the Appendix D.2 analysis.  Only supported by the polymatroid cone.

    Returns
    -------
    A :class:`BoundResult`; ``result.log2_bound`` bounds log2 |Q(D)| for
    every database D satisfying (Σ, B) (Theorem 1.1 + Theorem 5.2).
    """
    if not isinstance(statistics, StatisticsSet):
        statistics = StatisticsSet(statistics)
    order = _variable_order(query, statistics, variables)
    cone = _resolve_cone(cone, order, statistics, bool(extra_inequalities))
    if cone in ("normal", "modular"):
        return _step_cone_lp(order, statistics, cone)
    return _polymatroid_lp(order, statistics, list(extra_inequalities))


def _resolve_cone(
    cone: str,
    order: tuple[str, ...],
    statistics: StatisticsSet,
    has_extra: bool,
) -> str:
    """Validate inputs and resolve ``auto`` to a concrete cone."""
    if not order:
        raise ValueError("no variables: provide a query or variables=")
    if cone not in CONES:
        raise ValueError(f"unknown cone {cone!r}; expected one of {CONES}")
    if cone == "auto":
        if has_extra:
            return "polymatroid"
        if statistics.is_simple and len(order) <= _NORMAL_MAX_VARS:
            return "normal"
        return "polymatroid"
    if cone in ("normal", "modular") and has_extra:
        raise ValueError("extra_inequalities require the polymatroid cone")
    return cone


class BoundSolver:
    """Structure-cached LP solving for repeated bound computations.

    A workload (an experiment sweep, a join-order search, a scale series)
    solves the *same LP shapes* over and over: the constraint matrix is
    fully determined by the variable order and the statistics structure
    (which conditionals, which p's — see :func:`_stat_structure`), while
    only the right-hand side ``b`` carries the measured norms.  The solver
    therefore keeps two caches:

    * an **assembly cache** keyed by (cone, variable order, structure):
      the sparse constraint skeleton is built once and re-solves swap only
      ``b_ub`` — scale sweeps and per-dataset repetitions of one query
      template never re-assemble;
    * a **result memo** keyed additionally by the ``b`` values: repeated
      requests for the *identical* bound (the plan-search pattern — every
      candidate plan re-costs the same subqueries) are answered without
      calling the LP solver at all.

    Under LP mode ``oneshot`` every fresh solve goes through the exact
    code path of :func:`lp_bound` on a bit-identical constraint matrix,
    so results are numerically identical to the one-shot path; memo hits
    return the previously computed numbers re-bound to the caller's
    statistics set.  Under ``persistent`` (see the module docstring) the
    solver additionally keeps one warm :class:`_PersistentModel` per
    assembly and re-solves swap only the statistic bounds — optima agree
    with the oracle to solver tolerance, not bit-identically.

    **Locking discipline** (the solver is shared by
    :func:`lp_bound_many`'s thread pool and by every thread of the
    bound service's HTTP front-end): all cache and counter mutations
    happen under ``self._lock``; LP solves and assembly construction
    always run *outside* it, so a slow solve never blocks other
    threads' cache hits.  The result-memo hit path first probes the
    memo with a recency-neutral lock-free read
    (:meth:`~repro.core.lru.LruCache.peek`, a plain dict read — atomic
    under the GIL) and takes the lock only to bump the hit counter and
    LRU recency; a warm request therefore holds the lock for a
    dictionary operation, never for LP work.  Whether the *calling
    thread's* last solve was a memo hit is recorded thread-locally and
    exposed as :attr:`last_solve_cached` — reading shared counters
    before/after a solve is racy under concurrency and must not be
    used for that purpose.

    All three caches are LRU under optional budgets
    (``max_cached_results`` / ``result_cache_bytes`` for the result
    memo, ``max_cached_assemblies`` / ``assembly_cache_bytes`` for the
    constraint skeletons; persistent models share the assemblies'
    entry cap — their real memory lives in native HiGHS structures the
    byte estimator cannot see).  ``None`` (the default) leaves a
    budget unbounded, the historical behaviour.  An evicted entry is
    simply recomputed on the next request — results are unaffected.

    ``lp_mode`` pins this solver to a mode; ``None`` (default) follows
    the process-wide :func:`active_lp_mode` at each solve.
    """

    def __init__(
        self,
        memoize_results: bool = True,
        lp_mode: str | None = None,
        max_cached_results: int | None = None,
        result_cache_bytes: int | None = None,
        max_cached_assemblies: int | None = None,
        assembly_cache_bytes: int | None = None,
    ) -> None:
        if lp_mode is not None and lp_mode not in LP_MODES:
            raise ValueError(
                f"lp_mode {lp_mode!r} is not one of {', '.join(LP_MODES)}"
            )
        self._assemblies: LruCache = LruCache(
            max_cached_assemblies, assembly_cache_bytes
        )
        self._models: LruCache = LruCache(max_cached_assemblies)
        self._results: LruCache = LruCache(
            max_cached_results, result_cache_bytes
        )
        self._memoize = memoize_results
        self._lp_mode = lp_mode
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.assembly_hits = 0
        self.assembly_misses = 0
        self.result_hits = 0
        self.solves = 0
        self.persistent_resolves = 0
        self.family_slices = 0

    # ------------------------------------------------------------------
    def cached_assemblies(self) -> int:
        return len(self._assemblies)

    def cached_models(self) -> int:
        """Warm persistent HiGHS models held (0 under ``oneshot``)."""
        return len(self._models)

    def cached_results(self) -> int:
        return len(self._results)

    @property
    def last_solve_cached(self) -> bool:
        """Whether *this thread's* most recent solve was a memo hit.

        Thread-local, so concurrent callers each see their own flag —
        the atomic replacement for comparing the shared ``result_hits``
        counter before and after a solve, which under-/over-counts as
        soon as two threads interleave.
        """
        return getattr(self._tls, "last_cached", False)

    def cache_stats(self) -> dict[str, dict]:
        """Entry/byte/eviction accounting for each cache layer."""
        with self._lock:
            return {
                "results": self._results.stats(),
                "assemblies": self._assemblies.stats(),
                "models": self._models.stats(),
            }

    def resolved_lp_mode(self) -> str:
        """The concrete mode this solver's next fresh solve will use."""
        if self._lp_mode is not None:
            return _resolve_lp_mode(self._lp_mode)
        return active_lp_mode()

    # ------------------------------------------------------------------
    def _assembly_for(
        self,
        cone: str,
        order: tuple[str, ...],
        struct: tuple[tuple[int, int, float], ...],
    ) -> _Assembly:
        key = (cone, order, struct)
        with self._lock:
            assembly = self._assemblies.get(key)
            if assembly is not None:
                self.assembly_hits += 1
                return assembly
            self.assembly_misses += 1
        if cone == "polymatroid":
            assembly = _assemble_polymatroid(len(order), struct)
        else:
            assembly = _assemble_step_cone(len(order), cone, struct)
        with self._lock:
            return self._assemblies.add(key, assembly)

    def solve(
        self,
        statistics: StatisticsSet | Iterable[ConcreteStatistic],
        query: ConjunctiveQuery | None = None,
        cone: str = "auto",
        variables: Sequence[str] | None = None,
        extra_inequalities: Sequence[np.ndarray] = (),
    ) -> BoundResult:
        """Drop-in replacement for :func:`lp_bound`, served from the caches.

        ``extra_inequalities`` bypass the caches (their vectors have no
        compact structure key) and delegate to :func:`lp_bound` directly.
        """
        if not isinstance(statistics, StatisticsSet):
            statistics = StatisticsSet(statistics)
        if extra_inequalities:
            self._tls.last_cached = False
            return lp_bound(
                statistics,
                query=query,
                cone=cone,
                variables=variables,
                extra_inequalities=extra_inequalities,
            )
        order = _variable_order(query, statistics, variables)
        cone = _resolve_cone(cone, order, statistics, False)
        struct, b_stats = _stat_structure(order, statistics)
        return self._solve_structured(cone, order, struct, b_stats, statistics)

    def _solve_structured(
        self,
        cone: str,
        order: tuple[str, ...],
        struct: tuple[tuple[int, int, float], ...],
        b_stats: np.ndarray,
        statistics: StatisticsSet,
        assembly: _Assembly | None = None,
    ) -> BoundResult:
        self._tls.last_cached = False
        memo_key = None
        if self._memoize:
            memo_key = (cone, order, struct, b_stats.tobytes())
            # lock-free fast path: a recency-neutral dict probe — the
            # warm plan-search pattern never contends on the lock for
            # more than the counter/recency bump below
            cached = self._results.peek(memo_key)
            if cached is not None:
                with self._lock:
                    self.result_hits += 1
                    self._results.touch(memo_key)
                self._tls.last_cached = True
                return replace(cached, statistics=statistics)
        if assembly is None:
            assembly = self._assembly_for(cone, order, struct)
        if self.resolved_lp_mode() == "persistent" and assembly.num_stats:
            model = self._model_for(cone, order, struct, assembly)
            result = model.solve(b_stats, order, statistics)
            with self._lock:
                self.persistent_resolves += 1
        else:
            result = _solve_assembly(assembly, b_stats, order, statistics)
        with self._lock:
            self.solves += 1
            if memo_key is not None:
                self._results.add(memo_key, result)
        return result

    def _model_for(
        self,
        cone: str,
        order: tuple[str, ...],
        struct: tuple[tuple[int, int, float], ...],
        assembly: _Assembly,
    ) -> _PersistentModel:
        key = (cone, order, struct)
        with self._lock:
            model = self._models.get(key)
        if model is None:
            model = _PersistentModel(assembly)
            with self._lock:
                model = self._models.add(key, model)
        return model

    def solve_family(
        self,
        statistics: StatisticsSet,
        ps: Iterable[float],
        query: ConjunctiveQuery | None = None,
        cone: str = "auto",
        variables: Sequence[str] | None = None,
    ) -> BoundResult:
        """Bound from the sub-family of ``statistics`` with p ∈ ``ps``.

        Equivalent to ``solve(statistics.restrict_ps(ps), ...)`` — but on
        the polymatroid cone the restricted constraint matrix is obtained
        by *slicing rows* of the cached full-family assembly (statistic
        rows are independent, so the slice is bit-identical to assembling
        the restricted set from scratch).  Step cones re-derive their
        candidate columns from the restricted masks — the deduplication
        pattern changes with the family — and go through the normal
        structure cache instead.
        """
        if not isinstance(statistics, StatisticsSet):
            statistics = StatisticsSet(statistics)
        allowed = set(ps)
        restricted = statistics.restrict_ps(allowed)
        order = _variable_order(query, restricted, variables)
        cone = _resolve_cone(cone, order, restricted, False)
        known = set(order)
        if cone != "polymatroid" or any(
            not (s.conditional.variables <= known) for s in statistics
        ):
            # step cones re-derive candidates; a full set mentioning
            # variables outside the restricted order cannot share masks.
            return self.solve(
                restricted, query=query, cone=cone, variables=variables
            )
        full_struct, full_b = _stat_structure(order, statistics)
        keep = [i for i, s in enumerate(statistics) if s.p in allowed]
        struct = tuple(full_struct[i] for i in keep)
        b_stats = full_b[keep]
        key = ("polymatroid", order, struct)
        with self._lock:
            assembly = self._assemblies.get(key)
        if assembly is None:
            full = self._assembly_for("polymatroid", order, full_struct)
            if full.a_stats is not None and keep:
                neg_shannon, _ = _neg_shannon_block(len(order))
                a_stats = full.a_stats[keep]
                assembly = _Assembly(
                    "polymatroid",
                    len(struct),
                    sparse.vstack([a_stats, neg_shannon], format="csr"),
                    full.c,
                    full.bounds,
                    a_stats,
                )
            else:
                assembly = _assemble_polymatroid(len(order), struct)
            with self._lock:
                assembly = self._assemblies.add(key, assembly)
                self.family_slices += 1
        else:
            with self._lock:
                self.assembly_hits += 1
        return self._solve_structured(
            "polymatroid", order, struct, b_stats, restricted, assembly
        )


@dataclass
class BoundTask:
    """One independent bound computation for :func:`lp_bound_many`.

    ``family`` (when given) restricts ``statistics`` to that norm family
    via :meth:`BoundSolver.solve_family`; ``statistics`` then holds the
    full set.
    """

    statistics: StatisticsSet
    query: ConjunctiveQuery | None = None
    cone: str = "auto"
    variables: tuple[str, ...] | None = None
    family: tuple[float, ...] | None = None


def _run_task(task: BoundTask, solver: BoundSolver) -> BoundResult:
    if task.family is not None:
        return solver.solve_family(
            task.statistics,
            task.family,
            query=task.query,
            cone=task.cone,
            variables=task.variables,
        )
    return solver.solve(
        task.statistics,
        query=task.query,
        cone=task.cone,
        variables=task.variables,
    )


def _run_task_cold(task: BoundTask) -> BoundResult:
    """Process-pool worker: the plain one-shot path (nothing shared)."""
    statistics = task.statistics
    if task.family is not None:
        statistics = statistics.restrict_ps(task.family)
    return lp_bound(
        statistics,
        query=task.query,
        cone=task.cone,
        variables=task.variables,
    )


class BoundTaskError(RuntimeError):
    """A :func:`lp_bound_many` task failed; names which one.

    A batch of hundreds of LPs failing with a bare solver exception is
    undebuggable — this wrapper pins the task index (and the query name,
    when the task has one) onto the failure, with the original exception
    chained as ``__cause__``.
    """

    def __init__(self, index: int, task: BoundTask, cause: BaseException):
        self.index = index
        self.task = task
        name = task.query.name if task.query is not None else None
        label = f"bound task {index}"
        if name:
            label += f" (query {name!r})"
        super().__init__(
            f"{label} failed: {type(cause).__name__}: {cause}"
        )


def _identified(result_fn, index: int, task: BoundTask) -> BoundResult:
    """Run ``result_fn``, wrapping any failure with the task identity."""
    try:
        return result_fn()
    except BoundTaskError:
        raise
    except Exception as exc:
        raise BoundTaskError(index, task, exc) from exc


def lp_bound_many(
    tasks: Iterable[BoundTask],
    solver: BoundSolver | None = None,
    max_workers: int | None = None,
    executor: str = "auto",
) -> list[BoundResult]:
    """Solve many independent bound LPs, preserving task order.

    ``executor`` is one of ``"auto"``, ``"serial"``, ``"thread"``,
    ``"process"``.  ``auto`` picks threads when more than one worker is
    available and serial otherwise; the thread pool shares one
    :class:`BoundSolver` (pass ``solver=`` to share caches across calls),
    while the process pool re-solves cold in each worker (results are
    identical either way).  The result list is always in task order.

    A task that fails raises :class:`BoundTaskError` carrying the task's
    index and query name (original exception chained), whichever
    executor ran it.
    """
    tasks = list(tasks)
    if solver is None:
        solver = BoundSolver()
    workers = max_workers or min(max(len(tasks), 1), os.cpu_count() or 1)
    if executor == "auto":
        executor = "thread" if workers > 1 else "serial"
    if executor == "serial":
        return [
            _identified(lambda: _run_task(task, solver), index, task)
            for index, task in enumerate(tasks)
        ]
    if executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            def run(pair: tuple[int, BoundTask]) -> BoundResult:
                index, task = pair
                return _identified(
                    lambda: _run_task(task, solver), index, task
                )

            return list(pool.map(run, enumerate(tasks)))
    if executor == "process":
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_task_cold, task) for task in tasks]
            return [
                _identified(future.result, index, task)
                for index, (future, task) in enumerate(zip(futures, tasks))
            ]
    raise ValueError(
        f"unknown executor {executor!r}; "
        "expected auto, serial, thread, or process"
    )
