"""Dual certificates for LP bounds.

A :class:`~repro.core.lp_bound.BoundResult` carries the dual weights w_i of
the statistics constraints.  At optimality they certify the bound through
Theorem 1.1: the inequality

    Σ_i w_i ((1/p_i)·h(U_i) + h(V_i|U_i)) ≥ h(X)

is valid on the cone, hence |Q| ≤ Π_i B_i^{w_i} and
log2 |Q| ≤ Σ_i w_i · b_i.  These helpers render and verify that
certificate.
"""

from __future__ import annotations

import math

import numpy as np

from .lp_bound import BoundResult, _stat_structure, _step_rows

__all__ = ["product_form", "verify_certificate", "certificate_gap"]


def product_form(result: BoundResult, tol: float = 1e-7) -> str:
    """The bound as a product of norms, e.g. ``||deg_R(y|x)||_2^0.667·…``."""
    factors = []
    for stat, weight in result.used_statistics(tol):
        p = "∞" if stat.p == math.inf else format(stat.p, "g")
        cond = stat.conditional
        u = ",".join(sorted(cond.u)) or "∅"
        v = ",".join(sorted(cond.v))
        factors.append(
            f"||deg_{stat.guard.relation}({v}|{u})||_{p}^{weight:.4g}"
        )
    return " · ".join(factors) if factors else "1"


def certificate_gap(result: BoundResult) -> float:
    """|Σ w_i·b_i − log2_bound| — zero (to LP tolerance) at optimality."""
    if result.dual_weights is None:
        raise ValueError(f"no certificate (status: {result.status})")
    total = sum(
        float(w) * stat.log2_bound
        for stat, w in zip(result.statistics, result.dual_weights)
    )
    return abs(total - result.log2_bound)


def verify_certificate(result: BoundResult, tol: float = 1e-5) -> bool:
    """Check the dual certificate of an optimal result.

    Every result gets the strong-duality check: Σ w_i·b_i reproduces the
    bound, so the bound really is of the Theorem 1.1 product form
    Π B_i^{w_i}.  Results on the step cones (``normal`` and ``modular``)
    also get dual feasibility, which makes the witness inequality valid on
    the cone: every w_i ≥ −tol, and for every generator W of the cone
    (every non-empty W for ``normal``, each singleton for ``modular``)

        Σ_i w_i·(1[W∩V_iU_i≠∅] + (1/p_i − 1)·1[W∩U_i≠∅]) ≥ 1 − tol,

    the inequality evaluated on the step function of W.  The sum runs
    over the support of w only.  ``polymatroid`` results keep the
    strong-duality check alone: their feasibility needs the Shannon
    multipliers, which a result does not carry.
    """
    if result.status != "optimal":
        return False
    scale = max(1.0, abs(result.log2_bound))
    if certificate_gap(result) > tol * scale:
        return False
    if result.cone in ("normal", "modular"):
        return _step_dual_feasible(result, tol)
    return True


_GENERATOR_CHUNK = 1 << 16


def _step_dual_feasible(result: BoundResult, tol: float) -> bool:
    weights = np.asarray(result.dual_weights, dtype=float)
    if not np.all(weights >= -tol):
        return False
    support = np.flatnonzero(weights)
    if not support.size:
        return False
    struct, _ = _stat_structure(
        result.variables, [result.statistics[i] for i in support]
    )
    n = len(result.variables)
    if result.cone == "modular":
        chunks = [1 << np.arange(n, dtype=np.int64)]
    else:
        chunks = (
            np.arange(start, min(start + _GENERATOR_CHUNK, 1 << n))
            for start in range(1, 1 << n, _GENERATOR_CHUNK)
        )
    for generators in chunks:
        lhs = weights[support] @ _step_rows(struct, generators)
        if np.min(lhs) < 1.0 - tol:
            return False
    return True
