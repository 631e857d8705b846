#!/usr/bin/env python3
"""Quickstart: ℓp-norm bounds on the triangle query.

Builds a small skewed graph, collects ℓp statistics on its degree
sequences, and computes several upper bounds on the triangle count —
including the paper's headline ℓ2 bound (Eq. 4) — comparing each against
the true cardinality.

Run:  python examples/quickstart.py
"""

import math

from repro import Database, collect_statistics, lp_bound, parse_query, product_form
from repro.core import verify_certificate
from repro.datasets import power_law_graph
from repro.evaluation import count_query


def main() -> None:
    # 1. a skewed graph: 600 nodes, ~4000 (symmetric) edges
    edges = power_law_graph(num_nodes=600, num_edges=4000, exponent=0.7, seed=42)
    db = Database({"R": edges})

    # 2. the triangle query, the standard illustration for size bounds
    query = parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")
    true_count = count_query(query, db)
    print(f"graph: {len(edges)} edges; true triangle count |Q| = {true_count}")

    # 3. precompute ℓp statistics for p ∈ {1, 2, 3, ∞} on all join columns
    stats = collect_statistics(query, db, ps=[1.0, 2.0, 3.0, math.inf])
    print(f"collected {len(stats)} statistics (all simple: {stats.is_simple})")

    # 4. bounds from growing families of norms
    for label, ps in [
        ("{1}      (AGM)  ", [1.0]),
        ("{1,∞}    (PANDA)", [1.0, math.inf]),
        ("{1,2}           ", [1.0, 2.0]),
        ("{1,2,3,∞}       ", [1.0, 2.0, 3.0, math.inf]),
    ]:
        result = lp_bound(stats.restrict_ps(ps), query=query)
        print(
            f"  {label} bound = {result.bound:12.1f}"
            f"   ratio to truth = {result.bound / true_count:8.2f}"
        )

    # 5. the best bound's certificate: the witness inequality (8) and its
    #    product form (9), plus the certificate check: strong duality and,
    #    on the normal cone, dual feasibility
    best = lp_bound(stats, query=query)
    print("\nbest bound certificate (Theorem 1.1):")
    print("  |Q| ≤", product_form(best))
    print("  via:", best.witness_inequality())
    print("  certificate verified:", verify_certificate(best))


if __name__ == "__main__":
    main()
