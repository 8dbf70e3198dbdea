"""
What do missing judgments do to the scores?
===========================================

Swapping the full judgment set for a shallow pooled subset moves every
metric, but not equally: precision at a fixed cutoff can only lose
relevant labels, while MAP renormalizes by the surviving R(q), softens
the blow, and on the right list even rises. Grouping queries by label
count shows who is most exposed.
"""

from rankfuse import (
    Qrels,
    RunList,
    build_pool,
    generate_synthetic,
    group_by_relcount,
    group_csv,
    grouped_eval,
    make_partial_qrels,
    sensitivity_csv,
    sensitivity_table,
)

runs, full = generate_synthetic(
    seed=33, num_queries=45, num_systems=8, docs_per_query=100, relevant_per_query=20
)
run = runs[0]

# two pooled substitutes: a shallow pool and a very shallow one
partials = [make_partial_qrels(build_pool(runs, depth), full) for depth in (4, 1)]
rows = sensitivity_table(run, full, partials)
print(sensitivity_csv(rows))

# P@k falls fastest; MAP, renormalized by the shrunken R(q), falls least
for row in rows:
    print(f"{row.qrels_name}: {row.metric.upper():4s} "
          f"{row.full_value:.4f} -> {row.partial_value:.4f} "
          f"({row.formatted_variance})")

# and MAP can flip sign outright: drop the one label the run ranks
# last, and only the perfect early hit is left to average
docs = [f"doc{i:02d}" for i in range(1, 21)]
probe = RunList.from_scores("probe", {"q": {d: float(20 - i) for i, d in enumerate(docs)}})
wide = Qrels({"q": {docs[0]: 1, docs[19]: 1}}, name="wide")
narrow = Qrels({"q": {docs[0]: 1}}, name="narrow")
print()
for row in sensitivity_table(probe, wide, [narrow]):
    print(f"narrow: {row.metric.upper():4s} "
          f"{row.full_value:.4f} -> {row.partial_value:.4f} "
          f"({row.formatted_variance})")

# pooling leaves an uneven number of surviving labels per query;
# tertiles over that count separate the worst- and best-covered topics
partial = partials[0]
groups = group_by_relcount(partial, mode="tertiles")
print("\nper-group means under the depth-4 labels:")
print(group_csv(grouped_eval(run, partial, groups)))
