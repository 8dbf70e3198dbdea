"""
Cross-validated method comparison
=================================

Training and evaluating on the same labels flatters the learned
weights. Two-fold cross-validation by query removes the leak: weights
fitted on one half fuse the other half, and the stitched run is scored
against the official judgments. The same harness compares the learned
combination with the unweighted fusion rules.
"""

from rankfuse import (
    compare_methods,
    cross_validated_fusion,
    curve_csv,
    generate_synthetic,
)

runs, qrels = generate_synthetic(
    seed=21, num_queries=40, num_systems=8, docs_per_query=100, relevant_per_query=20
)

# fold A holds the 1st, 3rd, 5th ... queries, fold B the rest
result = cross_validated_fusion(runs, qrels, qrels)
print(f"fold A: {len(result.split.partition_a)} queries, "
      f"fold B: {len(result.split.partition_b)} queries")
print(f"cross-validated {result.fused.run_tag}: "
      f"MAP {result.report.mean('map'):.4f}")

# each method's curve over run prefixes; keep the all-systems rows
# plus the single 'best-component' baseline row
rows = compare_methods(runs, qrels, qrels)
final = [r for r in rows if r.num_systems in (1, len(runs))]
print("\n" + curve_csv(final))

# adding systems best-first: the curve climbs, then flattens
curve = [r for r in rows if r.method == "LC-mlr"]
print("fused MAP by number of systems:")
for row in curve:
    bar = "#" * int(row.map * 40)
    print(f"  {row.num_systems:2d} {row.map:.4f} {bar}")
