"""
How few judgments does linear combination need?
================================================

The paper's claim: weights trained on a shallow pool, a fifth to a half
of the relevant documents, fuse runs about as well as weights trained
on every judgment. Pick the pool depth whose relevant coverage is
nearest each target, keep only the pooled judgments, and run two-fold
cross-validated fusion trained on them but scored under the full qrels.
The fused MAP holds up; the weights themselves move a good deal.
"""

import numpy as np

from rankfuse import (
    build_pool,
    cross_validated_fusion,
    generate_synthetic,
    make_partial_qrels,
    pick_depth_for_fraction,
)

runs, full = generate_synthetic(3, 50, 10, 120, 25)


def fold_weights(result):
    return [result.weights_a.weights, result.weights_b.weights]


def distance(weights, reference):
    """Relative L2 distance of one fold's weights from the reference fold's."""
    return np.linalg.norm(weights - reference) / np.linalg.norm(reference)


# the reference: the same two folds, trained on every judgment
reference = cross_validated_fusion(runs, full, full)
means = reference.report.mean_metrics()
print(f"full qrels:             MAP {means['map']:.4f}  P@10 {means['p10']:.4f}")

for target in (0.2, 0.3, 0.5):
    depth, fraction = pick_depth_for_fraction(runs, full, target)
    partial = make_partial_qrels(build_pool(runs, depth), full)
    result = cross_validated_fusion(runs, partial, full)
    means = result.report.mean_metrics()
    shifts = [
        distance(weights, ref)
        for weights, ref in zip(fold_weights(result), fold_weights(reference))
    ]
    print(f"target {target:.1f}: depth {depth:2d} "
          f"(fraction {fraction:.3f})  MAP {means['map']:.4f}  P@10 {means['p10']:.4f}  "
          f"weight distance A {shifts[0]:.2f}, B {shifts[1]:.2f}")
