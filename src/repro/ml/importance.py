"""Split-count feature importance of a compiled forest.

Lets an operator ask *which of the 23 Table-I features (at which packet
position) the classifier bank actually keys on* — useful both for sanity
(payload-free features only) and for the paper's observation that
behavioural structure, not any single field, drives identification.
"""

from __future__ import annotations

import numpy as np

from .compiled import CompiledForest

__all__ = ["forest_feature_importance"]


def forest_feature_importance(compiled: CompiledForest, n_features: int) -> np.ndarray:
    """Mean over the trees of each tree's split counts per feature.

    A tree's counts are normalized to sum to 1 (a stump's stay zero).
    Tree ``t`` owns the nodes from ``tree_roots[t]`` up to the next root,
    so its counts are a ``bincount`` of its internal nodes' features.
    (Split counts rather than impurity-decrease keep the computation
    independent of retained training data; for shallow fingerprint trees
    the two rank features nearly identically.)
    """
    if not compiled.n_trees:
        raise ValueError("forest has no trees")
    bounds = np.append(compiled.tree_roots, compiled.n_nodes)
    per_tree = np.zeros((compiled.n_trees, n_features))
    for t in range(compiled.n_trees):
        features = compiled.feature[bounds[t] : bounds[t + 1]]
        counts = np.bincount(features[features >= 0], minlength=n_features).astype(np.float64)
        total = counts.sum()
        per_tree[t] = counts / total if total > 0 else counts
    return np.mean(per_tree, axis=0)
