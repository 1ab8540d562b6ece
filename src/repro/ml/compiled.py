"""Compiled (flat-array) Random Forest evaluation for fleet-scale batches.

The interpreted :class:`~repro.ml.forest.RandomForestClassifier` walks
Python ``_Node`` objects one tree at a time; at fleet scale (hundreds of
device types × batches of fingerprints) the per-node Python dispatch
dominates.  This module *compiles* a fitted forest into flat NumPy node
tables — feature index, threshold, left/right child, leaf
class-probabilities — held in a :class:`CompiledForest`.  Training
compiles each forest once and keeps only the compiled form, which is
also the npz model store's format, loaded as is after
:meth:`CompiledForest.validate`.  :class:`CompiledBank` concatenates
the node tables of every per-type :class:`CompiledForest` into one
global node table, so stage-1 classification of a batch is a single
depth-bounded traversal for all types at once, then a per-forest
positive-column accumulation.  It is the only stage-1 inference path;
the interpreted forest stays for training and as the test oracle.

Bit-exactness contract
----------------------
Column ``j`` of ``CompiledBank.positive_proba`` is **byte-identical** to
the positive column of forest ``j``'s interpreted ``predict_proba`` for
any fitted forest and any input batch.  Three properties make this hold:

* Routing uses the same ``x[:, feature] <= threshold`` float64 comparison
  (NaN routes right in both paths, because ``NaN <= t`` is false).
* Leaf probabilities are exact copies of the interpreted leaf vectors,
  pre-scattered into the forest's class order.  Scattering pads absent
  classes with ``+0.0``; since class probabilities are non-negative and
  ``v + 0.0`` is bitwise ``v`` for ``v >= 0``, padding never perturbs a
  column.
* Per-tree accumulation is a *sequential* ``total += proba_t`` loop in
  tree order followed by one division — the exact operation sequence of
  the interpreted path.  Pairwise-summation reductions
  (``np.sum(axis=...)``, ``np.add.reduce``) are deliberately avoided:
  they re-associate the adds and change low-order bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import RandomForestClassifier
from .tree import _Node

__all__ = [
    "CompiledForest",
    "CompiledBank",
    "compile_forest",
]

#: Node-table value marking a leaf in the ``feature`` column.
_LEAF = -1


def _flatten_forest(
    forest: RandomForestClassifier,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Flatten a fitted forest into node tables.

    Returns ``(feature, threshold, left, right, proba, tree_roots,
    max_depth)``.  ``proba`` rows are leaf class-probability vectors
    scattered into the forest's class order (zero-padded for classes the
    tree never saw); internal-node rows are zero.  Child indices are
    global into the node table.
    """
    if not forest.trees_ or forest.classes_ is None:
        raise RuntimeError("forest is not fitted")
    n_classes = len(forest.classes_)
    features: list[int] = []
    thresholds: list[float] = []
    lefts: list[int] = []
    rights: list[int] = []
    probas: list[np.ndarray] = []
    roots: list[int] = []
    max_depth = 0
    zero_row = np.zeros(n_classes)
    for tree in forest.trees_:
        root = tree._root
        if root is None or tree.classes_ is None:
            raise RuntimeError("tree is not fitted")
        # Map this tree's class order onto the forest's (same mapping the
        # interpreted forest applies per prediction).
        columns = np.searchsorted(forest.classes_, tree.classes_)
        roots.append(len(features))
        # Iterative preorder walk; children are emitted after their parent
        # and back-patched, so deep trees never hit the recursion limit.
        stack: list[tuple[_Node, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent, depth = stack.pop()
            index = len(features)
            max_depth = max(max_depth, depth)
            if parent >= 0:
                # Parent pushed right first, so the left child is emitted
                # first and claims the still-unset slot.
                if lefts[parent] < 0:
                    lefts[parent] = index
                else:
                    rights[parent] = index
            if node.is_leaf:
                assert node.probabilities is not None
                row = zero_row.copy()
                row[columns] = node.probabilities
                features.append(_LEAF)
                thresholds.append(0.0)
                lefts.append(index)
                rights.append(index)
                probas.append(row)
            else:
                assert node.left is not None and node.right is not None
                features.append(node.feature)
                thresholds.append(node.threshold)
                lefts.append(-1)
                rights.append(-1)
                probas.append(zero_row)
                stack.append((node.right, index, depth + 1))
                stack.append((node.left, index, depth + 1))
    return (
        np.asarray(features, dtype=np.int32),
        np.asarray(thresholds, dtype=np.float64),
        np.asarray(lefts, dtype=np.int32),
        np.asarray(rights, dtype=np.int32),
        np.asarray(probas, dtype=np.float64),
        np.asarray(roots, dtype=np.int32),
        max_depth,
    )


@dataclass(frozen=True)
class CompiledForest:
    """A fitted forest flattened into node tables (see module docstring).

    Produced by :func:`compile_forest`; the only form a trained model
    keeps, and the exchange format the npz model store serializes (every
    field is a plain array or scalar).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    proba: np.ndarray
    tree_roots: np.ndarray
    classes_: np.ndarray
    max_depth: int

    @property
    def n_trees(self) -> int:
        return len(self.tree_roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def validate(self, n_features: int) -> None:
        """Raise ``ValueError`` unless these are well-formed node tables.

        Checks what inference and importance rely on, so that a tampered
        table fails here rather than mis-routing rows or raising
        ``IndexError`` at the first batch: integer index arrays and float
        value arrays of one length; ``proba`` shaped ``(n_nodes,
        n_classes)``; tree roots ascending from 0; split features in
        ``[0, n_features)``; children in range and every leaf a self-loop;
        no root-to-leaf path deeper than ``max_depth``.  The depth check
        walks every tree level by level from its root, so it also proves
        each tree acyclic.
        """
        indices = (self.feature, self.left, self.right, self.tree_roots)
        if any(a.dtype.kind not in "iu" for a in indices) or any(
            a.dtype.kind != "f" for a in (self.threshold, self.proba)
        ):
            raise ValueError("node tables have the wrong dtypes")
        n = self.feature.size
        if n == 0 or any(a.shape != (n,) for a in (self.feature, self.threshold, self.left, self.right)):
            raise ValueError("node tables are empty or differ in length")
        if self.proba.shape != (n, len(self.classes_)):
            raise ValueError(f"leaf probabilities are not shaped ({n}, {len(self.classes_)})")
        roots = self.tree_roots
        if roots.ndim != 1 or not len(roots) or roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n:
            raise ValueError("tree roots do not ascend from 0 inside the node table")
        if np.any((self.feature < _LEAF) | (self.feature >= n_features)):
            raise ValueError(f"split feature outside [0, {n_features})")
        if np.any((self.left < 0) | (self.left >= n) | (self.right < 0) | (self.right >= n)):
            raise ValueError("child index outside the node table")
        leaves = np.flatnonzero(self.feature == _LEAF)
        if np.any(self.left[leaves] != leaves) or np.any(self.right[leaves] != leaves):
            raise ValueError("a leaf is not its own child")
        if not 0 <= self.max_depth < n:
            raise ValueError(f"max_depth {self.max_depth} outside [0, {n})")
        frontier = roots[self.feature[roots] != _LEAF]
        for _ in range(self.max_depth):
            if not frontier.size:
                break
            children = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = np.unique(children[self.feature[children] != _LEAF])
        if frontier.size:
            raise ValueError(f"a root-to-leaf path is deeper than max_depth {self.max_depth}")


def compile_forest(forest: RandomForestClassifier) -> CompiledForest:
    """Compile a fitted forest into a :class:`CompiledForest`."""
    feature, threshold, left, right, proba, roots, max_depth = _flatten_forest(forest)
    return CompiledForest(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        proba=proba,
        tree_roots=roots,
        classes_=np.asarray(forest.classes_),
        max_depth=max_depth,
    )


class CompiledBank:
    """Every per-type forest's trees in one node table (stage-1 hot path).

    ``positive_proba`` classifies a whole batch against the whole bank
    with a single depth-bounded traversal: node positions live in a
    ``(rows, total_trees)`` matrix, so one gather advances every tree of
    every type's forest by one level.  Per-forest positive-class
    probabilities are then accumulated tree-by-tree (sequentially, for
    bit-exactness with the interpreted forests) and divided once.

    Built from ``(label, CompiledForest)`` pairs, so assembling a bank is
    array concatenation: each forest is compiled once, when it is
    trained (or read straight from an npz payload), and never again.
    Forests whose training data never contained the positive class are
    excluded: they can never accept a fingerprint.
    """

    def __init__(self, forests: list[tuple[str, CompiledForest]]) -> None:
        self.labels: list[str] = []
        features: list[np.ndarray] = []
        thresholds: list[np.ndarray] = []
        lefts: list[np.ndarray] = []
        rights: list[np.ndarray] = []
        positives: list[np.ndarray] = []
        roots: list[np.ndarray] = []
        offsets = [0]
        max_depth = 0
        node_base = 0
        for label, compiled in forests:
            if True not in list(compiled.classes_):
                continue
            positive_column = list(compiled.classes_).index(True)
            self.labels.append(label)
            features.append(compiled.feature)
            thresholds.append(compiled.threshold)
            lefts.append(compiled.left + node_base)
            rights.append(compiled.right + node_base)
            positives.append(compiled.proba[:, positive_column])
            roots.append(compiled.tree_roots + node_base)
            offsets.append(offsets[-1] + compiled.n_trees)
            max_depth = max(max_depth, compiled.max_depth)
            node_base += compiled.n_nodes
        if self.labels:
            self.feature = np.concatenate(features)
            self.threshold = np.concatenate(thresholds)
            self.left = np.concatenate(lefts)
            self.right = np.concatenate(rights)
            self.leaf_positive = np.concatenate(positives)
            self.tree_roots = np.concatenate(roots)
        else:
            self.feature = np.empty(0, dtype=np.int32)
            self.threshold = np.empty(0)
            self.left = np.empty(0, dtype=np.int32)
            self.right = np.empty(0, dtype=np.int32)
            self.leaf_positive = np.empty(0)
            self.tree_roots = np.empty(0, dtype=np.int32)
        self.forest_offsets = np.asarray(offsets, dtype=np.int64)
        self.max_depth = max_depth
        # Hot-path companions for :meth:`positive_proba`.  ``_feature_safe``
        # makes leaf rows gatherable (any in-range column works: a leaf's
        # children both self-loop).  ``_children2`` interleaves the children
        # so one gather at ``2*node + went_left`` advances a lane; a leaf
        # stores itself in both slots, which also keeps NaN inputs parked
        # on the leaf whichever way the dead comparison falls.
        self._feature_safe = np.where(self.feature >= 0, self.feature, 0).astype(np.intp)
        self._children2 = np.empty(2 * len(self.feature), dtype=np.intp)
        is_leaf = self.feature < 0
        self._children2[0::2] = np.where(is_leaf, np.arange(len(self.feature)), self.right)
        self._children2[1::2] = np.where(is_leaf, np.arange(len(self.feature)), self.left)
        self._roots = self.tree_roots.astype(np.intp)

    @property
    def n_forests(self) -> int:
        return len(self.labels)

    def positive_proba(self, x: np.ndarray) -> np.ndarray:
        """``(rows, n_forests)`` positive-class probabilities.

        Column ``j`` is byte-identical to
        ``forests[j].predict_proba(x)[:, positive_column]`` on the
        interpreted path.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        n_rows = len(x)
        out = np.zeros((n_rows, self.n_forests))
        if not self.n_forests or not n_rows:
            return out
        # Evaluate every node's split decision for every row up front with
        # one column gather and one broadcast compare (the identical
        # ``value <= threshold`` float64 comparison the interpreted trees
        # make, so NaN still routes right).  The traversal loop then needs
        # just two gathers per level: decision bit, then interleaved child.
        n_nodes = len(self.feature)
        columns = np.ascontiguousarray(x.T).take(self._feature_safe, axis=0)
        decisions = np.ascontiguousarray((columns <= self.threshold[:, None]).T)
        dflat = decisions.reshape(-1)
        row_offsets = np.arange(n_rows, dtype=np.intp)[:, None] * n_nodes
        idx = np.empty((n_rows, len(self._roots)), dtype=np.intp)
        idx[:] = self._roots
        scratch = np.empty_like(idx)
        went_left = np.empty(idx.shape, dtype=bool)
        for _ in range(self.max_depth):
            np.add(idx, row_offsets, out=scratch)
            np.take(dflat, scratch, out=went_left)
            np.left_shift(idx, 1, out=scratch)
            np.add(scratch, went_left, out=scratch, casting="unsafe")
            np.take(self._children2, scratch, out=idx)
        leaf_positive = self.leaf_positive.take(idx)
        counts = np.diff(self.forest_offsets)
        if counts.size and counts.min() == counts.max():
            # Uniform bank (every forest has the same tree count, the
            # DeviceIdentifier case): accumulate all forests' columns in
            # lockstep.  Tree order within each forest is still ascending
            # and the adds stay sequential, so every column is bit-equal
            # to the per-forest loop below.
            per_forest = int(counts[0])
            stacked = leaf_positive.reshape(n_rows, self.n_forests, per_forest)
            for t in range(per_forest):
                out += stacked[:, :, t]
            out /= per_forest
            return out
        for j in range(self.n_forests):
            lo = int(self.forest_offsets[j])
            hi = int(self.forest_offsets[j + 1])
            column = out[:, j]
            # Sequential adds in tree order, then one division — the same
            # float operation sequence as the interpreted forest.
            for t in range(lo, hi):
                column += leaf_positive[:, t]
            column /= hi - lo
        return out
