"""Golden hashes of trained models.

Training is deterministic for a fixed seed, so any change to the tree
grower, the forest's sampling or the bank's training sets that alters a
single node shows here.  A change that alters models on purpose updates
these hashes and says why; one that claims to keep models identical must
leave them as they are.
"""

import hashlib

import numpy as np

from repro.core import DeviceIdentifier
from repro.devices import DEVICE_PROFILES, collect_dataset
from repro.ml import RandomForestClassifier

GOLDEN_PROFILES = ("Aria", "HueBridge", "EdimaxCam", "TP-LinkPlugHS110", "TP-LinkPlugHS100")

BANK_SHA256 = "edd9a5cec3cf6d3f37ab3aa73f57b8238aa00f2e68e50e3c1a0eddbab87dfd2c"
FOREST_SHA256 = "0e31c25e76941950c14ffcbca705a14f10c3c8753d3271bcb3646c871c7a1ff4"


def bank_sha256(identifier):
    """SHA-256 over the compiled bank's node tables."""
    bank = identifier.snapshot.bank
    digest = hashlib.sha256()
    for table in (bank.feature, bank.threshold, bank.left, bank.right, bank.leaf_positive):
        digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


def forest_sha256(forest):
    """SHA-256 over every tree's nodes in pre-order."""
    digest = hashlib.sha256()
    for tree in forest.trees_:
        stack = [tree._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                digest.update(node.probabilities.tobytes())
                continue
            digest.update(np.int64(node.feature).tobytes())
            digest.update(np.float64(node.threshold).tobytes())
            stack.extend((node.right, node.left))
    return digest.hexdigest()


def test_bank_tables_pinned():
    profiles = [p for p in DEVICE_PROFILES if p.identifier in GOLDEN_PROFILES]
    registry = collect_dataset(profiles, runs_per_device=8, seed=5)
    identifier = DeviceIdentifier(random_state=5).fit(registry)
    assert bank_sha256(identifier) == BANK_SHA256


def test_five_class_forest_pinned():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 4, size=(160, 12)).astype(np.float64)
    y = (x[:, 0] + x[:, 3] + rng.integers(0, 2, size=160)).astype(int) % 5
    forest = RandomForestClassifier(n_estimators=8, random_state=7).fit(x, y)
    assert len(forest.classes_) == 5
    assert forest_sha256(forest) == FOREST_SHA256
