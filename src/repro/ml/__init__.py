"""ML substrate: CART trees, Random Forests, sampling, metrics, CV.

A from-scratch replacement for the slice of scikit-learn the paper's
identification pipeline needs (Random Forest classification [23],
imbalance-aware sampling [22], stratified cross-validation).
"""

from .compiled import CompiledBank, CompiledForest, compile_forest
from .forest import RandomForestClassifier
from .metrics import accuracy_score, confusion_matrix, per_class_accuracy
from .parallel import (
    derive_entropy,
    label_rng,
    label_seed_sequence,
    spawn_generators,
)
from .sampling import build_binary_training_set, negative_subsample
from .tree import DecisionTreeClassifier
from .validation import stratified_kfold

__all__ = [
    "CompiledBank",
    "CompiledForest",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "accuracy_score",
    "build_binary_training_set",
    "compile_forest",
    "confusion_matrix",
    "derive_entropy",
    "label_rng",
    "label_seed_sequence",
    "negative_subsample",
    "per_class_accuracy",
    "spawn_generators",
    "stratified_kfold",
]
