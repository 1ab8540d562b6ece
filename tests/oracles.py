"""Interpreted stage 1: the oracle the compiled bank is checked against.

``DeviceIdentifier`` classifies only through its
:class:`~repro.ml.compiled.CompiledBank`; these helpers recompute the
candidate lists the plain way, from each type's own
``RandomForestClassifier.predict_proba`` over ``fixed_vector`` rows.
"""

import numpy as np

from repro.core import fixed_vector


def interpreted_candidates(identifier, fingerprints):
    """Stage-1 candidate lists from one forest at a time, in label order."""
    stacked = np.vstack([fixed_vector(fp.rows, identifier.fp_length) for fp in fingerprints])
    candidates = [[] for _ in fingerprints]
    for label in identifier.labels:
        forest = identifier._models[label].classifier
        classes = list(forest.classes_)
        if True not in classes:
            continue
        positive = forest.predict_proba(stacked)[:, classes.index(True)]
        for row in np.flatnonzero(positive >= identifier.accept_threshold):
            candidates[int(row)].append(label)
    return candidates
