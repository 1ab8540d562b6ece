"""Save/load fingerprint corpora and trained identifiers.

Corpora round-trip through JSON so that an operator can version-control
the IoTSSP's training data and ship it between machines:

* fingerprint   — ``{"mac", "label", "packets": [[...23 floats...], ...]}``
* registry      — ``{"types": {label: [fingerprint, ...]}}``

A trained identifier has one file format, an ``.npz`` payload
(:func:`save_identifier` / :func:`load_identifier`): every type's
compiled flat node arrays (see :mod:`repro.ml.compiled`), its reference
fingerprints, the hyper-parameters and the training entropy.  A loaded
identifier is the trained one: it identifies alike and, once given its
corpus (``adopt(snapshot, corpus)``), ``add_type`` on it trains the
byte-identical forest.  The file holds no corpus, so a model loaded
without one identifies but cannot enrol.  :class:`ModelStore` keeps such
payloads under a content hash over the training registry, the
hyper-parameters and the entropy; :func:`warm_start_identifier` consults
the store before training and skips retraining entirely on a hit —
``docs/scaling.md`` describes the format and its invalidation rules.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.ml.compiled import CompiledForest, forest_from_flat
from repro.ml.parallel import derive_entropy
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names

from .constants import NUM_FEATURES
from .fingerprint import Fingerprint
from .identifier import DeviceIdentifier, _TypeModel
from .registry import DeviceTypeRegistry

__all__ = [
    "fingerprint_to_dict",
    "fingerprint_from_dict",
    "registry_to_dict",
    "registry_from_dict",
    "save_registry",
    "load_registry",
    "save_identifier",
    "load_identifier",
    "registry_content_key",
    "ModelStore",
    "warm_start_identifier",
]

_FORMAT_VERSION = 1

#: Version of the npz model payload layout.  Bumping it invalidates every
#: cached payload, which degrades to a retrain — never to a mis-parse.
_STORE_VERSION = 1


def fingerprint_to_dict(fingerprint: Fingerprint) -> dict:
    return {
        "mac": fingerprint.device_mac,
        "label": fingerprint.label,
        "packets": [list(packet) for packet in fingerprint.packets],
    }


def fingerprint_from_dict(data: dict) -> Fingerprint:
    """Decode :func:`fingerprint_to_dict`'s shape.

    Raises ``ValueError`` unless ``packets`` is an array of arrays of
    exactly ``NUM_FEATURES`` numbers each; a wrong-width packet would
    otherwise only fail later, inside identification.
    """
    packets = []
    for packet in data["packets"]:
        if not isinstance(packet, (list, tuple)) or len(packet) != NUM_FEATURES:
            raise ValueError(f"each packet must be an array of {NUM_FEATURES} features")
        packets.append(tuple(map(float, packet)))
    return Fingerprint(
        packets=tuple(packets),
        device_mac=data.get("mac", ""),
        label=data.get("label"),
    )


def registry_to_dict(registry: DeviceTypeRegistry) -> dict:
    return {
        "version": _FORMAT_VERSION,
        "types": {
            label: [fingerprint_to_dict(fp) for fp in registry.fingerprints(label)]
            for label in registry.labels
        },
    }


def registry_from_dict(data: dict) -> DeviceTypeRegistry:
    registry = DeviceTypeRegistry()
    for label, fingerprints in data["types"].items():
        registry.add_many(label, [fingerprint_from_dict(fp) for fp in fingerprints])
    return registry


def save_registry(registry: DeviceTypeRegistry, path: str | Path) -> None:
    Path(path).write_text(json.dumps(registry_to_dict(registry)))


def load_registry(path: str | Path) -> DeviceTypeRegistry:
    return registry_from_dict(json.loads(Path(path).read_text()))


# --- model payloads (npz) and the content-hash model store ------------------


def _identifier_params(identifier: DeviceIdentifier) -> dict:
    return {
        "fp_length": identifier.fp_length,
        "negative_ratio": identifier.negative_ratio,
        "n_references": identifier.n_references,
        "n_estimators": identifier.n_estimators,
        "max_depth": identifier.max_depth,
        "accept_threshold": identifier.accept_threshold,
    }


def save_identifier(
    identifier: DeviceIdentifier, path: str | Path, *, key: str = ""
) -> None:
    """Write a trained identifier to ``path`` as one npz payload.

    Every per-type forest is stored as the
    :class:`~repro.ml.compiled.CompiledForest` compiled when it was
    trained (node tables + leaf probabilities in forest class order);
    reference fingerprints ride along as packed float64 matrices, and the
    hyper-parameters and training entropy in a JSON ``meta`` entry.  The
    bytes are a function of the model alone, so two saves of one model
    are byte-identical.  ``key`` (the content hash, when saved through
    :class:`ModelStore`) is embedded so a reader can detect a payload
    that no longer matches its filename.
    """
    models = identifier.snapshot.models
    if not models:
        raise ValueError("cannot serialize an untrained identifier")
    arrays: dict[str, np.ndarray] = {}
    models_meta = []
    for i, (label, model) in enumerate(models.items()):
        compiled = model.compiled
        prefix = f"m{i}_"
        arrays[prefix + "feature"] = compiled.feature
        arrays[prefix + "threshold"] = compiled.threshold
        arrays[prefix + "left"] = compiled.left
        arrays[prefix + "right"] = compiled.right
        arrays[prefix + "proba"] = compiled.proba
        arrays[prefix + "roots"] = compiled.tree_roots
        arrays[prefix + "classes"] = np.asarray(compiled.classes_)
        rows = [row for fp in model.references for row in fp.packets]
        arrays[prefix + "refs"] = np.asarray(rows, dtype=np.float64)
        arrays[prefix + "ref_lens"] = np.asarray(
            [len(fp.packets) for fp in model.references], dtype=np.int64
        )
        models_meta.append(
            {
                "label": label,
                "max_depth": compiled.max_depth,
                "ref_macs": [fp.device_mac for fp in model.references],
                "ref_labels": [fp.label for fp in model.references],
            }
        )
    meta = {
        "store_version": _STORE_VERSION,
        "key": key,
        "entropy": identifier._entropy,
        "params": _identifier_params(identifier),
        "models": models_meta,
    }
    arrays["meta"] = np.asarray(json.dumps(meta))
    # Through a handle: given a path, numpy appends ".npz" to any name
    # that lacks it and the file would not be where the caller asked.
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def load_identifier(
    path: str | Path, *, expected_key: str | None = None
) -> DeviceIdentifier:
    """Rebuild the identifier :func:`save_identifier` wrote to ``path``.

    Each type's :class:`~repro.ml.compiled.CompiledForest` is taken
    straight from the payload, so a load compiles nothing; the
    hyper-parameters and training entropy come back too.  Raises
    ``ValueError`` naming ``path`` for anything that is not such a
    payload (a JSON model from an older version, a bare ``.npy`` array,
    random bytes), on a version mismatch and, when ``expected_key`` is
    given, on a stale embedded content hash; the model store turns each
    into a cache miss.
    """
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic != b"PK\x03\x04":
        raise ValueError(
            f"{path} is not a model file: expected the npz payload `train` "
            "writes (a JSON model from an older version must be retrained)"
        )
    try:
        with np.load(path, allow_pickle=False) as payload:
            return _identifier_from_payload(payload, expected_key)
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a valid model file: {exc}") from exc


def _identifier_from_payload(
    payload: np.lib.npyio.NpzFile, expected_key: str | None
) -> DeviceIdentifier:
    meta = json.loads(str(payload["meta"][()]))
    if meta.get("store_version") != _STORE_VERSION:
        raise ValueError(f"unsupported model-store version {meta.get('store_version')}")
    if expected_key is not None and meta.get("key") != expected_key:
        raise ValueError("stale model payload: embedded content hash mismatch")
    params = meta["params"]
    max_depth = params["max_depth"]
    identifier = DeviceIdentifier(
        fp_length=int(params["fp_length"]),
        negative_ratio=int(params["negative_ratio"]),
        n_references=int(params["n_references"]),
        n_estimators=int(params["n_estimators"]),
        max_depth=None if max_depth is None else int(max_depth),
        accept_threshold=float(params["accept_threshold"]),
        random_state=int(meta["entropy"]),
    )
    models: dict[str, _TypeModel] = {}
    for i, model_meta in enumerate(meta["models"]):
        prefix = f"m{i}_"
        classes = np.asarray([bool(c) for c in payload[prefix + "classes"]])
        compiled = CompiledForest(
            feature=payload[prefix + "feature"],
            threshold=payload[prefix + "threshold"],
            left=payload[prefix + "left"],
            right=payload[prefix + "right"],
            proba=payload[prefix + "proba"],
            tree_roots=payload[prefix + "roots"],
            classes_=classes,
            max_depth=int(model_meta["max_depth"]),
        )
        forest = forest_from_flat(
            compiled,
            n_estimators=identifier.n_estimators,
            max_depth=identifier.max_depth,
        )
        references = []
        offset = 0
        rows = payload[prefix + "refs"]
        for length, mac, ref_label in zip(
            payload[prefix + "ref_lens"],
            model_meta["ref_macs"],
            model_meta["ref_labels"],
        ):
            packets = tuple(
                tuple(float(x) for x in row)
                for row in rows[offset : offset + int(length)]
            )
            offset += int(length)
            references.append(
                Fingerprint(packets=packets, device_mac=mac, label=ref_label)
            )
        models[model_meta["label"]] = _TypeModel(
            label=model_meta["label"],
            classifier=forest,
            compiled=compiled,
            references=tuple(references),
        )
    identifier.adopt(identifier.snapshot.successor(models))
    return identifier


def registry_content_key(
    registry: DeviceTypeRegistry,
    *,
    entropy: int,
    fp_length: int,
    negative_ratio: int,
    n_references: int,
    n_estimators: int,
    max_depth: int | None,
    accept_threshold: float,
) -> str:
    """Content hash identifying one (training data, hyper-params, seed) triple.

    Any change to the registry's labels, fingerprint bytes, the training
    hyper-parameters, or the derived entropy produces a different key, so
    a cached model can never be served for training inputs it was not
    built from.
    """
    digest = hashlib.sha256()
    header = {
        "store_version": _STORE_VERSION,
        "entropy": entropy,
        "fp_length": fp_length,
        "negative_ratio": negative_ratio,
        "n_references": n_references,
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "accept_threshold": accept_threshold,
    }
    digest.update(json.dumps(header, sort_keys=True).encode())
    for label in registry.labels:
        digest.update(b"\x00L")
        digest.update(label.encode())
        for fp in registry.fingerprints(label):
            digest.update(b"\x00F")
            digest.update(fp.device_mac.encode())
            packets = np.asarray(fp.packets, dtype=np.float64)
            digest.update(str(packets.shape).encode())
            digest.update(packets.tobytes())
    return digest.hexdigest()


class ModelStore:
    """A directory of content-hash-keyed npz model payloads.

    ``{key}.npz`` under ``root``; a lookup is a **hit** only when the file
    exists, parses, carries the current payload version, *and* embeds the
    same key it is named after — anything else (absent, corrupt, stale,
    version-skewed) is a **miss**, counted separately, and warm-start
    falls back to retraining.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def save(self, identifier: DeviceIdentifier, key: str) -> Path:
        path = self.path_for(key)
        save_identifier(identifier, path, key=key)
        return path

    def load(self, key: str) -> DeviceIdentifier | None:
        path = self.path_for(key)
        if not path.is_file():
            obs_counter(obs_names.METRIC_MODEL_STORE_MISSES).inc()
            return None
        try:
            identifier = load_identifier(path, expected_key=key)
        except (OSError, ValueError):
            obs_counter(obs_names.METRIC_MODEL_STORE_MISSES).inc()
            return None
        obs_counter(obs_names.METRIC_MODEL_STORE_HITS).inc()
        return identifier


def warm_start_identifier(
    registry: DeviceTypeRegistry,
    store: ModelStore,
    *,
    random_state: int | np.random.Generator | None = None,
    **hyper_params: object,
) -> tuple[DeviceIdentifier, bool]:
    """Train-or-load an identifier through the model store.

    Returns ``(identifier, cache_hit)``.  The content key covers the
    registry, the hyper-parameters, and the entropy derived from
    ``random_state``, so a hit is guaranteed to be the byte-identical
    model a fresh ``fit`` would have produced (the determinism invariant
    makes training a pure function of exactly those inputs).  Either way
    the identifier keeps a copy of ``registry``, so it can enrol.
    """
    entropy = derive_entropy(random_state)
    identifier = DeviceIdentifier(random_state=entropy, **hyper_params)
    key = registry_content_key(registry, entropy=entropy, **_identifier_params(identifier))
    cached = store.load(key)
    if cached is not None:
        cached.adopt(cached.snapshot, registry)
        return cached, True
    identifier.fit(registry)
    store.save(identifier, key)
    return identifier, False

