"""Inputs, caches, statistics and checks shared by the three workloads.

The trained model is a constant of the benchmark: the lab corpus comes
from ``LAB_SEED`` and the classifier bank from ``MODEL_SEED``, whatever
``--seed`` says.  The workload seed only chooses the traffic: which
device instances join, their MACs, the variation in their setup
dialogues, and the order in which they arrive.

Inputs are generated outside every timed phase and cached under
``perfbench/.cache`` keyed by ``BENCH_VERSION`` (and by seed for the
traffic).  Caches hold plain data only (bytes, tuples, strings), so every
identification builds a fresh :class:`~repro.core.fingerprint.Fingerprint`
and its per-instance ``fixed()``/``symbols()`` memos never hit.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from repro.core.extractor import fingerprint_from_records
from repro.core.fingerprint import Fingerprint
from repro.core.identifier import DeviceIdentifier
from repro.core.persistence import registry_content_key
from repro.core.registry import DeviceTypeRegistry
from repro.devices import DEVICE_PROFILES, collect_fingerprints, simulate_setup_capture
from repro.devices.generator import NetworkEnvironment
from repro.ml.parallel import derive_entropy
from repro.packets import builder
from repro.securityservice.assessment import assess_device_type
from repro.securityservice.vulndb import seed_database

#: Bump whenever generated inputs change meaning; old cache files are ignored.
BENCH_VERSION = 2
ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = Path(__file__).resolve().parent / ".cache"

LAB_SEED = 2017
LAB_RUNS = 20
MODEL_SEED = 5
#: Device instances generated per type and workload seed.
POOL_PER_TYPE = 60
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Profiles the HTTP server is not trained on; enrolled under fresh labels.
HELD_OUT = ("Aria", "MAXGateway", "Lightify")
ENROLL_SEED = 4242
ENROLL_RUNS = 10
#: Fresh labels for new types: each held-out profile under eight revisions.
ENROLL_LABELS = tuple(f"{name}.rev{rev}" for rev in range(1, 9) for name in HELD_OUT)

ALL_TYPES = tuple(profile.identifier for profile in DEVICE_PROFILES)
BASE_HTTP_TYPES = tuple(t for t in ALL_TYPES if t not in HELD_OUT)

#: The home network's always-present LAN peer (pre-authorized, trusted).
PEER_MAC = "02:00:00:00:00:05"
PEER_IP = "192.168.1.5"
#: An Internet host no allow-list contains.
FOREIGN_IP = "198.51.100.7"
#: Sends per data flow: one new flow, then repeats riding the installed rule.
FLOW_SENDS = 4


def cloud_ip(device_type: str) -> str:
    """The vendor-cloud endpoint a type may reach when restricted."""
    index = ALL_TYPES.index(device_type.split(".rev")[0])
    return f"52.200.{index}.10"


def endpoint_directory() -> dict[str, frozenset[str]]:
    return {t: frozenset({cloud_ip(t)}) for t in ALL_TYPES + ENROLL_LABELS}


@functools.cache
def expected_assessment(device_type: str):
    """The assessment every IoTSSP in the benchmark must apply."""
    return assess_device_type(
        device_type, seed_database(), endpoint_directory=endpoint_directory()
    )


# --- caching ------------------------------------------------------------------


def _cached(name: str, build):
    """Load ``name`` from the cache or build, store and return it."""
    path = CACHE_DIR / f"{name}-v{BENCH_VERSION}.pkl"
    if path.is_file():
        with path.open("rb") as handle:
            return pickle.load(handle)
    data = build()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with tmp.open("wb") as handle:
        pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return data


def _raw(fp: Fingerprint) -> tuple:
    return (fp.device_mac, fp.packets)


def lab_corpus() -> dict:
    """The fixed lab corpus: ``{"base": {type: [(mac, packets)]}, "enroll": ...}``."""

    def build() -> dict:
        rng = np.random.default_rng(LAB_SEED)
        base = {
            p.identifier: [_raw(fp) for fp in collect_fingerprints(p, LAB_RUNS, rng=rng)]
            for p in DEVICE_PROFILES
        }
        rng = np.random.default_rng(ENROLL_SEED)
        enroll = {}
        for label in ENROLL_LABELS:
            profile = next(p for p in DEVICE_PROFILES if p.identifier == label.split(".rev")[0])
            enroll[label] = [_raw(fp) for fp in collect_fingerprints(profile, ENROLL_RUNS, rng=rng)]
        return {"base": base, "enroll": enroll}

    return _cached("lab", build)


def registry_from(corpus: dict, types) -> DeviceTypeRegistry:
    """A fresh registry (fresh Fingerprint objects) over ``types``."""
    registry = DeviceTypeRegistry()
    for label in types:
        registry.add_many(label, fresh_fingerprints(corpus[label], label))
    return registry


def fresh_fingerprints(raw: list, label: str | None = None) -> list[Fingerprint]:
    return [Fingerprint(packets=packets, device_mac=mac, label=label) for mac, packets in raw]


def model_key(registry: DeviceTypeRegistry) -> str:
    """The registry content key of the benchmark's model (seed-independent)."""
    ident = DeviceIdentifier(random_state=MODEL_SEED)
    return registry_content_key(
        registry,
        entropy=derive_entropy(MODEL_SEED),
        fp_length=ident.fp_length,
        negative_ratio=ident.negative_ratio,
        n_references=ident.n_references,
        n_estimators=ident.n_estimators,
        max_depth=ident.max_depth,
        accept_threshold=ident.accept_threshold,
    )


def device_pool(seed: int) -> list[dict]:
    """Per-seed device instances: setup capture, data frames, fingerprint.

    Each entry holds the true ``type``, a pool-unique ``mac``, the setup
    frames as ``(timestamp, bytes)``, the data frames as
    ``(destination kind, dst_ip, bytes)`` and the fingerprint ``packets``
    the gateway's extractor makes of the setup capture.
    """

    def build() -> list[dict]:
        rng = np.random.default_rng(seed)
        device_ip = NetworkEnvironment().allocate_device_ip()
        pool, macs = [], {PEER_MAC}
        for profile in DEVICE_PROFILES:
            made = 0
            while made < POOL_PER_TYPE:
                mac, records = simulate_setup_capture(profile, rng)
                if mac in macs:
                    continue
                macs.add(mac)
                made += 1
                fp = fingerprint_from_records(records, mac)
                port = 50000 + int(rng.integers(0, 10000))
                data = []
                for kind, dst_mac, dst_ip in (
                    ("cloud", "02:00:00:00:00:01", cloud_ip(profile.identifier)),
                    ("lan", PEER_MAC, PEER_IP),
                    ("foreign", "02:00:00:00:00:01", FOREIGN_IP),
                ):
                    frame = builder.tcp_syn_frame(mac, dst_mac, device_ip, dst_ip, port, 443)
                    data.append((kind, dst_ip, frame))
                pool.append(
                    {
                        "type": profile.identifier,
                        "mac": mac,
                        "setup": [(r.timestamp, r.data) for r in records],
                        "data": data,
                        "packets": fp.packets,
                    }
                )
        order = rng.permutation(len(pool))
        return [pool[int(i)] for i in order]

    return _cached(f"pool-s{seed}", build)


def distinct_contents(devices) -> int:
    """How many different fingerprint contents the devices carry."""
    return len({d["packets"] for d in devices})


# --- measurement helpers ------------------------------------------------------


#: The drift probe's rate, loops/s, on a 2-vCPU Xeon VM in its usual
#: state.  Time-based metrics are reported at this machine speed (see
#: ``speed_factor``).
REFERENCE_LOOPS_PER_S = 5000.0


def drift_probe(seconds: float) -> float:
    """Rate of a fixed pure-Python loop, loops/s: the VM's speed right now."""
    loops = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        total = 0
        for i in range(2_000):
            total += i * i % 7
        loops += 1
    return loops / (time.perf_counter() - start)


def speed_factor(probes: list[float]) -> float:
    """How much faster than the reference state the VM ran (median probe)."""
    return median(probes) / REFERENCE_LOOPS_PER_S


def cpu_times() -> list[int]:
    """The machine's cumulative CPU time counters (``/proc/stat``, jiffies)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


class Checks:
    """Attempted/failed operation counts plus the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, problem: str | None = None) -> bool:
        """Count one operation; ``problem`` describes why it failed."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(problem)
        return False


def directive_problem(directive) -> str | None:
    """Why a directive is not a real one matching its type's assessment."""
    if directive is None:
        return "no directive"
    if directive.provisional:
        return "provisional directive"
    want = expected_assessment(directive.device_type)
    if (directive.level, directive.permitted_endpoints) != (
        want.level,
        want.permitted_endpoints,
    ):
        return (
            f"{directive.device_type} got {directive.level.value}, "
            f"assess_type says {want.level.value}"
        )
    return None


def model_digest(identifier, corpus: dict) -> str:
    """Hash of the bank's verdicts on a fixed probe of lab fingerprints.

    Two models with the same digest answer the probe identically, down
    to stage-2 scores; it is printed with every run so that repeated
    runs can confirm the model never changed with the workload seed.
    """
    probe = [
        fp
        for label in identifier.labels
        if label in corpus
        for fp in fresh_fingerprints(corpus[label][:5])
    ]
    verdicts = [
        (r.label, r.candidates, sorted(r.scores.items()))
        for r in identifier.identify_batch(probe)
    ]
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()[:16]


def batches(pool: list, size: int, rng: np.random.Generator):
    """Endless batches of ``size`` distinct pool entries, reshuffled per pass."""
    while True:
        order = rng.permutation(len(pool))
        for start in range(0, len(order) - size + 1, size):
            yield [pool[int(i)] for i in order[start : start + size]]
