"""Repo-specific policy shared by the checkers.

Everything path-shaped here is a '/'-separated path relative to the repo
root, matching :attr:`tools.sentinel_lint.source.SourceFile.path`.
"""

from __future__ import annotations

# --- SL001: inference-path determinism ---------------------------------------

#: Modules on the identification inference path.  PR 1's headline bug was a
#: shared-RNG draw leaking into ``discriminate``; these files must never
#: construct or consume randomness outside the audited training helpers.
INFERENCE_FILES = frozenset(
    {
        "src/repro/core/identifier.py",
        "src/repro/core/editdistance.py",
        "src/repro/core/fingerprint.py",
    }
)

#: Seed-derived RNG constructors from ``repro.ml.parallel`` — the one audited
#: way to obtain a generator.  Calling them is allowed only inside the
#: functions listed per file (training entry points), never in inference code.
SEEDED_RNG_HELPERS = frozenset({"label_rng", "spawn_generators", "default_rng"})

#: file -> function names allowed to call :data:`SEEDED_RNG_HELPERS`.
TRAINING_FUNCTIONS: dict[str, frozenset[str]] = {
    "src/repro/core/identifier.py": frozenset({"_train_type"}),
}

# --- SL002: wall-clock-free packages -----------------------------------------

#: Directories whose modules must not read the wall clock: identification
#: results may depend only on inputs and the training seed.
DETERMINISTIC_DIRS = ("src/repro/core", "src/repro/ml")

#: Dotted-suffix call patterns that read wall-clock (or host-local) time.
WALLCLOCK_CALL_SUFFIXES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

# --- SL003: explicit endianness in packet codecs ------------------------------

PACKETS_DIRS = ("src/repro/packets",)

#: struct functions whose first argument is a format string.
STRUCT_FMT_FUNCTIONS = frozenset(
    {"pack", "unpack", "pack_into", "unpack_from", "iter_unpack", "calcsize", "Struct"}
)

#: Format prefixes that pin the byte order independent of the host.
EXPLICIT_BYTE_ORDER_PREFIXES = ("<", ">", "!")

# --- SL004: named fingerprint dimensions --------------------------------------

#: The module allowed to spell the dimensions as bare literals: the single
#: source of truth the rest of the tree imports from.
DIMENSION_CONSTANTS_FILE = "src/repro/core/constants.py"

#: Names whose presence in a comparison marks it as a contract-pinning
#: assertion (``assert NUM_FEATURES == 23`` stays legal — it is the test
#: that the named constant still matches the paper).
DIMENSION_CONSTANT_NAMES = frozenset(
    {"NUM_FEATURES", "DEFAULT_FP_PACKETS", "FIXED_VECTOR_DIM"}
)

#: literal value -> (constant name, directories where the bare literal is
#: forbidden).  23 and 276 are distinctive enough to police in the test
#: tree as well; 12 is too common a number outside ``src`` to flag there.
DIMENSION_LITERALS: dict[int, tuple[str, tuple[str, ...]]] = {
    23: (
        "NUM_FEATURES",
        ("src/repro/core", "src/repro/ml", "tests/core", "tests/ml", "tests/integration"),
    ),
    276: (
        "FIXED_VECTOR_DIM",
        ("src/repro/core", "src/repro/ml", "tests/core", "tests/ml", "tests/integration"),
    ),
    12: ("DEFAULT_FP_PACKETS", ("src/repro/core", "src/repro/ml")),
}

# --- SL005: import layering ---------------------------------------------------

#: The layering DAG, lowest layer first.  A module may import ``repro``
#: packages from strictly lower layers (and its own package); same-layer
#: and upward imports are violations.  This refines the conceptual chain
#: ``packets → core → ml-consumers → securityservice/sdn → gateway``:
#: ``ml`` sits *below* ``core`` because the two-stage identifier is built
#: on the generic ML substrate, not the other way around.  ``obs`` is the
#: very bottom: cross-cutting instrumentation that anything may import
#: and that itself imports nothing from ``repro``.  The prose rendering
#: of this DAG lives in ``docs/architecture.md``.
LAYERS: tuple[frozenset[str], ...] = (
    frozenset({"obs"}),
    frozenset({"packets"}),
    frozenset({"ml"}),
    frozenset({"core"}),
    frozenset({"devices", "sdn"}),
    frozenset({"labtools", "securityservice"}),
    frozenset({"gateway"}),
    frozenset({"attacks", "netsim"}),
    frozenset({"reporting"}),
    frozenset({"cli"}),
    frozenset({"__main__"}),
)

#: Directory holding the layered source tree.
LAYERED_ROOT = "src/repro"
#: Import prefix of the layered tree.
LAYERED_PACKAGE = "repro"


# --- SL007: thread-shared state ----------------------------------------------

#: class qualname -> instance attributes shared across threads (or across
#: breaker/monitor state machines driven from multiple call paths).  Every
#: method mutating one of these attributes must hold the owning lock; the
#: checker also discovers mutations in functions reachable from thread
#: entry points (``ThreadPoolExecutor.submit``/``Thread(target=...)``).
THREAD_SHARED_STATE: dict[str, tuple[str, ...]] = {
    "repro.core.identifier.DeviceIdentifier": ("_snapshot", "_corpus"),
    "repro.gateway.monitor.DeviceMonitor": ("_completed",),
    "repro.securityservice.resilience.CircuitBreaker": (
        "state",
        "transitions",
        "_consecutive_failures",
        "_half_open_streak",
        "_opened_at",
    ),
    "repro.securityservice.http.client.HttpTransport": ("_idle",),
    "repro.securityservice.http.server._Server": ("_connections",),
    "repro.securityservice.service.IoTSecurityService": ("reports_handled",),
    "repro.securityservice.sharding.Shard": ("reports_handled",),
}

#: Methods where unlocked writes are fine: the object is not shared yet.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

# --- SL008: exception contracts ----------------------------------------------

#: Root of the packet-codec exception taxonomy; every ``raise`` inside
#: :data:`PACKETS_DIRS` must be a subclass of it.
PACKETS_EXCEPTION_ROOT = "repro.packets.base.PacketError"

#: Directory whose public entry points must not let transport faults
#: escape (PR 4's fault-isolation contract).
GATEWAY_DIR = "src/repro/gateway"

#: Method names whose calls cross the gateway -> IoTSSP boundary.
BOUNDARY_CALLEES = frozenset({"submit", "submit_many"})

#: Exception names that count as catching a transport fault at the
#: boundary ("" = bare except).
BOUNDARY_GUARDS = frozenset(
    {"", "Exception", "BaseException", "TransportFault"}
)

#: Gateway helpers that intentionally forward boundary faults to their
#: caller (thin wrappers whose *callers* provide the per-device guard).
#: Empty: ``SentinelModule._report`` guards every exchange itself.
BOUNDARY_ESCAPE_ALLOWED: frozenset[str] = frozenset()

# --- SL010: observability-name discipline ------------------------------------

#: The single module allowed to spell span/metric names as literals.
OBS_NAMES_FILE = "src/repro/obs/names.py"

#: Module defining the canonical names.
OBS_NAMES_MODULE = "repro.obs.names"

#: Callables (last dotted segment) whose first argument is a span or
#: metric name and must therefore come from :data:`OBS_NAMES_MODULE`.
OBS_NAME_SINKS = frozenset({"span", "counter", "gauge", "histogram"})

#: Aggregate tuples/frozensets in ``obs/names.py`` that re-export every
#: name — not themselves canonical names, and using one of them counts
#: as using nothing in particular.
OBS_NAME_AGGREGATES = frozenset({"SPAN_NAMES", "METRIC_NAMES"})

#: The CI-checked docs table the label sets must stay consistent with.
OBS_DOCS_PATH = "docs/observability.md"

#: Metric-constructor keyword arguments that are not label names.
OBS_NON_LABEL_KWARGS = frozenset({"help", "buckets", "description"})


def layer_of(package: str) -> int | None:
    """Index of ``package`` in :data:`LAYERS`, or None if unmapped."""
    for rank, names in enumerate(LAYERS):
        if package in names:
            return rank
    return None
