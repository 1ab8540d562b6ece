"""The IoT Security Service Provider (IoTSSP) side of IoT Sentinel.

Fingerprint classification service, vulnerability repository, isolation
policy, the gateway↔service protocol (Sect. III-B), and the HTTP
serving tier that stands the service up behind real sockets
(``docs/serving.md``).
"""

from .assessment import Assessment, assess_device_type
from .http import (
    ApiKeyRegistry,
    GatewayRateLimiter,
    HttpTransport,
    SecurityServiceHTTPServer,
    ServiceApp,
    SystemClock,
)
from .protocol import (
    AnonymizingTransport,
    DirectTransport,
    FingerprintReport,
    IsolationDirective,
    Transport,
)
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Fault,
    FaultInjectingTransport,
    ManualClock,
    ProtocolError,
    ResilientTransport,
    RetryPolicy,
    ServiceUnavailable,
    TransportFault,
    TransportTimeout,
)
from .service import DuplicateTypeError, IoTSecurityService, NoCorpusError
from .sharding import DEFAULT_VNODES, HashRing, ShardedSecurityService
from .vulndb import VulnerabilityDatabase, VulnerabilityRecord, seed_database

__all__ = [
    "AnonymizingTransport",
    "ApiKeyRegistry",
    "Assessment",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_VNODES",
    "DirectTransport",
    "DuplicateTypeError",
    "Fault",
    "FaultInjectingTransport",
    "FingerprintReport",
    "GatewayRateLimiter",
    "HashRing",
    "HttpTransport",
    "IoTSecurityService",
    "IsolationDirective",
    "ManualClock",
    "NoCorpusError",
    "ProtocolError",
    "ResilientTransport",
    "RetryPolicy",
    "SecurityServiceHTTPServer",
    "ServiceApp",
    "ServiceUnavailable",
    "ShardedSecurityService",
    "SystemClock",
    "Transport",
    "TransportFault",
    "TransportTimeout",
    "VulnerabilityDatabase",
    "VulnerabilityRecord",
    "assess_device_type",
    "seed_database",
]
