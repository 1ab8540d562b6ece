"""The socketless HTTP application: routing, auth, limits, instrumentation.

``ServiceApp.handle(method, path, headers, body)`` is a pure-ish
function from request to :class:`AppResponse` — no sockets, no threads
of its own — so every route, error path and header is unit-testable
without binding a port.  The ``server`` module adapts it onto
``ThreadingHTTPServer``; the benchmark's fault-injecting wrappers stack
on top of it the same way ``ResilientTransport`` stacks on transports.

Request processing order (each stage short-circuits):

1. route match (404 unknown path, 405 wrong method),
2. API-key check for ``/v1`` routes (401, counted),
3. per-gateway token bucket (429 + ``Retry-After``, counted; batch
   submissions cost one token per report),
4. body decode via :mod:`.wire` (400 with the parse error),
5. the service call, with no lock of the app's own: each batch reads
   one immutable model snapshot (starting only while no type trains),
   the identifier checks a duplicate label (409) atomically with
   enrolment under its writer lock, and the service counts reports
   under its own small lock.

Every request runs inside a ``service.http.request`` span and increments
``service_http_requests_total`` labelled with the route pattern (not the
raw path — bounded cardinality) and status code.  A response that
matched no route (404, 413, and 401 before a ``/v1`` route is resolved)
is labelled ``<unmatched>``, so a path scanner adds no label sets.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.obs import counter as obs_counter
from repro.obs import get_provider
from repro.obs import names as obs_names
from repro.obs import registry_to_prometheus
from repro.obs import span as obs_span

from ..protocol import IsolationDirective
from ..service import DuplicateTypeError, IoTSecurityService, NoCorpusError
from .auth import ANONYMOUS_GATEWAY, ApiKeyRegistry
from .ratelimit import GatewayRateLimiter
from .wire import WireError, directive_to_dict, report_from_dict

__all__ = ["AppResponse", "ServiceApp", "MAX_BODY_BYTES", "UNMATCHED"]

#: Reject request bodies larger than this with 413 (a full registry's
#: fingerprints arrive in batches far below it; this guards the parser).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The ``endpoint`` metric label of a response that matched no route.
UNMATCHED = "<unmatched>"

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class AppResponse:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def json(self) -> object:
        """The body parsed as JSON (test/bench convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: object, headers: dict | None = None) -> AppResponse:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    out = {"Content-Type": _JSON}
    if headers:
        out.update(headers)
    return AppResponse(status, body, out)


def _error(status: int, message: str, headers: dict | None = None) -> AppResponse:
    return _json_response(status, {"error": message}, headers)


class ServiceApp:
    """Routes HTTP requests onto one :class:`IoTSecurityService`.

    Parameters
    ----------
    service:
        The in-process IoTSSP to expose.
    auth:
        API-key table; an empty/default registry runs *open* (every
        request accepted).  See :mod:`.auth`.
    limiter:
        Per-gateway token bucket; None disables rate limiting.  Build it
        with an injected clock (the server passes ``time.monotonic``).
    """

    def __init__(
        self,
        service: IoTSecurityService,
        *,
        auth: ApiKeyRegistry | None = None,
        limiter: GatewayRateLimiter | None = None,
    ) -> None:
        self.service = service
        self.auth = auth if auth is not None else ApiKeyRegistry()
        self.limiter = limiter

    # --- entry point --------------------------------------------------------

    def handle(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> AppResponse:
        endpoint, response = self._route(method, path, headers, body)
        obs_counter(
            obs_names.METRIC_HTTP_REQUESTS,
            endpoint=endpoint,
            status=str(response.status),
        ).inc()
        return response

    def _route(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> tuple[str, AppResponse]:
        """Dispatch; returns (route pattern for metrics, response)."""
        lowered = {k.lower(): v for k, v in headers.items()}
        path = path.split("?", 1)[0].rstrip("/") or "/"
        with obs_span(obs_names.SPAN_HTTP_REQUEST, method=method, endpoint=path) as span:
            endpoint, response = self._dispatch(method, path, lowered, body)
            span.set(endpoint=endpoint, status=str(response.status))
            return endpoint, response

    def _dispatch(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> tuple[str, AppResponse]:
        if len(body) > MAX_BODY_BYTES:
            return UNMATCHED, _error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if path == "/healthz":
            return "/healthz", self._only(method, "GET", self._healthz)
        if path == "/metrics":
            return "/metrics", self._only(method, "GET", self._metrics)
        if path.startswith("/v1"):
            return self._dispatch_v1(method, path, headers, body)
        return UNMATCHED, _error(404, f"no such endpoint: {path}")

    def _dispatch_v1(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> tuple[str, AppResponse]:
        gateway_id = headers.get("x-gateway-id") or ANONYMOUS_GATEWAY
        if not self.auth.verify(headers.get("x-gateway-id"), headers.get("x-api-key")):
            obs_counter(obs_names.METRIC_HTTP_AUTH_FAILURES).inc()
            return UNMATCHED, _error(
                401,
                "missing or invalid API key (send X-Gateway-Id and X-Api-Key)",
                {"WWW-Authenticate": 'ApiKey header="X-Api-Key"'},
            )
        if path == "/v1/report":
            return "/v1/report", self._only(
                method, "POST", lambda: self._submit_one(gateway_id, body)
            )
        if path == "/v1/reports":
            return "/v1/reports", self._only(
                method, "POST", lambda: self._submit_many(gateway_id, body)
            )
        if path == "/v1/types":
            if method == "GET":
                return "/v1/types", self._rate_limited(gateway_id, 1.0, self._list_types)
            if method == "POST":
                return "/v1/types", self._rate_limited(
                    gateway_id, 1.0, lambda: self._enroll(body)
                )
            return "/v1/types", _error(405, f"{method} not allowed", {"Allow": "GET, POST"})
        if path.startswith("/v1/directive/"):
            device_type = path[len("/v1/directive/") :]
            return "/v1/directive/{device_type}", self._only(
                method,
                "GET",
                lambda: self._rate_limited(
                    gateway_id, 1.0, lambda: self._directive(device_type)
                ),
            )
        return UNMATCHED, _error(404, f"no such endpoint: {path}")

    # --- plumbing -----------------------------------------------------------

    def _only(self, method: str, allowed: str, fn) -> AppResponse:
        if method != allowed:
            return _error(405, f"{method} not allowed", {"Allow": allowed})
        return fn()

    def _rate_limited(self, gateway_id: str, cost: float, fn) -> AppResponse:
        if self.limiter is None:
            return fn()
        decision = self.limiter.acquire(gateway_id, cost)
        limit_headers = {
            "X-RateLimit-Limit": str(int(self.limiter.burst)),
            "X-RateLimit-Remaining": str(decision.remaining),
        }
        if not decision.allowed:
            obs_counter(obs_names.METRIC_HTTP_RATE_LIMITED).inc()
            limit_headers["Retry-After"] = f"{decision.retry_after:.3f}"
            return _error(
                429,
                f"rate limit exceeded for gateway {gateway_id!r}",
                limit_headers,
            )
        response = fn()
        response.headers.update(limit_headers)
        return response

    def _decode_json(self, body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from exc

    # --- routes -------------------------------------------------------------

    def _healthz(self) -> AppResponse:
        payload = {
            "status": "ok",
            "known_types": len(self.service.known_types),
            "reports_handled": self.service.reports_handled,
        }
        return _json_response(200, payload)

    def _metrics(self) -> AppResponse:
        registry = getattr(get_provider(), "metrics", None)
        if registry is None:
            text = "# metrics collection disabled (no recording provider installed)\n"
        else:
            text = registry_to_prometheus(registry)
        return AppResponse(200, text.encode("utf-8"), {"Content-Type": _PROMETHEUS})

    def _submit_one(self, gateway_id: str, body: bytes) -> AppResponse:
        try:
            report = report_from_dict(self._decode_json(body))
        except WireError as exc:
            return _error(400, str(exc))

        def run() -> AppResponse:
            directive = self.service.handle_report(report)
            return _json_response(200, directive_to_dict(directive))

        # Parse before pricing: malformed bodies are 400s, never 429s.
        return self._rate_limited(gateway_id, 1.0, run)

    def _submit_many(self, gateway_id: str, body: bytes) -> AppResponse:
        try:
            payload = self._decode_json(body)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("reports"), list
            ):
                raise WireError("batch body must be {'reports': [...]}")
            reports = [report_from_dict(item) for item in payload["reports"]]
        except WireError as exc:
            return _error(400, str(exc))

        def run() -> AppResponse:
            directives = self.service.handle_reports(reports)
            return _json_response(
                200, {"directives": [directive_to_dict(d) for d in directives]}
            )

        # Parse before pricing so a malformed batch is a 400, not a 429;
        # a well-formed one costs one token per report it carries.
        return self._rate_limited(gateway_id, float(max(1, len(reports))), run)

    def _directive(self, device_type: str) -> AppResponse:
        if device_type not in self.service.known_types:
            return _error(404, f"unknown device type: {device_type}")
        assessment = self.service.assess_type(device_type)
        directive = IsolationDirective(
            device_type=device_type,
            level=assessment.level,
            permitted_endpoints=assessment.permitted_endpoints,
            vulnerability_ids=assessment.vulnerability_ids,
        )
        return _json_response(200, directive_to_dict(directive))

    def _list_types(self) -> AppResponse:
        return _json_response(200, {"types": self.service.known_types})

    def _enroll(self, body: bytes) -> AppResponse:
        try:
            payload = self._decode_json(body)
            if not isinstance(payload, dict):
                raise WireError("enrolment body must be a JSON object")
            label = payload.get("label")
            if not isinstance(label, str) or not label:
                raise WireError("enrolment requires a non-empty string 'label'")
            raw = payload.get("fingerprints")
            if not isinstance(raw, list) or not raw:
                raise WireError("enrolment requires a non-empty 'fingerprints' list")
            fingerprints = [
                report_from_dict({"fingerprint": item}).fingerprint for item in raw
            ]
        except WireError as exc:
            return _error(400, str(exc))
        try:
            self.service.enroll_type(label, fingerprints)
        except (DuplicateTypeError, NoCorpusError) as exc:
            return _error(409, str(exc))
        return _json_response(201, {"label": label, "known_types": len(self.service.known_types)})
