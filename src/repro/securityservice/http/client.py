"""The gateway-side HTTP client: ``HttpTransport`` + ``SystemClock``.

``HttpTransport`` implements the same ``submit_many`` protocol as the
in-process transports (one ``POST /v1/reports`` per batch; ``submit``
is a batch of one), so the resilience stack composes around it
unchanged::

    transport = ResilientTransport(
        HttpTransport(server.base_url, gateway_id="gw-1", api_key=key),
        clock=SystemClock(),
    )
    directive = transport.submit(report)

Failures map onto the resilience taxonomy so the retry/breaker
classification keeps working across the network boundary: connection
refusals and 5xx/429 responses become the *retryable*
:class:`~repro.securityservice.resilience.ServiceUnavailable`, socket
deadlines become :class:`~repro.securityservice.resilience.TransportTimeout`,
and 4xx client errors or unparseable bodies become the *fatal*
:class:`~repro.securityservice.resilience.ProtocolError` — retrying a
request the server already called malformed would never succeed.

Connections are kept alive: each transport holds a small pool of idle
``HTTPConnection`` objects, so a gateway's steady stream of sweeps pays one
TCP handshake (and one server handler thread) in total, not one per
sweep.  A connection carries one request at a time, so threads sharing a
transport each check out their own.  A pooled connection the server
has closed in the meantime (idle timeout, restart) fails before any
response arrives; that request is sent once more on a new connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from ..protocol import FingerprintReport, IsolationDirective, Transport
from ..resilience import ProtocolError, ServiceUnavailable, TransportTimeout
from .wire import WireError, directive_from_dict, report_to_dict

__all__ = ["HttpTransport", "SystemClock"]

#: Idle connections a transport keeps.  More concurrent requests than
#: this still run, each on its own connection; the surplus is closed
#: when its request completes.
_MAX_IDLE = 4

#: Faults a *pooled* connection raises, before any response arrives,
#: when the server closed it while it sat idle.  The server never read
#: the request, so sending it once more on a new connection cannot
#: deliver it twice.  (``http.client.RemoteDisconnected`` is a
#: ``ConnectionResetError``.)
_STALE = (ConnectionResetError, BrokenPipeError)


class SystemClock:
    """Wall-clock adapter with the ``ManualClock`` interface.

    The resilience layer asks its clock for ``now``/``sleep`` (and
    ``advance_to`` when callers thread timestamps).  In simulation that
    is a hand-cranked :class:`~repro.securityservice.resilience.ManualClock`;
    against a real server, time passes by itself — ``now`` reads
    :func:`time.monotonic`, ``sleep`` really sleeps, and ``advance_to``
    is a no-op because the wall clock cannot be set.
    """

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def advance(self, seconds: float) -> None:
        self.sleep(seconds)

    def advance_to(self, timestamp: float) -> None:
        pass


class HttpTransport(Transport):
    """Submit reports to a remote IoTSSP over HTTP.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (an optional path prefix is honoured).
    gateway_id / api_key:
        Sent as ``X-Gateway-Id`` / ``X-Api-Key`` on every request.
        Against an open server only the id matters (rate-limit identity).
    timeout:
        Socket timeout in seconds for connect and each read.

    Idle connections are pooled (last in, first out) and reused until
    the server closes them; :meth:`close` drops them.
    """

    latency = 0.0

    def __init__(
        self,
        base_url: str,
        *,
        gateway_id: str | None = None,
        api_key: str | None = None,
        timeout: float = 5.0,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be http://host[:port], got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        self.gateway_id = gateway_id
        self.api_key = api_key
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    # --- Transport protocol -------------------------------------------------

    # Bound on the class itself, not inherited, so tracers that patch
    # ``HttpTransport.submit`` (perfbench) find it.  A single report is a
    # batch of one and goes to ``/v1/reports`` like any batch.
    submit = Transport.submit

    def submit_many(
        self, reports: list[FingerprintReport], *, now: float | None = None
    ) -> list[IsolationDirective]:
        """POST the batch to ``/v1/reports``; one request per call."""
        payload = self.request_json(
            "POST",
            "/v1/reports",
            {"reports": [self._report_body(report) for report in reports]},
        )
        if not isinstance(payload, dict) or not isinstance(
            payload.get("directives"), list
        ):
            raise ProtocolError("batch response missing 'directives' list")
        directives = [self._decode_directive(item) for item in payload["directives"]]
        if len(directives) != len(reports):
            raise ProtocolError(
                f"batch response carries {len(directives)} directives "
                f"for {len(reports)} reports"
            )
        return directives

    # --- request plumbing ---------------------------------------------------

    def request_json(self, method: str, path: str, payload: object | None = None):
        """One request; returns the decoded JSON body or raises a fault.

        Public because admin flows (type listing/enrolment, directive
        lookups, health probes) share the same fault mapping as submits.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self.gateway_id is not None:
            headers["X-Gateway-Id"] = self.gateway_id
        if self.api_key is not None:
            headers["X-Api-Key"] = self.api_key
        status, raw = self._exchange(method, path, body, headers)
        return self._decode_response(method, path, status, raw)

    def close(self) -> None:
        """Close every idle pooled connection.

        The transport stays usable: a later request opens a new one.
        """
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """Send one request on a pooled or new connection; (status, body)."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        pooled = connection is not None
        while True:
            if connection is None:
                connection = http.client.HTTPConnection(
                    self._host, self._port, timeout=self.timeout
                )
            try:
                try:
                    connection.request(
                        method, self._prefix + path, body=body, headers=headers
                    )
                    response = connection.getresponse()
                except _STALE:
                    if not pooled:
                        raise
                    connection.close()
                    connection, pooled = None, False
                    continue
                raw = response.read()
            except TimeoutError as exc:
                connection.close()
                raise TransportTimeout(f"{method} {path}: {exc}") from exc
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                connection.close()
                raise ServiceUnavailable(f"{method} {path}: {exc}") from exc
            break
        self._release(connection, response.will_close)
        return response.status, raw

    def _release(self, connection: http.client.HTTPConnection, will_close: bool) -> None:
        if not will_close:
            with self._idle_lock:
                if len(self._idle) < _MAX_IDLE:
                    self._idle.append(connection)
                    return
        connection.close()

    def _decode_response(self, method: str, path: str, status: int, raw: bytes):
        if status in (200, 201):
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"{method} {path}: unparseable body: {exc}") from exc
        detail = _error_detail(raw)
        if status == 429 or status >= 500:
            # Over-capacity and server-side failures are transient: the
            # retry/breaker stack should back off and try again.
            raise ServiceUnavailable(f"{method} {path}: HTTP {status}: {detail}")
        raise ProtocolError(f"{method} {path}: HTTP {status}: {detail}")

    def _report_body(self, report: FingerprintReport) -> dict:
        if report.gateway_id is None and self.gateway_id is not None:
            report = FingerprintReport(
                fingerprint=report.fingerprint, gateway_id=self.gateway_id
            )
        return report_to_dict(report)

    def _decode_directive(self, payload: object) -> IsolationDirective:
        try:
            return directive_from_dict(payload)
        except WireError as exc:
            raise ProtocolError(f"malformed directive in response: {exc}") from exc


def _error_detail(raw: bytes) -> str:
    try:
        data = json.loads(raw.decode("utf-8"))
        if isinstance(data, dict) and isinstance(data.get("error"), str):
            return data["error"]
    except (UnicodeDecodeError, json.JSONDecodeError):
        pass
    return raw.decode("utf-8", errors="replace").strip() or "<empty body>"
