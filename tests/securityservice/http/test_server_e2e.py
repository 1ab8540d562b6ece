"""Real sockets: the serving tier end to end on an ephemeral port.

Everything here binds ``127.0.0.1:0`` and talks through
:class:`HttpTransport` (or a raw ``http.client`` connection for the
Prometheus scrape), so the whole stack — request threads, router, wire
codecs, fault mapping — is exercised exactly as a gateway deployment
would drive it.
"""

import http.client
import socket
import sys
import threading
import time

import pytest

from repro.gateway import MonitorEvent, SecurityGateway
from repro.obs import NOOP_PROVIDER, get_provider, set_provider
from repro.obs import names as obs_names
from repro.securityservice import (
    CircuitBreaker,
    CircuitOpenError,
    FingerprintReport,
    ProtocolError,
    ResilientTransport,
    RetryPolicy,
    ServiceUnavailable,
)
from repro.securityservice.http import (
    ApiKeyRegistry,
    AppResponse,
    HttpTransport,
    SecurityServiceHTTPServer,
    ServiceApp,
    SystemClock,
)
from repro.securityservice.http import server as server_module

#: Fast backoff so retry paths run in milliseconds of wall time.
FAST = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=1.0, max_delay=0.05, jitter=0.0)


def scrape(server, path="/metrics"):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


class TestRoundTrip:
    @pytest.fixture()
    def server(self, service):
        with SecurityServiceHTTPServer(ServiceApp(service)) as server:
            yield server

    def test_submit_then_lookup_then_scrape(self, server, probe):
        transport = HttpTransport(server.base_url, gateway_id="gw-e2e")
        directive = transport.submit(FingerprintReport(fingerprint=probe))
        assert directive.device_type == "Aria"

        lookup = transport.request_json("GET", "/v1/directive/Aria")
        assert lookup["device_type"] == "Aria"
        assert lookup["level"] == directive.level.value

        status, text = scrape(server)
        assert status == 200
        assert "service_reports_handled_total 1" in text
        assert "service_http_requests_total" in text

    def test_batch_submit(self, server, probe):
        transport = HttpTransport(server.base_url)
        reports = [FingerprintReport(fingerprint=probe) for _ in range(4)]
        directives = transport.submit_many(reports)
        assert len(directives) == 4
        assert {d.device_type for d in directives} == {"Aria"}

    def test_types_and_health(self, server, service):
        transport = HttpTransport(server.base_url)
        assert transport.request_json("GET", "/v1/types")["types"] == service.known_types
        health = transport.request_json("GET", "/healthz")
        assert health["status"] == "ok"

    def test_client_errors_are_fatal_protocol_errors(self, server):
        transport = HttpTransport(server.base_url)
        with pytest.raises(ProtocolError, match="404"):
            transport.request_json("GET", "/v1/directive/Toaster9000")

    def test_connection_refused_is_retryable(self, server, probe):
        # A dead port maps onto ServiceUnavailable, not a raw OSError.
        dead = HttpTransport(f"http://{server.host}:1", timeout=0.5)
        with pytest.raises(ServiceUnavailable):
            dead.submit(FingerprintReport(fingerprint=probe))


class TestAuthOverHttp:
    def test_wrong_key_is_fatal_right_key_passes(self, service, probe):
        app = ServiceApp(service, auth=ApiKeyRegistry({"gw-1": "secret"}))
        with SecurityServiceHTTPServer(app) as server:
            wrong = HttpTransport(server.base_url, gateway_id="gw-1", api_key="nope")
            with pytest.raises(ProtocolError, match="401"):
                wrong.submit(FingerprintReport(fingerprint=probe))
            right = HttpTransport(server.base_url, gateway_id="gw-1", api_key="secret")
            directive = right.submit(FingerprintReport(fingerprint=probe))
            assert directive.device_type == "Aria"


class FlakyApp:
    """Fault-injecting wrapper: N induced failures, then the real app."""

    def __init__(self, app, failures: int, status: int = 503) -> None:
        self.app = app
        self.failures = failures
        self.status = status
        self.calls = 0
        self._lock = threading.Lock()

    def handle(self, method, path, headers, body) -> AppResponse:
        with self._lock:
            self.calls += 1
            induced = self.calls <= self.failures
        if induced:
            return AppResponse(self.status, b'{"error": "induced outage"}')
        return self.app.handle(method, path, headers, body)


class TestResilienceOverHttp:
    def test_retries_ride_out_a_transient_outage(self, service, probe):
        flaky = FlakyApp(ServiceApp(service), failures=2)
        with SecurityServiceHTTPServer(flaky) as server:
            transport = ResilientTransport(
                HttpTransport(server.base_url, gateway_id="gw-r"),
                policy=FAST,
                clock=SystemClock(),
            )
            directive = transport.submit(FingerprintReport(fingerprint=probe))
        assert directive.device_type == "Aria"
        assert flaky.calls == 3  # two 503s, one success
        assert transport.attempts == 3

    def test_persistent_outage_exhausts_retries(self, service, probe):
        flaky = FlakyApp(ServiceApp(service), failures=10 ** 6)
        with SecurityServiceHTTPServer(flaky) as server:
            transport = ResilientTransport(
                HttpTransport(server.base_url),
                policy=FAST,
                clock=SystemClock(),
                breaker=CircuitBreaker(failure_threshold=100),
            )
            with pytest.raises(ServiceUnavailable):
                transport.submit(FingerprintReport(fingerprint=probe))
        assert flaky.calls == FAST.max_attempts

    def test_breaker_opens_and_fails_fast(self, service, probe):
        flaky = FlakyApp(ServiceApp(service), failures=10 ** 6)
        with SecurityServiceHTTPServer(flaky) as server:
            transport = ResilientTransport(
                HttpTransport(server.base_url),
                policy=FAST,
                clock=SystemClock(),
                breaker=CircuitBreaker(failure_threshold=3, reset_timeout=3600.0),
            )
            with pytest.raises(ServiceUnavailable):
                transport.submit(FingerprintReport(fingerprint=probe))
            calls_when_open = flaky.calls
            with pytest.raises(CircuitOpenError):
                transport.submit(FingerprintReport(fingerprint=probe))
        # Failing fast means no further requests reached the server.
        assert flaky.calls == calls_when_open

    def test_fatal_statuses_do_not_retry(self, service, probe):
        flaky = FlakyApp(ServiceApp(service), failures=10 ** 6, status=400)
        with SecurityServiceHTTPServer(flaky) as server:
            transport = ResilientTransport(
                HttpTransport(server.base_url),
                policy=FAST,
                clock=SystemClock(),
            )
            with pytest.raises(ProtocolError):
                transport.submit(FingerprintReport(fingerprint=probe))
        assert flaky.calls == 1


class RecordingApp:
    """Pass-through wrapper that records every request's method and path."""

    def __init__(self, app) -> None:
        self.app = app
        self.requests: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def handle(self, method, path, headers, body) -> AppResponse:
        with self._lock:
            self.requests.append((method, path))
        return self.app.handle(method, path, headers, body)


class TestBatchedSweepOverHttp:
    def test_sweep_of_eight_is_one_request(self, service, small_registry):
        fingerprints = [
            fp for label in small_registry.labels for fp in small_registry.fingerprints(label)[:2]
        ][:8]
        events = [
            MonitorEvent(device_mac=f"aa:00:00:00:01:{i:02x}", fingerprint=fp, packet_count=0, mode="setup")
            for i, fp in enumerate(fingerprints)
        ]
        recording = RecordingApp(ServiceApp(service))
        with SecurityServiceHTTPServer(recording) as server:
            transport = ResilientTransport(
                HttpTransport(server.base_url, gateway_id="gw-sweep"), policy=FAST, clock=SystemClock()
            )
            gateway = SecurityGateway(transport, batch_profiling=True)
            directives = gateway.sentinel.process_batch(events, now=0.0)
        assert recording.requests == [("POST", "/v1/reports")]
        assert transport.attempts == 1
        expected = service.handle_reports([FingerprintReport(fingerprint=fp) for fp in fingerprints])
        assert [directives[event.device_mac] for event in events] == expected
        assert len({d.device_type for d in expected}) > 1  # a real mix, not one canned answer


class TestProviderLifecycle:
    def test_start_installs_and_stop_restores_the_global_provider(self, service):
        previous = get_provider()
        server = SecurityServiceHTTPServer(ServiceApp(service))
        server.start()
        try:
            assert get_provider() is server.provider
            assert server.running
        finally:
            server.stop()
        assert get_provider() is previous
        assert not server.running

    def test_unmanaged_server_leaves_the_provider_alone(self, service):
        set_provider(NOOP_PROVIDER)
        with SecurityServiceHTTPServer(ServiceApp(service), manage_provider=False) as server:
            assert get_provider() is NOOP_PROVIDER
            status, text = scrape(server)
        assert status == 200
        assert "disabled" in text

    def test_double_start_rejected(self, service):
        with SecurityServiceHTTPServer(ServiceApp(service)) as server:
            with pytest.raises(RuntimeError):
                server.start()


def accepted(server) -> int:
    """Connections the server accepted so far (its own counter)."""
    return int(server.provider.counter(obs_names.METRIC_HTTP_CONNECTIONS).value)


def open_sockets(server) -> list:
    with server._httpd._connections_lock:
        return list(server._httpd._connections)


def wait_until(predicate, timeout=5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def read_response(sock) -> int:
    """Read one whole response off a raw socket; returns its status."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    response.read()
    return response.status


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a new socket; read until the server closes it."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionLifecycle:
    def test_sequential_submits_share_one_connection(self, service, probe):
        recording = RecordingApp(ServiceApp(service))
        with SecurityServiceHTTPServer(recording) as server:
            transport = HttpTransport(server.base_url, gateway_id="gw-seq")
            for _ in range(6):
                assert transport.submit(FingerprintReport(fingerprint=probe)).device_type == "Aria"
            transport.request_json("GET", "/healthz")
            assert accepted(server) == 1
            transport.close()
        assert len(recording.requests) == 7

    def test_threads_sharing_a_transport_get_their_own_directives(
        self, service, small_registry
    ):
        labels = small_registry.labels[:4]
        batches = {
            label: [FingerprintReport(fingerprint=fp) for fp in small_registry.fingerprints(label)[:3]]
            for label in labels
        }
        expected = {label: service.handle_reports(reports) for label, reports in batches.items()}
        got: dict[str, list] = {}
        barrier = threading.Barrier(len(labels))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' pool access
        try:
            with SecurityServiceHTTPServer(ServiceApp(service)) as server:
                transport = HttpTransport(server.base_url, gateway_id="gw-shared")

                def gateway(label: str) -> None:
                    barrier.wait()
                    rounds = [transport.submit_many(batches[label]) for _ in range(5)]
                    got[label] = rounds

                threads = [
                    threading.Thread(target=gateway, args=(label,)) for label in labels
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                # One in-flight request per connection: never more
                # connections than threads, however the requests interleaved.
                assert accepted(server) <= len(labels)
                transport.close()
        finally:
            sys.setswitchinterval(switch_interval)
        for label in labels:
            assert got[label] == [expected[label]] * 5

    def test_idle_timeout_then_one_transparent_reconnect(
        self, service, probe, monkeypatch
    ):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        recording = RecordingApp(ServiceApp(service))
        with SecurityServiceHTTPServer(recording) as server:
            transport = HttpTransport(server.base_url, gateway_id="gw-idle")
            transport.submit(FingerprintReport(fingerprint=probe))
            # The server times the idle connection out and closes it.
            wait_until(lambda: not open_sockets(server))
            directive = transport.submit(FingerprintReport(fingerprint=probe))
            assert directive.device_type == "Aria"
            assert accepted(server) == 2
            transport.close()
        # The stale connection failed before the server read the request:
        # the app saw each submit exactly once.
        assert recording.requests == [("POST", "/v1/reports")] * 2

    def test_stopped_server_answers_nothing_on_kept_connections(self, service, probe):
        recording = RecordingApp(ServiceApp(service))
        server = SecurityServiceHTTPServer(recording).start()
        try:
            transport = HttpTransport(server.base_url, gateway_id="gw-stop")
            transport.submit(FingerprintReport(fingerprint=probe))
            bystander = socket.create_connection((server.host, server.port), timeout=5)
            bystander.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(bystander) == 200
        finally:
            server.stop()
        with bystander:
            assert bystander.recv(65536) == b""  # EOF, not another response
        with pytest.raises(ServiceUnavailable):
            transport.submit(FingerprintReport(fingerprint=probe))
        assert len(recording.requests) == 2

    def test_accepted_sockets_disable_nagle(self, service):
        # Without TCP_NODELAY a kept-alive response's body waits for the
        # client's delayed ACK of its head (about 40 ms per request).
        with SecurityServiceHTTPServer(ServiceApp(service)) as server:
            transport = HttpTransport(server.base_url)
            transport.request_json("GET", "/healthz")
            sockets = open_sockets(server)
            assert len(sockets) == 1
            assert sockets[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            transport.close()

    def test_close_drops_idle_connections(self, service):
        with SecurityServiceHTTPServer(ServiceApp(service)) as server:
            transport = HttpTransport(server.base_url)
            transport.request_json("GET", "/healthz")
            transport.close()
            wait_until(lambda: not open_sockets(server))
            assert transport.request_json("GET", "/healthz")["status"] == "ok"
            assert accepted(server) == 2
            transport.close()


class TestUnframedBodies:
    """A body the server did not read must not be parsed as a request."""

    @pytest.fixture()
    def served(self, service):
        recording = RecordingApp(ServiceApp(service))
        with SecurityServiceHTTPServer(recording) as server:
            yield server, recording

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"+5", b"5, 7"])
    def test_invalid_content_length_is_400_and_closes(self, served, length):
        server, recording = served
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = raw_exchange(
            server,
            b"POST /v1/reports HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + length
            + b"\r\n\r\n"
            + smuggled,
        )
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1") == 1  # the body was not served
        assert recording.requests == []

    def test_conflicting_content_lengths_are_400(self, served):
        server, recording = served
        reply = raw_exchange(
            server,
            b"POST /v1/reports HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 400")
        assert recording.requests == []

    def test_transfer_encoding_is_411_and_closes(self, served):
        server, recording = served
        reply = raw_exchange(
            server,
            b"POST /v1/reports HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"24\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\r\n0\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1") == 1
        assert recording.requests == []

    def test_valid_request_keeps_the_connection_open(self, served):
        server, recording = served
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert read_response(sock) == 200
        assert recording.requests == [("GET", "/healthz")] * 2
