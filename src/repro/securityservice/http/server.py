"""``ThreadingHTTPServer`` glue for :class:`~.app.ServiceApp`.

The server owns exactly two jobs: move bytes between sockets and the
socketless app, and manage the process-global observability provider so
``/metrics`` has something live to render.

Connections are HTTP/1.1 keep-alive: one handler thread serves one
connection for as long as the client keeps it open, and ends once the
connection has sat idle for ``_Handler.timeout`` seconds.  The server
tracks the sockets it accepted, and :meth:`~SecurityServiceHTTPServer.stop`
shuts every one of them down, so a stopped server answers nothing, not
even on a connection a client kept open.

On :meth:`~SecurityServiceHTTPServer.start` the server installs its
:class:`~repro.obs.RecordingProvider` (bounded span ring — memory stays
flat under sustained load) and on :meth:`~SecurityServiceHTTPServer.stop`
it restores whatever was installed before, so embedding it in tests or
benchmarks never leaks global state.

The ``app`` attribute is duck-typed: anything with
``handle(method, path, headers, body) -> AppResponse`` serves — the
resilience integration tests exploit this with fault-injecting wrappers
around a real :class:`~.app.ServiceApp`.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import RecordingProvider, set_provider
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names

from .app import MAX_BODY_BYTES, AppResponse

__all__ = ["SecurityServiceHTTPServer", "DEFAULT_MAX_SPAN_RECORDS"]

#: Span-ring bound for the server-managed recording provider.
DEFAULT_MAX_SPAN_RECORDS = 4096


def _refusal(status: int, message: str) -> AppResponse:
    """A framing error or an oversized body: answered, then the
    connection is closed.

    The server did not read the body it refuses, so under keep-alive
    those bytes would be parsed as the next request.
    """
    return AppResponse(
        status,
        (json.dumps({"error": message}) + "\n").encode("utf-8"),
        {"Content-Type": "application/json", "Connection": "close"},
    )


class _Handler(BaseHTTPRequestHandler):
    server_version = "iot-sentinel-iotssp/1.0"
    protocol_version = "HTTP/1.1"
    # A response goes out in two writes (head, then body).  With Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the
    # head: about 40 ms per request on a kept-alive connection.
    disable_nagle_algorithm = True
    # Seconds a kept-alive connection may sit idle (or a read stall)
    # before the server closes it and its handler thread ends.
    timeout = 30.0

    def _dispatch(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            response = self.server.app.handle(  # type: ignore[attr-defined]
                self.command, self.path, dict(self.headers.items()), body
            )
        except Exception as exc:  # the app contract is "never raise", but
            # a broken wrapper must not kill the connection thread silently.
            response = AppResponse(
                500,
                f'{{"error": "internal server error: {type(exc).__name__}"}}\n'.encode(),
                {"Content-Type": "application/json"},
            )
        self._send(response)

    def _read_body(self) -> bytes | None:
        """The request body, or None once a framing error was answered."""
        if "Transfer-Encoding" in self.headers:
            self._send(_refusal(411, "send the body with a Content-Length"))
            return None
        lengths = set(self.headers.get_all("Content-Length") or ())
        if not lengths:
            return b""
        raw = lengths.pop().strip()
        if lengths or not (raw.isascii() and raw.isdigit()):
            self._send(_refusal(400, "invalid Content-Length"))
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            # Refused before reading: one client cannot make a handler
            # buffer an oversized body or wait for one it never sends.
            self._send(_refusal(413, f"body exceeds {MAX_BODY_BYTES} bytes"))
            return None
        return self.rfile.read(length) if length else b""

    def _send(self, response: AppResponse) -> None:
        self.send_response(response.status)
        for key, value in response.headers.items():
            # send_header("Connection", "close") also ends the connection.
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch
    do_PATCH = _dispatch

    def log_message(self, format: str, *args: object) -> None:
        pass  # the obs layer is the access log; stderr chatter off.


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog is 5: a burst of more
    # concurrent gateways overflows it, the kernel drops their SYNs and
    # each one stalls for the 1 s SYN retransmit.
    request_queue_size = 128
    allow_reuse_address = True

    def __init__(self, server_address, handler) -> None:
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(server_address, handler)

    def process_request(self, request, client_address) -> None:
        obs_counter(obs_names.METRIC_HTTP_CONNECTIONS).inc()
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every accepted socket; their handlers see EOF and end."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return  # client went away mid-response; routine under load.
        super().handle_error(request, client_address)


class SecurityServiceHTTPServer:
    """Serve a :class:`~.app.ServiceApp` on a background thread.

    Parameters
    ----------
    app:
        Anything with ``handle(method, path, headers, body)``.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`base_url`).
    provider:
        Observability provider to install globally while serving.  None
        (default) creates a :class:`RecordingProvider` with a bounded
        span ring.  Pass ``manage_provider=False`` to leave the global
        provider untouched (e.g. the caller already installed one).
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        provider: RecordingProvider | None = None,
        manage_provider: bool = True,
    ) -> None:
        self.app = app
        self._httpd = _Server((host, port), _Handler)
        self._httpd.app = app  # type: ignore[attr-defined]
        self.provider = provider or RecordingProvider(
            max_span_records=DEFAULT_MAX_SPAN_RECORDS
        )
        self._manage_provider = manage_provider
        # Guards the provider bookkeeping: serve_forever runs on whatever
        # thread the caller chose, start/stop on the owner's.
        self._state_lock = threading.Lock()
        self._previous_provider = None
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SecurityServiceHTTPServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        if self._manage_provider:
            with self._state_lock:
                self._previous_provider = set_provider(self.provider)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"iotssp-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=10.0)
        self._httpd.server_close()
        self._httpd.close_connections()
        self._thread = None
        if self._manage_provider:
            with self._state_lock:
                set_provider(self._previous_provider)
                self._previous_provider = None

    def serve_forever(self) -> None:
        """Foreground serving for the CLI path (Ctrl-C to stop)."""
        if self._manage_provider:
            with self._state_lock:
                self._previous_provider = set_provider(self.provider)
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self._httpd.close_connections()
            if self._manage_provider:
                with self._state_lock:
                    set_provider(self._previous_provider)
                    self._previous_provider = None

    def __enter__(self) -> "SecurityServiceHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
