"""Serving-tier load harness: concurrent gateways against the HTTP IoTSSP.

Stands a trained :class:`~repro.securityservice.IoTSecurityService` up on
an ephemeral port (``SecurityServiceHTTPServer``) and drives it with N
concurrent gateway clients, each submitting fingerprint reports through
the *untouched* ``ResilientTransport`` retry/breaker stack over an
``HttpTransport`` — the full Fig. 1 report path on real sockets.  While
the load runs, a scraper thread polls ``GET /metrics`` and must observe
live Prometheus text (``service_reports_handled_total`` advancing
mid-load).  A second phase exercises the batched ``POST /v1/reports``
endpoint.  The harness reports sustained requests/sec and p50/p99
latency per phase, and fails a phase whose gateways opened more than one
connection each (``service_http_connections_total``): their transports
keep connections alive.

An endpoint-check pass (always run; CI's curl-style smoke) verifies the
contract rows of ``docs/serving.md`` against a key-protected,
tightly-rate-limited server: 200/201 happy paths, 401 wrong key,
400 malformed JSON, 404 unknown type, 409 duplicate enrolment, and 429
with ``Retry-After`` once the token bucket empties.

Run standalone (writes ``benchmarks/results/serving.txt``)::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke

``--smoke`` shrinks the population and load but keeps every functional
assertion — CI's serving smoke gate.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
from bench_ext_scalability import FINGERPRINTS_PER_TYPE, _build_registry
from repro.core.persistence import fingerprint_to_dict
from repro.obs import names as obs_names
from repro.securityservice import (
    FingerprintReport,
    IoTSecurityService,
    ResilientTransport,
    RetryPolicy,
)
from repro.securityservice.http import (
    ApiKeyRegistry,
    GatewayRateLimiter,
    HttpTransport,
    SecurityServiceHTTPServer,
    ServiceApp,
    SystemClock,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Full-mode throughput floor (pure-Python identify per request; smoke skips).
MIN_REQ_PER_SEC = 20.0

_LOAD_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=0.5,
    jitter=0.1, attempt_timeout=30.0,
)


def _build_service(n_types: int, seed: int):
    """A trained service plus one extra un-enrolled type for the 201 check."""
    rng = np.random.default_rng(seed)
    registry = _build_registry(n_types + 1, rng)
    spare = f"type{n_types:04d}"
    service = IoTSecurityService(random_state=seed)
    trained = registry.__class__()
    for label in sorted(registry.labels):
        if label != spare:
            trained.add_many(label, list(registry.fingerprints(label)))
    service.train(trained)
    return service, registry, spare


def _probes(registry, labels, count, rng):
    return [
        registry.fingerprints(labels[int(rng.integers(len(labels)))])[
            int(rng.integers(FINGERPRINTS_PER_TYPE))
        ]
        for _ in range(count)
    ]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _connect(base_url: str) -> http.client.HTTPConnection:
    parts = urlsplit(base_url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)


def _raw(base_url: str, method: str, path: str, body=None, headers=None, *, connection=None):
    """One plain request; returns (status, JSON-or-text body, headers).

    Runs on ``connection`` when given, else on a one-shot connection.
    """
    own = connection is None
    if own:
        connection = _connect(base_url)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
    finally:
        if own:
            connection.close()
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        decoded = raw.decode("utf-8", errors="replace")
    return response.status, decoded, dict(response.headers.items())


# --- load phases --------------------------------------------------------------


def _run_phase(server, probes_per_worker, *, batch_size=None) -> dict:
    """One load phase; returns wall time, request latencies, failures."""
    # Each worker owns one slot in these lists, so the threads never share
    # a mutable collection (and the thread-reachable code stays free of
    # bare ``.append`` calls, which SL007's conservative call graph would
    # otherwise resolve onto unrelated project classes).
    latencies: list[list[float]] = [[] for _ in probes_per_worker]
    worker_failures: list[list[str]] = [[] for _ in probes_per_worker]
    barrier = threading.Barrier(len(probes_per_worker) + 1)

    known = set(server.app.service.known_types) | {"unknown"}

    def check(index: int, gateway_id: str, directive) -> None:
        # A load harness asserts protocol health, not model accuracy: the
        # directive must name a type the service could actually issue.
        if directive.device_type not in known:
            worker_failures[index] += [f"{gateway_id}: bogus type {directive.device_type!r}"]

    def worker(index: int, probes) -> None:
        gateway_id = f"gw-{index:02d}"
        client = HttpTransport(server.base_url, gateway_id=gateway_id, timeout=30.0)
        transport = ResilientTransport(
            client,
            policy=_LOAD_POLICY,
            seed=index,
            clock=SystemClock(),
        )
        barrier.wait()
        try:
            if batch_size is None:
                for probe in probes:
                    started = time.perf_counter()
                    directive = transport.submit(FingerprintReport(fingerprint=probe))
                    latencies[index] += [time.perf_counter() - started]
                    check(index, gateway_id, directive)
            else:
                for start in range(0, len(probes), batch_size):
                    chunk = probes[start : start + batch_size]
                    started = time.perf_counter()
                    directives = transport.submit_many(
                        [FingerprintReport(fingerprint=p) for p in chunk]
                    )
                    latencies[index] += [time.perf_counter() - started]
                    for directive in directives:
                        check(index, gateway_id, directive)
        except Exception as exc:
            worker_failures[index] += [f"{gateway_id}: {type(exc).__name__}: {exc}"]
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i, probes), daemon=True)
        for i, probes in enumerate(probes_per_worker)
    ]
    for thread in threads:
        thread.start()

    scrape_live = threading.Event()
    stop_scraping = threading.Event()

    def scraper() -> None:
        # Poll-then-check ordering guarantees one final scrape after the
        # stop signal, so a phase shorter than the poll interval (smoke
        # mode) still observes the live counter.  Every poll rides one
        # kept-alive connection, so the scraper opens exactly one.
        connection = _connect(server.base_url)
        try:
            while True:
                status, body, _ = _raw(
                    server.base_url, "GET", "/metrics", connection=connection
                )
                if status == 200 and isinstance(body, str):
                    for line in body.splitlines():
                        if line.startswith("service_reports_handled_total") and (
                            float(line.rsplit(" ", 1)[1]) > 0
                        ):
                            scrape_live.set()
                if stop_scraping.is_set():
                    return
                time.sleep(0.02)
        finally:
            connection.close()

    accepted = server.provider.counter(obs_names.METRIC_HTTP_CONNECTIONS)
    accepted_before = accepted.value
    scrape_thread = threading.Thread(target=scraper, daemon=True)
    scrape_thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    stop_scraping.set()
    scrape_thread.join()

    flat = [latency for per_worker in latencies for latency in per_worker]
    return {
        "wall_s": wall,
        "latencies": flat,
        "failures": [failure for per_worker in worker_failures for failure in per_worker],
        "scrape_live": scrape_live.is_set(),
        # Connections the gateways opened: the scraper's one is not theirs.
        "connections": int(accepted.value - accepted_before) - 1,
    }


# --- endpoint checks ----------------------------------------------------------


def _check(label: str, got, want, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _endpoint_checks(service, registry, spare_label: str) -> list[str]:
    """The docs/serving.md contract, one status code at a time."""
    problems: list[str] = []
    app = ServiceApp(
        service,
        auth=ApiKeyRegistry({"gw-check": "right-key"}),
        limiter=GatewayRateLimiter(0.001, 8, clock=time.monotonic),
    )
    known = sorted(service.known_types)[0]
    ok = {"X-Gateway-Id": "gw-check", "X-Api-Key": "right-key"}
    send = dict(ok, **{"Content-Type": "application/json"})
    spare_fps = [fingerprint_to_dict(fp) for fp in registry.fingerprints(spare_label)]
    with SecurityServiceHTTPServer(app, manage_provider=False) as server:
        url = server.base_url
        _check("healthz", _raw(url, "GET", "/healthz")[0], 200, problems)
        _check("metrics", _raw(url, "GET", "/metrics")[0], 200, problems)
        _check(
            "auth wrong key",
            _raw(url, "GET", "/v1/types", headers={"X-Gateway-Id": "gw-check", "X-Api-Key": "x"})[0],
            401, problems,
        )
        _check("auth missing", _raw(url, "GET", "/v1/types")[0], 401, problems)
        _check(
            "malformed json",
            _raw(url, "POST", "/v1/report", body=b"{nope", headers=send)[0],
            400, problems,
        )
        _check(
            "unknown type",
            _raw(url, "GET", "/v1/directive/not-a-type", headers=ok)[0],
            404, problems,
        )
        _check(
            "wrong method",
            _raw(url, "DELETE", "/v1/report", headers=ok)[0],
            405, problems,
        )
        _check("types list", _raw(url, "GET", "/v1/types", headers=ok)[0], 200, problems)
        _check(
            "directive lookup",
            _raw(url, "GET", f"/v1/directive/{known}", headers=ok)[0],
            200, problems,
        )
        enroll = json.dumps({"label": spare_label, "fingerprints": spare_fps}).encode()
        _check(
            "enroll", _raw(url, "POST", "/v1/types", body=enroll, headers=send)[0],
            201, problems,
        )
        _check(
            "enroll duplicate",
            _raw(url, "POST", "/v1/types", body=enroll, headers=send)[0],
            409, problems,
        )
        # The burst-8 bucket refills at ~0/s, so hammering the cheapest
        # authed endpoint must hit 429 within the burst budget.
        saw_429 = None
        for _ in range(12):
            status, _, headers = _raw(url, "GET", "/v1/types", headers=ok)
            if status == 429:
                saw_429 = headers
                break
        if saw_429 is None:
            problems.append("rate limited: never saw a 429 in 12 rapid requests")
        elif "Retry-After" not in saw_429:
            problems.append("rate limited: 429 carried no Retry-After header")
    return problems


# --- harness ------------------------------------------------------------------


def run_benchmark(
    *,
    smoke: bool = False,
    workers: int = 8,
    requests: int = 40,
    types: int = 12,
    batch_size: int = 8,
    seed: int = 3,
) -> dict:
    if smoke:
        workers, requests, types, batch_size = 2, 6, 3, 3
    service, registry, spare = _build_service(types, seed)
    rng = np.random.default_rng(seed + 1)
    labels = sorted(service.known_types)
    probes_per_worker = [
        _probes(registry, labels, requests, rng) for _ in range(workers)
    ]

    app = ServiceApp(
        service,
        limiter=GatewayRateLimiter(10_000.0, 100_000.0, clock=time.monotonic),
    )
    with SecurityServiceHTTPServer(app) as server:
        single = _run_phase(server, probes_per_worker)
        batch = _run_phase(server, probes_per_worker, batch_size=batch_size)

    problems = list(single["failures"]) + list(batch["failures"])
    if not single["scrape_live"]:
        problems.append("single phase: /metrics never served live report counts")
    for mode, phase in (("single", single), ("batch", batch)):
        # Keep-alive: a gateway's submits reuse its one pooled connection.
        if phase["connections"] > workers:
            problems.append(
                f"{mode} phase: {phase['connections']} connections for "
                f"{workers} gateways (more than one per gateway)"
            )
    problems.extend(_endpoint_checks(service, registry, spare))

    total = workers * requests
    rows = []
    for mode, phase, n_requests, per_request in (
        ("single", single, total, 1),
        (f"batch x{batch_size}", batch, len(batch["latencies"]), batch_size),
    ):
        wall = phase["wall_s"]
        lat = phase["latencies"]
        rows.append(
            {
                "mode": mode,
                "requests": n_requests,
                "reports": total,
                "wall_s": wall,
                "rps": n_requests / wall,
                "reports_per_s": total / wall,
                "p50_ms": _percentile(lat, 0.50) * 1e3,
                "p99_ms": _percentile(lat, 0.99) * 1e3,
            }
        )

    lines = [
        "serving — concurrent gateways vs. the HTTP IoTSSP "
        "(ResilientTransport over real sockets)",
        f"{workers} gateways x {requests} reports, {types} trained types, "
        f"seed {seed}" + (" [smoke]" if smoke else ""),
        "",
        f"{'mode':<10}  {'requests':>8}  {'wall':>8}  {'req/s':>8}  "
        f"{'reports/s':>9}  {'p50':>8}  {'p99':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:<10}  {row['requests']:>8}  {row['wall_s']:>7.2f}s  "
            f"{row['rps']:>8.1f}  {row['reports_per_s']:>9.1f}  "
            f"{row['p50_ms']:>6.1f}ms  {row['p99_ms']:>6.1f}ms"
        )
    lines += [
        "",
        "mid-load /metrics scrape: live"
        if single["scrape_live"]
        else "mid-load /metrics scrape: MISSING",
        f"gateway connections opened: {single['connections']} single, "
        f"{batch['connections']} batch ({workers} gateways)",
        "endpoint checks: all passing" if not problems else "endpoint checks: FAILING",
    ]
    return {
        "report": "\n".join(lines),
        "rows": rows,
        "problems": problems,
        "single_rps": rows[0]["rps"],
    }


def test_serving_load(benchmark):
    """Pytest entry: regenerate the results artifact and hold the floor."""
    result = benchmark.pedantic(lambda: run_benchmark(), rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serving.txt").write_text(result["report"] + "\n")
    assert not result["problems"], result["problems"]
    assert result["single_rps"] >= MIN_REQ_PER_SEC, result["report"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small load, every functional assertion, no results file",
    )
    parser.add_argument("--workers", type=int, default=8, help="concurrent gateways")
    parser.add_argument("--requests", type=int, default=40, help="reports per gateway")
    parser.add_argument("--types", type=int, default=12, help="trained type population")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--output", default=None,
        help="results path (default benchmarks/results/serving.txt; "
        "ignored with --smoke)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        smoke=args.smoke, workers=args.workers, requests=args.requests,
        types=args.types, batch_size=args.batch_size, seed=args.seed,
    )
    print(result["report"])
    if result["problems"]:
        print("\nFAIL:")
        for problem in result["problems"]:
            print(f"  - {problem}")
        return 1
    if not args.smoke:
        if result["single_rps"] < MIN_REQ_PER_SEC:
            print(f"\nFAIL: single-submit throughput below {MIN_REQ_PER_SEC} req/s")
            return 1
        output = Path(args.output) if args.output else RESULTS_DIR / "serving.txt"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(result["report"] + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
