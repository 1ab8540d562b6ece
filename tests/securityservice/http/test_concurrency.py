"""Concurrent requests against a live server, with no lock in the app.

Reader threads submit report batches while an admin thread enrols a type
over HTTP and another thread retires a type in process.  Every batch must
be answered by one published model version, the report counter must
match the reports served, and racing enrolments of one label must enrol
it once (one 201, the rest 409).
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.devices import collect_fingerprints, profile_by_name
from repro.securityservice import FingerprintReport, IoTSecurityService
from repro.securityservice.http import HttpTransport, SecurityServiceHTTPServer, ServiceApp
from repro.securityservice.http.wire import report_to_dict

SEED = 3
#: Enrolled over HTTP by the admin thread.
NEW = "MAXGateway"
#: Retired in process while the readers run.
RETIRED = "HueBridge"
READERS = 4


def _fingerprints_body(label: str, fingerprints) -> bytes:
    return json.dumps(
        {
            "label": label,
            "fingerprints": [
                report_to_dict(FingerprintReport(fingerprint=fp))["fingerprint"]
                for fp in fingerprints
            ],
        }
    ).encode()


def _post(server: SecurityServiceHTTPServer, path: str, body: bytes) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _get(server: SecurityServiceHTTPServer, path: str) -> dict:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read().decode("utf-8"))
    finally:
        connection.close()


def _verdicts(directives) -> list[tuple]:
    return [(d.device_type, d.level, d.permitted_endpoints) for d in directives]


@pytest.fixture(scope="module")
def new_type():
    """Enrolment fingerprints and held-out probes of a type not in the corpus."""
    rng = np.random.default_rng(17)
    fingerprints = collect_fingerprints(profile_by_name(NEW), runs=12, rng=rng)
    return fingerprints[:8], fingerprints[8:]


def _published_verdicts(small_registry, enrolment, reports) -> list[list[tuple]]:
    """The verdicts of every version enrol-NEW and retire-RETIRED can publish.

    Enrolling after the retirement trains NEW without RETIRED's
    negatives, so the two orders end in different models.
    """
    orders = [(), ("enrol",), ("retire",), ("enrol", "retire"), ("retire", "enrol")]
    out = []
    for steps in orders:
        replica = IoTSecurityService(random_state=SEED)
        replica.train(small_registry)
        for step in steps:
            if step == "enrol":
                replica.enroll_type(NEW, enrolment)
            else:
                replica.retire_type(RETIRED)
        out.append(_verdicts(replica.handle_reports(reports)))
    return out


def test_batches_see_one_version_while_types_change(small_registry, new_type):
    enrolment, probes = new_type
    reports = [
        FingerprintReport(fingerprint=fp)
        for label in small_registry.labels
        for fp in small_registry.fingerprints(label)[:3]
    ] + [FingerprintReport(fingerprint=fp) for fp in probes]
    published = _published_verdicts(small_registry, enrolment, reports)
    assert len({tuple(v) for v in published}) == len(published)

    service = IoTSecurityService(random_state=SEED)
    service.train(small_registry)
    with SecurityServiceHTTPServer(ServiceApp(service)) as server:
        changed = threading.Event()
        started = threading.Barrier(READERS + 2)
        served = [0] * READERS
        #: The published version each reader's latest batch matched.
        latest = [-1] * READERS
        failures: list[object] = []
        statuses: list[int] = []

        def read(index: int) -> None:
            transport = HttpTransport(server.base_url, gateway_id=f"gw-{index}")
            try:
                waited = False
                while True:
                    last = changed.is_set()
                    verdicts = _verdicts(transport.submit_many(reports))
                    served[index] += len(reports)
                    if verdicts not in published:
                        failures.append((index, verdicts))
                        return
                    latest[index] = published.index(verdicts)
                    if not waited:
                        started.wait(timeout=30)
                        waited = True
                    if last:
                        return  # one full batch after every change landed
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((index, exc))
                started.abort()
            finally:
                transport.close()

        def enrol() -> None:
            started.wait(timeout=30)
            statuses.append(_post(server, "/v1/types", _fingerprints_body(NEW, enrolment))[0])

        def retire() -> None:
            started.wait(timeout=30)
            service.retire_type(RETIRED)

        readers = [threading.Thread(target=read, args=(i,)) for i in range(READERS)]
        admins = [threading.Thread(target=enrol), threading.Thread(target=retire)]
        for thread in readers + admins:
            thread.start()
        for thread in admins:
            thread.join(timeout=60)
        changed.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in readers + admins)
        assert not failures, failures
        assert statuses == [201]
        assert NEW in service.known_types and RETIRED not in service.known_types
        # Each reader's last batch started after both changes landed.
        assert set(latest) <= {3, 4}, latest
        health = _get(server, "/healthz")
        assert health["reports_handled"] == sum(served) == service.reports_handled


def test_racing_enrolments_of_one_label_enrol_it_once(small_registry, new_type):
    enrolment, _ = new_type
    service = IoTSecurityService(random_state=SEED)
    service.train(small_registry)
    body = _fingerprints_body(NEW, enrolment)
    racers = 6
    with SecurityServiceHTTPServer(ServiceApp(service)) as server:
        barrier = threading.Barrier(racers)
        statuses: list[int] = []

        def race() -> None:
            barrier.wait(timeout=30)
            statuses.append(_post(server, "/v1/types", body)[0])

        threads = [threading.Thread(target=race) for _ in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    assert sorted(statuses) == [201] + [409] * (racers - 1)
    assert service.known_types.count(NEW) == 1
    assert service.identifier.corpus.count(NEW) == len(enrolment)
