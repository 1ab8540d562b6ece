"""The three closed-loop workloads.

Each workload object is driven by ``run.py`` in this order::

    setup()          # one cold start, returns its seconds; called SETUP_REPS times
    warm_up()        # untimed: lazy bank compile, first connections
    begin()
    run(deadline)    # closed loop until deadline; called once per segment
    done()           # may the timed phase stop?  (all enrolments made)
    end()
    verify()
    close()

``ids``, ``correct``, ``latencies_ns`` (one sample per identification),
``enroll_ns`` and ``checks`` accumulate over the run.

Every workload enrols ``ENROLLS`` new types while it serves, one per
``ENROLL_EVERY`` identifications, so the model's state at each read does
not depend on the machine's speed.  The in-process workloads enrol on
the loop's own thread and retire the type straight away (their bank stays
at the 27 paper types); ``iotssp_http`` enrols from an admin thread beside
the reads and keeps the new types.  After retiring, the in-process
workloads rebuild every replica's compiled bank, so their reads never pay
for a model change; on ``iotssp_http`` the read after each enrolment
does, which is the cost ``id_p99_ms`` shows there.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
from repro.core.fingerprint import Fingerprint
from repro.core.persistence import ModelStore, fingerprint_to_dict
from repro.gateway import SecurityGateway
from repro.gateway.monitor import MonitorEvent
from repro.sdn.overlay import IsolationLevel
from repro.securityservice import (
    DirectTransport,
    IoTSecurityService,
    ShardedSecurityService,
)
from repro.securityservice.http.client import HttpTransport, SystemClock
from repro.securityservice.protocol import FingerprintReport
from repro.securityservice.resilience import ResilientTransport

from perfbench import common
from perfbench.common import Checks, directive_problem

clock = time.perf_counter_ns


def _fresh(device: dict) -> Fingerprint:
    """A new Fingerprint object, so no per-instance memo carries over."""
    return Fingerprint(packets=device["packets"], device_mac=device["mac"])


class Workload:
    name = ""
    #: Set by the driver on traced runs (the HTTP child traces itself too).
    tracing = False
    #: New types enrolled per run, one per ``ENROLL_EVERY`` identifications;
    #: each workload spreads them over about 20 s of its loop on a 2-vCPU VM.
    ENROLLS = 24
    ENROLL_EVERY = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.lab = common.lab_corpus()
        self.pool = common.device_pool(seed)
        self.checks = Checks()
        self.ids = 0
        self.correct = 0
        self.latencies_ns: list[int] = []
        self.enroll_ns: list[int] = []
        self.digests: set[str] = set()
        self.used: dict[str, dict] = {}
        self.service = None  # the IoTSSP new types are enrolled into
        self.enrolling = True
        self._enrolled = 0
        #: Data frames sent after enforcement, and their time (home_gateway).
        self.data_frames = 0
        self.data_ns = 0

    def setup(self) -> float:
        raise NotImplementedError

    def warm_up(self) -> None:
        """A short untimed loop; only its failures carry over into the run."""
        checks, self.checks = self.checks, Checks()
        self.enrolling = False
        self.run(time.perf_counter() + 0.3)
        self.enrolling = True
        warm, self.checks = self.checks, checks
        for i in range(warm.failed):
            checks.op(f"warm-up: {warm.notes[i] if i < len(warm.notes) else 'failed'}")
        self.ids = self.correct = self.data_frames = self.data_ns = 0
        self.latencies_ns.clear()
        self.used.clear()

    def set_remote_tracing(self, on: bool) -> None:
        pass

    def begin(self) -> None:
        pass

    def run(self, deadline: float) -> None:
        raise NotImplementedError

    def done(self) -> bool:
        return self._enrolled >= self.ENROLLS

    def end(self) -> None:
        pass

    def _maybe_enroll(self) -> None:
        """Enrol (and retire) the next new type once its read count is reached."""
        while (
            self.enrolling
            and self._enrolled < self.ENROLLS
            and self.ids >= (self._enrolled + 1) * self.ENROLL_EVERY
        ):
            label = common.ENROLL_LABELS[self._enrolled % len(common.ENROLL_LABELS)]
            self._enrolled += 1
            fingerprints = common.fresh_fingerprints(self.lab["enroll"][label])
            before = len(self.service.known_types)
            start = clock()
            try:
                self.service.enroll_type(label, fingerprints)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.checks.op(f"enrol {label}: {type(exc).__name__}: {exc}")
                continue
            self.enroll_ns.append(clock() - start)
            grew = len(self.service.known_types) == before + 1
            self.checks.op(None if grew else f"enrol {label}: bank did not grow")
            self.service.retire_type(label)
            probe = common.fresh_fingerprints(self.lab["base"][common.ALL_TYPES[0]][:1])
            for identifier in self.identifiers():
                identifier.classify_batch(probe)

    def identifiers(self) -> list:
        """Every replica's classifier bank."""
        return [self.service.identifier]

    def verify(self) -> None:
        pass

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb()

    def info(self) -> dict:
        return {}

    def _record(self, device: dict, directive, latency_ns: int) -> None:
        """Book one identification: latency, accuracy and its checks."""
        self.ids += 1
        self.latencies_ns.append(latency_ns)
        self.used[device["mac"]] = device
        problem = directive_problem(directive)
        if problem is None and directive.device_type == device["type"]:
            self.correct += 1
        self.checks.op(None if problem is None else f"{device['mac']}: {problem}")


class HomeGateway(Workload):
    """Home gateways; devices join one after another (Tables IV-VI).

    A gateway sees ``HOUSEHOLD`` arrivals, then the loop moves on to a
    fresh gateway (the next home) on the same IoTSSP.  ``detach_device``
    keeps the device's switch port, and flooding walks every port, so a
    single gateway would slow down with every arrival and the rate would
    depend on how long the run is.
    """

    name = "home_gateway"
    HOUSEHOLD = 64
    ENROLL_EVERY = 220

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = common.batches(self.pool, 1, np.random.default_rng(seed + 1))
        self.now = 0.0

    def setup(self) -> float:
        start = time.perf_counter()
        service = IoTSecurityService(
            random_state=common.MODEL_SEED, endpoint_directory=common.endpoint_directory()
        )
        service.train(common.registry_from(self.lab["base"], common.ALL_TYPES))
        self.service = service
        self._new_home()
        elapsed = time.perf_counter() - start
        self.digests.add(common.model_digest(service.identifier, self.lab["base"]))
        return elapsed

    def _new_home(self) -> None:
        """A fresh gateway, with its always-present trusted LAN peer."""
        gateway = SecurityGateway(DirectTransport(self.service))
        gateway.attach_device(common.PEER_MAC, interface="eth0")
        gateway.preauthorize(common.PEER_MAC, IsolationLevel.TRUSTED)
        self.gateway, self.arrivals = gateway, 0

    def run(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.arrivals == self.HOUSEHOLD:
                self._new_home()
            self.arrivals += 1
            (device,) = next(self.stream)
            try:
                self._arrive(device)
            except Exception as exc:  # noqa: BLE001 - counted; the next home starts clean
                self.checks.op(f"{device['mac']}: {type(exc).__name__}: {exc}")
                self._new_home()
            self._maybe_enroll()

    def _arrive(self, device: dict) -> None:
        """Attach, profile, identify, send data, detach: one device's visit."""
        gateway, mac, base = self.gateway, device["mac"], self.now
        gateway.attach_device(mac, now=base)
        for timestamp, frame in device["setup"]:
            gateway.process_frame(mac, frame, base + timestamp)
        last = base + device["setup"][-1][0]
        start = clock()
        directive = gateway.finish_profiling(mac, now=last)
        self._record(device, directive, clock() - start)
        if directive is not None:
            self._send_data(device, directive, last + 1.0)
        gateway.detach_device(mac, now=last + 2.0)
        self.now = last + 10.0

    def _send_data(self, device: dict, directive, now: float) -> None:
        """Each data flow: a new flow, then repeats on the installed rule."""
        gateway, mac = self.gateway, device["mac"]
        sends = [(kind, ip, frame) for kind, ip, frame in device["data"]]
        start = clock()
        results = [
            gateway.process_frame(mac, frame, now)
            for _, _, frame in sends
            for _ in range(common.FLOW_SENDS)
        ]
        self.data_ns += clock() - start
        self.data_frames += len(results)
        level = directive.level
        for i, result in enumerate(results):
            kind, ip, _ = sends[i // common.FLOW_SENDS]
            allowed = level is IsolationLevel.TRUSTED or (
                kind == "cloud"
                and level is IsolationLevel.RESTRICTED
                and ip in directive.permitted_endpoints
            )
            ok = result.delivered if allowed else result.dropped
            self.checks.op(
                None if ok else f"{mac} {kind} frame at {level.value}: "
                f"{'dropped' if result.dropped else 'forwarded'}"
            )

    def info(self) -> dict:
        seconds = self.data_ns / 1e9
        return {
            "fwd_pkts_per_s": self.data_frames / seconds if seconds else 0.0,
            "fwd_frames": self.data_frames,
        }


class IoTSSPBank(Workload):
    """Four IoTSSP shards; batches of 16 fingerprints across all 27 types."""

    name = "iotssp_bank"
    SHARDS = 4
    BATCH = 16
    #: Each enrolment trains all four shards, so fewer, further apart.
    ENROLLS = 12
    ENROLL_EVERY = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = common.batches(self.pool, self.BATCH, np.random.default_rng(seed + 1))
        self.stores: list = []

    def setup(self) -> float:
        root = common.CACHE_DIR / "work" / f"store-{len(self.stores)}"
        shutil.rmtree(root, ignore_errors=True)
        self.stores.append(root)
        start = time.perf_counter()
        front = ShardedSecurityService(
            self.SHARDS,
            store=ModelStore(root),
            random_state=common.MODEL_SEED,
            endpoint_directory=common.endpoint_directory(),
        )
        front.train(common.registry_from(self.lab["base"], common.ALL_TYPES))
        elapsed = time.perf_counter() - start
        if front.cache_hits != self.SHARDS - 1:
            self.checks.op(f"warm start: {front.cache_hits} cache hits")
        for shard in front.shards.values():
            self.digests.add(common.model_digest(shard.identifier, self.lab["base"]))
        self.service = front
        return elapsed

    def run(self, deadline: float) -> None:
        front = self.service
        while time.perf_counter() < deadline:
            batch = next(self.stream)
            reports = [FingerprintReport(fingerprint=_fresh(d)) for d in batch]
            start = clock()
            try:
                directives = front.handle_reports(reports)
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                for device in batch:
                    self.checks.op(f"{device['mac']}: {type(exc).__name__}: {exc}")
                continue
            latency = clock() - start
            if len(directives) != len(batch):
                for device in batch:
                    self.checks.op(f"{len(directives)} directives for {len(batch)} reports")
                continue
            for device, directive in zip(batch, directives):
                self._record(device, directive, latency)
            self._maybe_enroll()

    def identifiers(self) -> list:
        return [shard.identifier for shard in self.service.shards.values()]

    def close(self) -> None:
        for root in self.stores:
            shutil.rmtree(root, ignore_errors=True)


class _ServerChild:
    """The ``perfbench.server`` process and its stdin/stdout command line."""

    #: Span ids of child ``n`` start at ``(n + 1) * ID_STRIDE``.
    ID_STRIDE = 10**12

    def __init__(self, trace_out: str = "", index: int = 0) -> None:
        env = {**os.environ, "PYTHONPATH": f"{common.ROOT / 'src'}:{common.ROOT}"}
        command = [sys.executable, "-m", "perfbench.server"]
        if trace_out:
            command += ["--trace-out", trace_out, "--id-base", str((index + 1) * self.ID_STRIDE)]
        self.process = subprocess.Popen(
            command,
            cwd=common.ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.stop()
            raise RuntimeError(f"server child failed to start: {line}")
        self.base_url = f"http://127.0.0.1:{line[1]}"

    def command(self, text: str) -> str:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline().strip()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class IoTSSPHttp(Workload):
    """The HTTP server child; one gateway thread reads, one admin thread enrols."""

    name = "iotssp_http"
    SWEEP = 8
    ENROLL_EVERY = 180

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reads_pool = [d for d in self.pool if d["type"] in common.BASE_HTTP_TYPES]
        self.stream = common.batches(
            self.reads_pool, self.SWEEP, np.random.default_rng(seed + 1)
        )
        self.child: _ServerChild | None = None
        self.trace_files: list[str] = []
        self._permits = threading.Semaphore(0)
        self._admin: threading.Thread | None = None
        self._admin_done = threading.Event()
        self._enroll_problems: list[str] = []
        self._next_permit = self.ENROLL_EVERY

    def setup(self) -> float:
        if self.child is not None:
            self.child.stop()
            self.child = None
        index, trace_out = len(self.trace_files), ""
        if self.tracing:
            trace_out = str(common.CACHE_DIR / "work" / f"server-{index}.jsonl")
            self.trace_files.append(trace_out)
        start = time.perf_counter()
        self.child = _ServerChild(trace_out, index)
        health = HttpTransport(self.child.base_url).request_json("GET", "/healthz")
        elapsed = time.perf_counter() - start
        if health.get("status") != "ok":
            self.checks.op(f"healthz: {health}")
        self.digests.add(self.child.command("digest"))
        transport = ResilientTransport(
            HttpTransport(self.child.base_url, gateway_id="gw-reads"), clock=SystemClock()
        )
        self.gateway = SecurityGateway(transport)
        return elapsed

    def set_remote_tracing(self, on: bool) -> None:
        if self.tracing and self.child is not None:
            self.child.command("trace on" if on else "trace off")

    def run(self, deadline: float) -> None:
        sentinel = self.gateway.sentinel
        while time.perf_counter() < deadline:
            batch = next(self.stream)
            events = [
                MonitorEvent(
                    device_mac=d["mac"], fingerprint=_fresh(d), packet_count=0, mode="setup"
                )
                for d in batch
            ]
            start = clock()
            directives = sentinel.process_batch(events, now=time.monotonic())
            latency = clock() - start
            for device in batch:
                directive = directives.get(device["mac"])
                self._record(device, directive, latency)
                sentinel.forget(device["mac"])
            if len(directives) != len(batch):
                self.checks.op(f"{len(directives)} directives for {len(batch)} reports")
            while self.ids >= self._next_permit and self._admin is not None:
                self._next_permit += self.ENROLL_EVERY
                self._permits.release()

    def begin(self) -> None:
        self._admin = threading.Thread(target=self._enrol_loop, name="admin", daemon=True)
        self._admin.start()

    def done(self) -> bool:
        return self._admin_done.is_set()

    def end(self) -> None:
        self._admin.join(timeout=120)
        for problem in self._enroll_problems:
            self.checks.op(problem)
        for _ in range(len(self.enroll_ns)):
            self.checks.op(None)

    def _enrol_loop(self) -> None:
        """Admin thread: ``POST /v1/types`` once per read-progress step."""
        host, port = self.child.base_url.removeprefix("http://").split(":")
        try:
            for label in common.ENROLL_LABELS[: self.ENROLLS]:
                self._permits.acquire()
                body = json.dumps(
                    {
                        "label": label,
                        "fingerprints": [
                            fingerprint_to_dict(fp)
                            for fp in common.fresh_fingerprints(self.lab["enroll"][label])
                        ],
                    }
                ).encode()
                connection = http.client.HTTPConnection(host, int(port), timeout=60)
                try:
                    start = clock()
                    connection.request(
                        "POST",
                        "/v1/types",
                        body=body,
                        headers={"Content-Type": "application/json", "X-Gateway-Id": "gw-admin"},
                    )
                    response = connection.getresponse()
                    response.read()
                    elapsed = clock() - start
                finally:
                    connection.close()
                if response.status == 201:
                    self.enroll_ns.append(elapsed)
                else:
                    self._enroll_problems.append(f"enrol {label}: HTTP {response.status}")
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            self._enroll_problems.append(f"admin thread: {type(exc).__name__}: {exc}")
        finally:
            self._admin_done.set()

    def verify(self) -> None:
        """The server's verdicts equal an in-process replica's on a fixed sample."""
        replica = IoTSecurityService(
            random_state=common.MODEL_SEED, endpoint_directory=common.endpoint_directory()
        )
        replica.train(common.registry_from(self.lab["base"], common.BASE_HTTP_TYPES))
        for label in common.ENROLL_LABELS[: len(self.enroll_ns)]:
            replica.enroll_type(label, common.fresh_fingerprints(self.lab["enroll"][label]))
        sample = self.pool[:256]
        reports = [FingerprintReport(fingerprint=_fresh(d)) for d in sample]
        try:
            remote = HttpTransport(self.child.base_url, gateway_id="gw-verify").submit_many(reports)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            self.checks.op(f"verify: {type(exc).__name__}: {exc}")
            return
        local = replica.handle_reports(reports)
        for device, mine, theirs in zip(sample, local, remote):
            same = (mine.device_type, mine.level, mine.permitted_endpoints) == (
                theirs.device_type,
                theirs.level,
                theirs.permitted_endpoints,
            )
            self.checks.op(
                None if same else f"verify {device['mac']}: server says "
                f"{theirs.device_type}, in-process {mine.device_type}"
            )

    def peak_rss_mb(self) -> float:
        return float(self.child.command("stats"))

    def close(self) -> None:
        if self.child is not None:
            self.child.stop()
            self.child = None


WORKLOADS = {cls.name: cls for cls in (HomeGateway, IoTSSPBank, IoTSSPHttp)}
