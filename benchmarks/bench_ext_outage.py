"""Extension — reporting resilience under an IoTSSP outage (Sect. III-B).

The gateway and the IoT Security Service are separate machines; the
remote path can and does fail. This experiment scripts an outage with
``FaultInjectingTransport`` (N failed submits, then recovery), profiles
three devices through the full gateway pipeline while the service is
down, and measures the degraded-mode story: every device is quarantined
provisionally, no fingerprint report is ever lost, and the simulated
time from setup-phase end to the *final* directive is bounded by the
sweep cadence — not by luck. The retry schedule is asserted
byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

from conftest import write_result

from repro.gateway import SecurityGateway
from repro.packets import builder
from repro.reporting import render_table
from repro.sdn import IsolationLevel
from repro.securityservice import (
    CircuitBreaker,
    DirectTransport,
    FaultInjectingTransport,
    IsolationDirective,
    ManualClock,
    ResilientTransport,
    RetryPolicy,
)

DEVICES = {
    "aa:00:00:00:00:01": "192.168.1.20",
    "aa:00:00:00:00:02": "192.168.1.21",
    "aa:00:00:00:00:03": "192.168.1.22",
}
SWEEP_INTERVAL = 60.0


class CannedService:
    def __init__(self):
        self.reports = []

    def handle_reports(self, reports):
        self.reports.extend(reports)
        return [IsolationDirective(device_type="Dev", level=IsolationLevel.TRUSTED) for _ in reports]


def profile_device(gateway, mac, ip, start):
    frames = [
        builder.dhcp_discover_frame(mac, 1, "dev"),
        builder.arp_probe_frame(mac, ip),
        builder.arp_announce_frame(mac, ip),
        builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "c.example"),
        builder.https_client_hello_frame(mac, gateway.gateway_mac, ip, "52.10.0.1", "c.example"),
    ]
    t = start
    for frame in frames:
        gateway.process_frame(mac, frame, t)
        t += 0.3
    gateway.process_frame(mac, builder.arp_announce_frame(mac, ip), t + 30.0)
    return t + 30.0


def run_outage(*, failures, seed):
    clock = ManualClock()
    service = CannedService()
    transport = ResilientTransport(
        FaultInjectingTransport.failing(DirectTransport(service), failures, clock=clock),
        policy=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.1),
        seed=seed,
        clock=clock,
        breaker=CircuitBreaker(failure_threshold=4, reset_timeout=30.0, half_open_successes=1),
    )
    gateway = SecurityGateway(transport)
    now = 0.0
    profiled_at = {}
    for mac, ip in DEVICES.items():
        gateway.attach_device(mac)
        now = profile_device(gateway, mac, ip, now + 1.0)
        profiled_at[mac] = now
    recovered_at = {}
    sweeps = 0
    while gateway.sentinel.pending_reports and sweeps < 20:
        now += SWEEP_INTERVAL
        sweeps += 1
        for mac in gateway.refresh_directives(now):
            recovered_at.setdefault(mac, now)
    return gateway, service, transport, profiled_at, recovered_at, sweeps


def test_ext_outage_recovery(benchmark):
    gateway, service, transport, profiled_at, recovered_at, sweeps = run_outage(
        failures=6, seed=7
    )

    # Zero lost reports: every device recovered to the final directive,
    # exactly one accepted report each, nothing left queued.
    assert gateway.sentinel.pending_reports == {}
    assert len(service.reports) == len(DEVICES)
    assert sweeps >= 1
    for mac in DEVICES:
        directive = gateway.directive_for(mac)
        assert directive is not None and not directive.provisional
        assert gateway.isolation_level(mac) is IsolationLevel.TRUSTED

    # The retry schedule is a pure function of the seed.
    _, _, again, _, _, _ = run_outage(failures=6, seed=7)
    assert transport.backoff_log == again.backoff_log
    assert transport.backoff_log, "the outage must actually force retries"

    benchmark(lambda: run_outage(failures=6, seed=7))

    rows = [
        [
            mac,
            f"{profiled_at[mac]:.1f}",
            f"{recovered_at[mac]:.1f}",
            f"{recovered_at[mac] - profiled_at[mac]:.1f}",
        ]
        for mac in DEVICES
    ]
    rows.append(
        [
            "(transport)",
            f"attempts={transport.attempts}",
            f"retries={len(transport.backoff_log)}",
            f"sweeps={sweeps}",
        ]
    )
    table = render_table(
        ["Device", "Quarantined at (s)", "Final directive at (s)", "Degraded for (s)"],
        rows,
    )
    write_result("ext_outage.txt", table)
