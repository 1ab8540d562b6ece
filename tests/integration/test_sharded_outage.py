"""Shard outage through the full gateway pipeline: zero lost fingerprints.

The sharded acceptance scenario: one replica of a 3-shard IoTSSP dies
mid-rollout.  Devices routed to the dead shard fall into degraded mode
(pending queue + provisional STRICT quarantine); devices on live shards
are untouched; cross-shard directive lookups keep answering throughout.
After ``revive_shard`` the retry sweep upgrades every quarantined device
— no fingerprint is lost even when scripted transport faults overlap the
shard outage.
"""

from __future__ import annotations

import pytest

from repro.gateway import AuditEventType, SecurityGateway
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import (
    CircuitBreaker,
    DirectTransport,
    FaultInjectingTransport,
    ManualClock,
    ResilientTransport,
    RetryPolicy,
    ShardedSecurityService,
)

SEED = 7


def build_front(small_registry, *, num_shards=3):
    front = ShardedSecurityService(num_shards, random_state=11)
    front.train(small_registry)
    return front


def build_stack(front, *, failures=0):
    """Gateway → resilient stack → scripted injector → sharded IoTSSP."""
    clock = ManualClock()
    faulty = FaultInjectingTransport.failing(DirectTransport(front), failures, clock=clock)
    transport = ResilientTransport(
        faulty,
        policy=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.1),
        seed=SEED,
        clock=clock,
        # High threshold: the breaker must not open from one shard's
        # failures and take the live shards' devices down with it.
        breaker=CircuitBreaker(failure_threshold=64, reset_timeout=30.0, half_open_successes=1),
    )
    return SecurityGateway(transport), transport


def partition_macs(front, *, per_side=3):
    """Device MACs split by ring route: victim-shard owned vs. elsewhere."""
    victim = front.ring.route("aa:00:00:00:00:01")
    on_victim, elsewhere = [], []
    for index in range(1, 64):
        mac = f"aa:00:00:00:00:{index:02x}"
        (on_victim if front.ring.route(mac) == victim else elsewhere).append(mac)
        if len(on_victim) >= per_side and len(elsewhere) >= per_side:
            break
    assert len(on_victim) >= per_side and len(elsewhere) >= per_side
    return victim, on_victim[:per_side], elsewhere[:per_side]


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


def run_fleet(gateway, macs, now=0.0):
    for index, mac in enumerate(macs):
        gateway.attach_device(mac)
        now = profile_device(gateway, mac, f"192.168.1.{20 + index}", now + 1.0)
    return now


def sweep_until_drained(gateway, now, *, max_sweeps=10, interval=60.0):
    sweeps = 0
    while gateway.sentinel.pending_reports and sweeps < max_sweeps:
        now += interval
        sweeps += 1
        gateway.refresh_directives(now)
    return now, sweeps


class TestShardOutageIsolation:
    """Killing one shard quarantines only its own devices."""

    def test_only_victim_devices_degrade(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, live_macs = partition_macs(front)
        baseline = {t: front.directive_for_type(t) for t in front.known_types}

        front.kill_shard(victim)
        gateway, _ = build_stack(front)
        now = run_fleet(gateway, live_macs + victim_macs)

        for mac in live_macs:
            directive = gateway.directive_for(mac)
            assert directive is not None and not directive.provisional
        for mac in victim_macs:
            directive = gateway.directive_for(mac)
            assert directive.provisional and directive.level is IsolationLevel.STRICT
        assert set(gateway.sentinel.pending_reports) == set(victim_macs)
        # The held fingerprints are intact, keyed by device — nothing lost.
        for mac in victim_macs:
            assert gateway.sentinel.pending_reports[mac].fingerprint.device_mac == mac

        # Cross-shard lookups keep answering during the outage, including
        # for types whose home shard is the dead one (live-replica fallback).
        for device_type, expected in baseline.items():
            assert front.directive_for_type(device_type) == expected

        front.revive_shard(victim)
        now, sweeps = sweep_until_drained(gateway, now)
        assert sweeps >= 1
        assert gateway.sentinel.pending_reports == {}
        for mac in victim_macs:
            directive = gateway.directive_for(mac)
            assert directive is not None and not directive.provisional
        # Exactly one accepted report per device: none lost, none duplicated.
        assert front.reports_handled == len(live_macs) + len(victim_macs)

    def test_recovery_audited_per_device(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, _ = partition_macs(front)
        front.kill_shard(victim)
        gateway, _ = build_stack(front)
        now = run_fleet(gateway, victim_macs)
        front.revive_shard(victim)
        sweep_until_drained(gateway, now)
        recovered = [
            event.device_mac
            for event in gateway.audit.all()
            if event.event_type is AuditEventType.REPORT_RECOVERED
        ]
        assert sorted(recovered) == sorted(victim_macs)

    def test_unrecovered_outage_holds_quarantine(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, _ = partition_macs(front, per_side=2)
        front.kill_shard(victim)
        gateway, _ = build_stack(front)
        now = run_fleet(gateway, victim_macs)
        now, sweeps = sweep_until_drained(gateway, now, max_sweeps=3)
        assert sweeps == 3  # the sweeps ran but the shard stayed down
        assert set(gateway.sentinel.pending_reports) == set(victim_macs)
        for mac in victim_macs:
            directive = gateway.directive_for(mac)
            assert directive.provisional and directive.level is IsolationLevel.STRICT
        assert front.reports_handled == 0


class TestBatchedSweepOutage:
    """The drain_profiling variant: victim and live devices in one sweep."""

    def test_only_victim_devices_degrade_in_one_sweep(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, live_macs = partition_macs(front)
        front.kill_shard(victim)
        _, transport = build_stack(front)
        gateway = SecurityGateway(transport, batch_profiling=True)
        macs = [mac for pair in zip(live_macs, victim_macs) for mac in pair]
        now = run_fleet(gateway, macs)
        assert gateway.sentinel.directives == {}  # buffered, not yet reported

        directives = gateway.drain_profiling(now)
        assert set(directives) == set(macs)
        for mac in live_macs:
            assert not directives[mac].provisional
        for mac in victim_macs:
            assert directives[mac].provisional
            assert gateway.isolation_level(mac) is IsolationLevel.STRICT
        assert set(gateway.sentinel.pending_reports) == set(victim_macs)
        for mac in victim_macs:
            assert gateway.sentinel.pending_reports[mac].fingerprint.device_mac == mac
        # A down shard fails a batch before any shard serves it, so the
        # live devices' reports were accepted exactly once.
        assert front.reports_handled == len(live_macs)

        front.revive_shard(victim)
        submits = transport.submits
        now, sweeps = sweep_until_drained(gateway, now)
        assert sweeps == 1 and transport.submits == submits + 1  # one batch drains the queue
        assert gateway.sentinel.pending_reports == {}
        for mac in victim_macs:
            assert not gateway.directive_for(mac).provisional
        assert front.reports_handled == len(macs)


class TestComposedFaults:
    """Transport blips overlapping a shard outage still lose nothing."""

    def test_zero_lost_fingerprints(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, live_macs = partition_macs(front)
        front.kill_shard(victim)
        # The first few submits fail at the transport layer too, so some
        # live-shard devices also pass through degraded mode.
        gateway, _ = build_stack(front, failures=3)
        now = run_fleet(gateway, live_macs + victim_macs)
        assert set(victim_macs) <= set(gateway.sentinel.pending_reports)

        front.revive_shard(victim)
        now, sweeps = sweep_until_drained(gateway, now)
        assert sweeps >= 1
        assert gateway.sentinel.pending_reports == {}
        all_macs = live_macs + victim_macs
        for mac in all_macs:
            directive = gateway.directive_for(mac)
            assert directive is not None and not directive.provisional
        # Every device's fingerprint was accepted exactly once.
        assert front.reports_handled == len(all_macs)

    def test_directive_lookup_consistent_after_recovery(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, _ = partition_macs(front, per_side=2)
        front.kill_shard(victim)
        gateway, _ = build_stack(front)
        now = run_fleet(gateway, victim_macs)
        front.revive_shard(victim)
        sweep_until_drained(gateway, now)
        # After recovery every replica answers every lookup identically.
        for device_type in front.known_types:
            expected = front.directive_for_type(device_type)
            for shard in front.shards.values():
                assert shard.directive_for_type(device_type) == expected


class TestOutageVersusDecommission:
    def test_kill_keeps_ring_membership(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, _ = partition_macs(front, per_side=1)
        before = {mac: front.ring.route(mac) for mac in victim_macs}
        front.kill_shard(victim)
        assert victim in front.ring  # outage: no remap
        assert {mac: front.ring.route(mac) for mac in victim_macs} == before
        assert front.down_shards == frozenset({victim})
        front.revive_shard(victim)
        assert front.down_shards == frozenset()

    def test_decommission_remaps_and_serves(self, small_registry):
        front = build_front(small_registry)
        victim, victim_macs, _ = partition_macs(front, per_side=2)
        front.remove_shard(victim)
        assert victim not in front.ring
        gateway, _ = build_stack(front)
        run_fleet(gateway, victim_macs)
        assert gateway.sentinel.pending_reports == {}
        for mac in victim_macs:
            assert not gateway.directive_for(mac).provisional


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
