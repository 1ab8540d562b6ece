"""Model-based test of the gateway's reporting lifecycle.

A hypothesis state machine drives a batch-profiling ``SecurityGateway``
over ``ResilientTransport`` → ``FaultInjectingTransport`` → a 3-shard
``ShardedSecurityService`` through random interleavings of attach,
profile-and-drain (real setup dialogues of the trained types), scripted
transport faults, shard kills and revivals, vulnerability disclosures
(which change a type's level), refresh sweeps and detaches.  After every
step it checks the invariants degraded mode promises
(``docs/robustness.md``):

* each profiled device has exactly one directive, and no other device has one;
* nothing passes default-deny unless it holds a non-provisional
  directive or a provisional STRICT one, and the enforcement state
  (rule cache, overlay) matches that directive;
* no pending report is lost: the queue holds exactly the provisional
  devices, each with its own fingerprint;
* the audit log agrees: each profiled device's latest directive event
  is the one its current directive implies.

Derandomized, so CI replays the same examples on every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.devices import DEVICE_PROFILES, NetworkEnvironment, TrafficGenerator
from repro.gateway import AuditEventType, SecurityGateway
from repro.sdn import IsolationLevel
from repro.securityservice import (
    CircuitBreaker,
    DirectTransport,
    Fault,
    FaultInjectingTransport,
    ManualClock,
    ResilientTransport,
    RetryPolicy,
    ShardedSecurityService,
    VulnerabilityRecord,
    seed_database,
)

MAX_DEVICES = 10

FAULTS = st.sampled_from(
    [Fault.error(), Fault.timeout(), Fault.fatal(), Fault.latency_spike(9.0), Fault.ok()]
)

#: The audit events that set a device's directive, newest last.
DIRECTIVE_EVENTS = (
    AuditEventType.DIRECTIVE_RECEIVED,
    AuditEventType.DIRECTIVE_PROVISIONAL,
    AuditEventType.DIRECTIVE_REFRESHED,
)


def setup_records(profile, mac, seed):
    """One run of a device type's setup dialogue, as timestamped frames."""
    generator = TrafficGenerator(
        mac,
        profile.dialogue,
        env=NetworkEnvironment(),
        port_base=profile.port_base,
        rng=np.random.default_rng(seed),
    )
    return generator.run(0.0)


class ReportingLifecycle(RuleBasedStateMachine):
    def __init__(self, front: ShardedSecurityService, profiles) -> None:
        super().__init__()
        # The trained front is shared between examples; give each one all
        # shards up and a fresh vulnerability database.
        for shard_id in front.shard_ids():
            front.revive_shard(shard_id)
        front.service.vulndb = front.service.incidents.vulndb = seed_database()
        self.front = front
        self.profiles = profiles
        self.disclosures = 0
        self.clock = ManualClock()
        self.faulty = FaultInjectingTransport(DirectTransport(front), clock=self.clock)
        self.transport = ResilientTransport(
            self.faulty,
            policy=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.1),
            seed=7,
            clock=self.clock,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=30.0, half_open_successes=1),
        )
        self.gateway = SecurityGateway(self.transport, batch_profiling=True)
        self.now = 0.0
        self.minted = 0
        self.types: dict[str, object] = {}
        self.unprofiled: list[str] = []
        self.profiled: set[str] = set()

    # --- rules -------------------------------------------------------------

    def _attach(self, data):
        mac = f"aa:00:00:00:00:{self.minted + 1:02x}"
        self.types[mac] = data.draw(st.sampled_from(self.profiles), label="type")
        self.minted += 1
        self.now += 1.0
        self.gateway.attach_device(mac, now=self.now)
        self.unprofiled.append(mac)
        return mac

    @precondition(lambda self: self.minted < MAX_DEVICES)
    @rule(data=st.data())
    def attach(self, data):
        self._attach(data)

    @precondition(lambda self: self.unprofiled or self.minted < MAX_DEVICES)
    @rule(data=st.data(), arrivals=st.integers(0, 3))
    def profile_and_drain(self, data, arrivals):
        """Profile some waiting devices plus a few new arrivals, then drain once."""
        chosen = [self._attach(data) for _ in range(min(arrivals, MAX_DEVICES - self.minted))]
        waiting = [mac for mac in self.unprofiled if mac not in chosen]
        if waiting:
            chosen += data.draw(st.lists(st.sampled_from(waiting), unique=True), label="devices")
        if not chosen:
            return
        for mac in chosen:
            records = setup_records(self.types[mac], mac, seed=int(mac[-2:], 16))
            start = self.now
            for record in records:
                self.now = start + record.timestamp
                self.gateway.process_frame(mac, record.data, self.now)
            # An idle gap, then one more frame, closes the session.
            self.now += 30.0
            self.gateway.process_frame(mac, records[-1].data, self.now)
            self.unprofiled.remove(mac)
        assert set(self.gateway.drain_profiling(self.now)) == set(chosen)
        self.profiled.update(chosen)

    @rule(faults=st.lists(FAULTS, min_size=1, max_size=6))
    def inject_faults(self, faults):
        self.faulty.schedule.extend(faults)

    @rule(index=st.integers(0, 2))
    def kill_shard(self, index):
        self.front.kill_shard(self.front.shard_ids()[index])

    @rule(index=st.integers(0, 2))
    def revive_shard(self, index):
        self.front.revive_shard(self.front.shard_ids()[index])

    @rule(data=st.data())
    def disclose_vulnerability(self, data):
        profile = data.draw(st.sampled_from(self.profiles), label="type")
        self.disclosures += 1
        self.front.vulndb.add(
            VulnerabilityRecord(f"TEST-{self.disclosures}", profile.identifier, "disclosed", 7.5, 2017)
        )

    @rule(advance=st.floats(0.0, 400.0), force=st.booleans())
    def refresh_sweep(self, advance, force):
        self.now += advance
        self.gateway.refresh_directives(self.now, force=force)

    @precondition(lambda self: self.gateway.attached_macs)
    @rule(data=st.data())
    def detach(self, data):
        mac = data.draw(st.sampled_from(self.gateway.attached_macs), label="device")
        self.now += 1.0
        self.gateway.detach_device(mac, now=self.now)
        self.profiled.discard(mac)
        if mac in self.unprofiled:
            self.unprofiled.remove(mac)

    # --- invariants ----------------------------------------------------------

    @invariant()
    def one_directive_per_profiled_device(self):
        assert set(self.gateway.sentinel.directives) == self.profiled

    @invariant()
    def default_deny_holds(self):
        directives = self.gateway.sentinel.directives
        for mac in self.gateway.attached_macs:
            rule = self.gateway.rule_cache.lookup(mac)
            directive = directives.get(mac)
            if directive is None:
                assert rule is None and self.gateway.isolation_level(mac) is None
                continue
            assert not directive.provisional or directive.level is IsolationLevel.STRICT
            assert rule is not None and rule.level is directive.level
            assert self.gateway.isolation_level(mac) is directive.level

    @invariant()
    def no_pending_report_lost(self):
        sentinel = self.gateway.sentinel
        provisional = {mac for mac, d in sentinel.directives.items() if d.provisional}
        assert set(sentinel.pending_reports) == provisional
        for mac, pending in sentinel.pending_reports.items():
            assert pending.fingerprint.device_mac == mac
        assert self.gateway.pending_report_count == len(provisional)

    @invariant()
    def audit_log_agrees(self):
        latest = {}
        for event in self.gateway.audit.all():
            if event.event_type in DIRECTIVE_EVENTS:
                latest[event.device_mac] = event
            elif event.event_type is AuditEventType.DEVICE_DETACHED:
                latest.pop(event.device_mac, None)
        assert set(latest) == self.profiled
        for mac, directive in self.gateway.sentinel.directives.items():
            event = latest[mac]
            if directive.provisional:
                assert event.event_type is AuditEventType.DIRECTIVE_PROVISIONAL
            elif event.event_type is AuditEventType.DIRECTIVE_RECEIVED:
                assert f"level={directive.level.value}" in event.detail
            else:
                assert event.event_type is AuditEventType.DIRECTIVE_REFRESHED
                assert event.detail.endswith(f"-> {directive.level.value}")


@pytest.fixture(scope="module")
def front(small_registry):
    service = ShardedSecurityService(3, random_state=11)
    service.train(small_registry)
    return service


def test_reporting_lifecycle(front, small_registry):
    profiles = [p for p in DEVICE_PROFILES if p.identifier in small_registry.labels]
    run_state_machine_as_test(
        lambda: ReportingLifecycle(front, profiles),
        settings=settings(
            max_examples=150,
            stateful_step_count=25,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
