"""The IoT Sentinel controller module (the paper's custom Floodlight module).

Responsibilities per Sect. V: network monitoring, fingerprint generation,
communication with the IoT Security Service, and generation + enforcement
of per-device isolation rules.  It sits first in the controller module
chain; packets it does not claim fall through to plain L2 forwarding.

Enforcement strategy: while a device is being profiled its traffic is
forwarded normally but *no flow rules are installed*, so every packet
keeps reaching the controller (that is the monitoring tap).  Once the
IoTSSP returns an isolation level, each new flow triggers a policy check
against the overlay manager and a specific allow- or drop-rule is pushed
down, so subsequent packets of the flow are handled entirely in the data
plane — "for any given flow, there is only one matching enforcement rule".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import names as obs_names
from repro.obs import span as obs_span
from repro.sdn.controller import Controller, ControllerModule, Decision
from repro.sdn.openflow import Action, FlowMatch, FlowRule, PacketIn
from repro.sdn.overlay import IsolationLevel, OverlayManager, PolicyDecision
from repro.sdn.rules import EnforcementRule, EnforcementRuleCache
from repro.securityservice.protocol import FingerprintReport, IsolationDirective, Transport
from repro.securityservice.resilience import CircuitOpenError

from .audit import AuditEventType, AuditLog
from .monitor import DeviceMonitor, MonitorEvent

__all__ = ["UserNotification", "PendingReport", "SentinelModule", "install_enforcement"]


def install_enforcement(
    rule_cache: EnforcementRuleCache, overlays: OverlayManager, mac: str, level: IsolationLevel,
    endpoints: frozenset[str] | set[str],
) -> None:
    """Enforce ``level`` for ``mac`` (rule cache + overlay); only a RESTRICTED
    device keeps its allow-list of ``endpoints``."""
    allowed = frozenset(endpoints) if level is IsolationLevel.RESTRICTED else frozenset()
    rule_cache.insert(EnforcementRule(device_mac=mac, level=level, permitted_ips=allowed))
    overlays.assign(mac, level, allowed)


#: Priority band for enforcement rules (above the learning switch's 10).
_ENFORCE_PRIORITY = 100
#: Idle timeout for installed per-flow rules, seconds.
_FLOW_IDLE_TIMEOUT = 60.0
#: TTL of gateway-minted provisional quarantine directives: short, so a
#: recovered service is consulted promptly even without a retry sweep.
_PROVISIONAL_TTL = 300.0
#: Placeholder type for devices quarantined before identification.
_PROVISIONAL_TYPE = "unidentified"


@dataclass(frozen=True)
class UserNotification:
    """Surfaced to the user for devices needing manual attention (III-C3)."""

    device_mac: str
    device_type: str
    message: str


@dataclass
class PendingReport:
    """A fingerprint the IoTSSP has not accepted yet (degraded mode).

    Created when a submit fails after profiling completes; the device
    sits under a provisional STRICT directive and :meth:`SentinelModule
    .retry_pending` re-submits the stored fingerprint until the service
    recovers.  The report is never dropped.
    """

    device_mac: str
    fingerprint: object
    queued_at: float
    attempts: int = 1
    last_error: str = ""


class SentinelModule(ControllerModule):
    """Monitoring + identification + enforcement, as one controller module."""

    name = "iot-sentinel"

    def __init__(
        self,
        *,
        monitor: DeviceMonitor,
        transport: Transport,
        overlays: OverlayManager,
        rule_cache: EnforcementRuleCache,
        wan_port: int,
        gateway_macs: set[str] | None = None,
        notify: Callable[[UserNotification], None] | None = None,
        audit: AuditLog | None = None,
        provisional_ttl: float = _PROVISIONAL_TTL,
    ) -> None:
        self.monitor = monitor
        self.transport = transport
        self.provisional_ttl = provisional_ttl
        self.overlays = overlays
        self.rule_cache = rule_cache
        self.wan_port = wan_port
        self.gateway_macs = set(gateway_macs or ())
        self.notify = notify
        self.audit = audit if audit is not None else AuditLog()
        self.directives: dict[str, IsolationDirective] = {}
        self.notifications: list[UserNotification] = []
        self.policy_denials = 0
        self._fingerprints: dict[str, object] = {}  # mac -> Fingerprint
        self._directive_times: dict[str, float] = {}
        #: MAC -> leased IPv4 address, learned by DHCP snooping.  Used for
        #: source-address validation: a compromised device cannot spoof
        #: another host's address past the gateway.
        self.ip_bindings: dict[str, str] = {}
        self.spoof_drops = 0
        #: Devices the user was told to remove (Sect. III-C3).  The gateway
        #: watches for further traffic to verify removal actually happened.
        self.removal_pending: dict[str, float] = {}  # mac -> last seen
        #: Fingerprints awaiting IoTSSP acceptance (degraded mode).
        self.pending_reports: dict[str, PendingReport] = {}
        self.degraded_directives = 0
        self.reports_recovered = 0

    # --- profiling lifecycle ------------------------------------------------

    def _report(
        self, fingerprints: dict[str, object], now: float
    ) -> dict[str, IsolationDirective | Exception]:
        """Submit fingerprints (MAC → fingerprint) in as few exchanges as possible.

        The whole batch goes out as one ``transport.submit_many``.  A
        batch that still fails after the transport's own retries is
        bisected and each half resubmitted, down to single reports, so a
        report the service rejects fails only its own device.  A
        :class:`CircuitOpenError` stops the bisection: the breaker refused
        the exchange, so every device not yet answered fails with it and
        no further attempts are made.  Returns each MAC's directive, or
        the exception that failed it, in input order.
        """
        outcomes: dict[str, IsolationDirective | Exception] = {}
        chunks = [list(fingerprints.items())] if fingerprints else []
        while chunks:
            chunk = chunks.pop()
            reports = [FingerprintReport(fingerprint=fp) for _, fp in chunk]
            try:
                answers = self.transport.submit_many(reports, now=now)
            except CircuitOpenError as exc:
                # The breaker refused the exchange: fail everything unanswered.
                return {mac: outcomes.get(mac, exc) for mac in fingerprints}
            except Exception as exc:  # degraded mode — classified upstream
                if len(chunk) == 1:
                    outcomes[chunk[0][0]] = exc
                else:
                    half = len(chunk) // 2
                    chunks += (chunk[half:], chunk[:half])  # left half first
                continue
            outcomes.update(zip((mac for mac, _ in chunk), answers))
        return {mac: outcomes[mac] for mac in fingerprints}

    def _apply_directive(self, mac: str, directive: IsolationDirective, now: float) -> None:
        """Install a directive's enforcement state (rule cache + overlay)."""
        self.directives[mac] = directive
        self._directive_times[mac] = now
        install_enforcement(self.rule_cache, self.overlays, mac, directive.level, directive.permitted_endpoints)

    def _accept_directive(self, mac: str, directive: IsolationDirective, now: float) -> None:
        """A real service response: enforce it, audit it, notify if STRICT."""
        self._apply_directive(mac, directive, now)
        self.audit.record(
            now,
            AuditEventType.DIRECTIVE_RECEIVED,
            mac,
            f"type={directive.device_type} level={directive.level.value}",
        )
        if directive.level is IsolationLevel.STRICT and self.notify is not None:
            notification = UserNotification(
                device_mac=mac,
                device_type=directive.device_type,
                message=(
                    "Device could not be identified as a known safe type; "
                    "it has been placed in strict isolation. If it has "
                    "side channels (Bluetooth/LTE), remove it from the network."
                ),
            )
            self.notifications.append(notification)
            self.audit.record(now, AuditEventType.USER_NOTIFIED, mac, notification.message)
            self.notify(notification)

    def _enter_degraded(self, mac: str, now: float, exc: Exception) -> IsolationDirective:
        """Submit failed: quarantine provisionally and queue the report.

        The paper's default-deny posture for unidentified devices: until
        the IoTSSP answers, the device gets a STRICT directive marked
        ``provisional=True`` with a short TTL, and its fingerprint joins
        the pending-report queue for :meth:`retry_pending`.
        """
        directive = IsolationDirective(
            device_type=_PROVISIONAL_TYPE,
            level=IsolationLevel.STRICT,
            ttl_seconds=self.provisional_ttl,
            provisional=True,
        )
        if mac not in self.pending_reports:
            self.pending_reports[mac] = PendingReport(
                device_mac=mac,
                fingerprint=self._fingerprints[mac],
                queued_at=now,
                last_error=f"{type(exc).__name__}: {exc}",
            )
        self.degraded_directives += 1
        obs_counter(obs_names.METRIC_DEGRADED_DIRECTIVES).inc()
        obs_gauge(obs_names.METRIC_PENDING_REPORTS).set(float(len(self.pending_reports)))
        self._apply_directive(mac, directive, now)
        self.audit.record(
            now,
            AuditEventType.DIRECTIVE_PROVISIONAL,
            mac,
            f"IoTSSP unreachable ({type(exc).__name__}); strict quarantine pending retry",
        )
        return directive

    def _settle(
        self, mac: str, outcome: IsolationDirective | Exception, now: float
    ) -> IsolationDirective:
        """Enforce a submit's outcome: the answer, or degraded quarantine."""
        if isinstance(outcome, Exception):
            return self._enter_degraded(mac, now, outcome)
        self._accept_directive(mac, outcome, now)
        return outcome

    def complete_profiling(self, event: MonitorEvent, now: float = 0.0) -> IsolationDirective:
        """A profiling session finished: report it and enforce the answer.

        A batch of one through the same path as :meth:`process_batch`.
        Never loses work: if the submit fails the fingerprint is queued
        and the returned directive is a provisional STRICT quarantine;
        :meth:`retry_pending` upgrades it once the service recovers.
        """
        mac = event.device_mac
        self._fingerprints[mac] = event.fingerprint
        outcomes = self._report({mac: event.fingerprint}, now)
        return self._settle(mac, outcomes[mac], now)

    def process_batch(
        self, events: list[MonitorEvent], now: float = 0.0
    ) -> dict[str, IsolationDirective]:
        """Report a drained batch of completed profilings in one round trip.

        The whole batch is one ``transport.submit_many`` (one HTTP
        request, one compiled-bank stage-1 pass).  If it fails, the batch
        is bisected (see :meth:`_report`) so each failing device alone
        gets a provisional STRICT quarantine and a pending report.
        Returns the directive enforced per MAC; callers must flush those
        MACs' flow rules so the new policy replaces the pre-drain
        default-deny entries.
        """
        if not events:
            return {}
        with obs_span(obs_names.SPAN_GATEWAY_BATCH, batch=len(events)):
            obs_counter(obs_names.METRIC_GATEWAY_BATCHES).inc()
            for event in events:
                self._fingerprints[event.device_mac] = event.fingerprint
            outcomes = self._report(
                {event.device_mac: event.fingerprint for event in events}, now
            )
            return {mac: self._settle(mac, outcome, now) for mac, outcome in outcomes.items()}

    @property
    def pending_report_count(self) -> int:
        """Reports still queued for re-submission (degraded-mode devices).

        The public form of the ``gateway_pending_reports`` gauge, so
        operators and tests need not poke ``pending_reports`` internals
        to see whether a retry sweep has drained the queue.
        """
        return len(self.pending_reports)

    def retry_pending(self, now: float) -> list[str]:
        """Re-submit queued fingerprints; returns the MACs finalized.

        All queued reports go out as one batch (bisected on failure, see
        :meth:`_report`): a device whose report still fails stays queued
        and the rest are finalized.  Callers must flush the returned
        MACs' flow rules so the upgraded policy applies.
        """
        macs = sorted(self.pending_reports)
        outcomes = self._report(
            {mac: self.pending_reports[mac].fingerprint for mac in macs}, now
        )
        recovered: list[str] = []
        for mac in macs:
            pending, outcome = self.pending_reports[mac], outcomes[mac]
            if isinstance(outcome, Exception):
                pending.attempts += 1
                pending.last_error = f"{type(outcome).__name__}: {outcome}"
                continue
            del self.pending_reports[mac]
            self.reports_recovered += 1
            obs_counter(obs_names.METRIC_REPORT_RECOVERIES).inc()
            self.audit.record(
                now,
                AuditEventType.REPORT_RECOVERED,
                mac,
                f"accepted after {pending.attempts} failed submit(s); "
                f"type={outcome.device_type} level={outcome.level.value}",
            )
            self._accept_directive(mac, outcome, now)
            recovered.append(mac)
        obs_gauge(obs_names.METRIC_PENDING_REPORTS).set(float(len(self.pending_reports)))
        return recovered

    def forget(self, mac: str) -> None:
        """Drop all per-device state (the device was detached)."""
        self.directives.pop(mac, None)
        self._fingerprints.pop(mac, None)
        self._directive_times.pop(mac, None)
        self.ip_bindings.pop(mac, None)
        self.removal_pending.pop(mac, None)
        if self.pending_reports.pop(mac, None) is not None:
            obs_gauge(obs_names.METRIC_PENDING_REPORTS).set(float(len(self.pending_reports)))

    def request_removal(self, mac: str, now: float = 0.0) -> None:
        """Mark a device as pending physical removal by the user.

        From then on any traffic from the device proves it is still
        present; :meth:`removal_verified` answers whether it has gone
        quiet for the requested interval.
        """
        self.removal_pending[mac] = now

    def removal_verified(self, mac: str, now: float, *, quiet_for: float = 300.0) -> bool:
        """Has the device stayed silent long enough to count as removed?"""
        last_seen = self.removal_pending.get(mac)
        if last_seen is None:
            raise KeyError(f"{mac} has no pending removal")
        return now - last_seen >= quiet_for

    def refresh_directives(self, now: float, *, force: bool = False) -> list[str]:
        """Re-query the IoTSSP for devices whose directive TTL expired.

        Implements Sect. V's "this information can be updated by regular
        update queries to the IoT Security Service".  Returns the MACs
        whose isolation level or allow-list actually changed; their flow
        rules must be flushed by the caller so new policy takes effect.
        """
        due: dict[str, object] = {}
        for mac, directive in self.directives.items():
            if mac in self.pending_reports:
                continue  # degraded-mode device: retry_pending owns its submits
            issued = self._directive_times.get(mac, 0.0)
            if not force and now - issued < directive.ttl_seconds:
                continue
            fingerprint = self._fingerprints.get(mac)
            if fingerprint is not None:
                due[mac] = fingerprint
        changed: list[str] = []
        for mac, fresh in self._report(due, now).items():
            if isinstance(fresh, Exception):
                # A failed submit must not abort the sweep: keep the current
                # directive (and its issue time, so the next sweep retries)
                # and move on to the other devices.
                obs_counter(obs_names.METRIC_REFRESH_SKIPPED).inc()
                continue
            directive = self.directives[mac]
            self._directive_times[mac] = now
            if (
                fresh.level is directive.level
                and fresh.permitted_endpoints == directive.permitted_endpoints
            ):
                self.directives[mac] = fresh
                continue
            self.directives[mac] = fresh
            install_enforcement(self.rule_cache, self.overlays, mac, fresh.level, fresh.permitted_endpoints)
            self.audit.record(
                now,
                AuditEventType.DIRECTIVE_REFRESHED,
                mac,
                f"{directive.level.value} -> {fresh.level.value}",
            )
            changed.append(mac)
        return changed

    # --- policy -> flow rules -----------------------------------------------

    def _snoop_dhcp(self, event: PacketIn) -> None:
        """Learn MAC→IP bindings from DHCP requests (requested-IP option)."""
        packet = event.packet
        if not packet.is_dhcp:
            return
        from repro.packets.dhcp import OPTION_REQUESTED_IP, DHCPMessage

        message = packet.layer(DHCPMessage)
        if message is None:
            return
        requested = message.option(OPTION_REQUESTED_IP)
        if requested and len(requested) == 4:
            self.ip_bindings[message.client_mac] = ".".join(str(b) for b in requested)

    def _is_spoofed(self, packet) -> bool:
        """True when a bound device sends from an address it does not own."""
        binding = self.ip_bindings.get(packet.src_mac)
        if binding is None or packet.src_ip is None:
            return False
        if packet.src_ip in ("0.0.0.0", binding):
            return False
        # Link-local v6 addresses are outside the v4 lease.
        if ":" in packet.src_ip:
            return False
        return True

    def _policy_for(self, event: PacketIn) -> PolicyDecision:
        packet = event.packet
        src = packet.src_mac
        if self._is_spoofed(packet):
            self.spoof_drops += 1
            self.audit.record(
                event.timestamp,
                AuditEventType.SPOOF_DETECTED,
                src,
                f"claimed {packet.src_ip}, bound to {self.ip_bindings.get(src)}",
            )
            return PolicyDecision(False, f"source-address spoofing ({packet.src_ip})")
        rule = self.rule_cache.lookup(src)
        if rule is None:
            return PolicyDecision(False, "no enforcement rule: default-deny")
        # Flow-granular refinements take precedence over the device-level
        # decision (Sect. V: filtering "up to the level of individual flows").
        verdict = rule.flow_verdict(
            is_tcp=packet.is_tcp,
            is_udp=packet.is_udp,
            dst_port=packet.dst_port,
            dst_ip=packet.dst_ip,
        )
        if verdict is not None:
            return PolicyDecision(verdict, "flow policy")
        dst_ip = packet.dst_ip
        if dst_ip is not None and not dst_ip.startswith(self.overlays.local_subnet_prefix):
            if dst_ip.startswith(("224.", "239.", "255.", "ff02:")):
                # Link-local multicast/broadcast stays inside the overlay.
                return PolicyDecision(True, "local multicast")
            return self.overlays.check_internet(src, dst_ip)
        if packet.dst_mac in self.gateway_macs:
            return PolicyDecision(True, "to gateway")
        if packet.dst_mac and packet.dst_mac != "ff:ff:ff:ff:ff:ff":
            return self.overlays.check_device_to_device(src, packet.dst_mac)
        return PolicyDecision(True, "broadcast within overlay")

    def _forward_actions(self, controller: Controller, event: PacketIn) -> tuple[Action, ...]:
        packet = event.packet
        dst_ip = packet.dst_ip
        if dst_ip is not None and not dst_ip.startswith(self.overlays.local_subnet_prefix):
            if not dst_ip.startswith(("224.", "239.", "255.", "ff02:")):
                return (Action.output(self.wan_port),)
        out_port = controller.switch.port_of(packet.dst_mac) if packet.dst_mac else None
        if out_port is None or out_port == event.in_port:
            return (Action.flood(),)
        return (Action.output(out_port),)

    # --- the module hook ------------------------------------------------------

    def on_packet_in(self, controller: Controller, event: PacketIn) -> Decision | None:
        packet = event.packet
        src = packet.src_mac
        if not src or src in self.gateway_macs or event.in_port == self.wan_port:
            return None  # gateway/WAN traffic: let the learning switch handle it
        if src in self.removal_pending:
            # Still transmitting: removal has not happened; refresh the
            # sighting and keep the device fully contained.
            self.removal_pending[src] = event.timestamp
            return Decision(actions=(Action.drop(),))
        self._snoop_dhcp(event)
        monitor_event = self.monitor.observe(event.timestamp, packet)
        if monitor_event is not None:
            self.complete_profiling(monitor_event, now=event.timestamp)
        if self.monitor.is_profiling(src) or not self.monitor.is_profiled(src):
            # Still profiling: forward, but keep the controller in the path.
            return Decision(actions=self._forward_actions(controller, event))
        decision = self._policy_for(event)
        # ip_src is pinned so a later source-spoofed packet cannot ride an
        # allow rule installed for the device's legitimate address.
        match = FlowMatch(
            eth_src=src,
            eth_dst=packet.dst_mac or None,
            ip_src=packet.src_ip,
            ip_dst=packet.dst_ip,
            tp_dst=packet.dst_port,
        )
        if decision.allowed:
            actions = self._forward_actions(controller, event)
        else:
            self.policy_denials += 1
            self.audit.record(
                event.timestamp,
                AuditEventType.FLOW_DENIED,
                src,
                f"dst={packet.dst_ip or packet.dst_mac} reason={decision.reason}",
            )
            actions = (Action.drop(),)
        rule = FlowRule(
            match=match,
            actions=actions,
            priority=_ENFORCE_PRIORITY,
            idle_timeout=_FLOW_IDLE_TIMEOUT,
        )
        return Decision(actions=actions, install=(rule,))
