"""The Security Gateway: the user-premises half of IoT Sentinel.

Wires together the data plane (:class:`~repro.sdn.switch.OpenVSwitch`),
the SDN controller with the Sentinel module, device monitoring, WPS
credential provisioning, the enforcement-rule cache and the overlay
manager (Fig. 1).  Supports a no-filtering mode (plain learning switch)
used as the baseline in the Table V / VI / Fig. 6 experiments.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.sdn.controller import Controller, LearningSwitchModule
from repro.sdn.overlay import IsolationLevel, OverlayManager
from repro.sdn.rules import EnforcementRuleCache
from repro.sdn.switch import ForwardingResult, OpenVSwitch
from repro.securityservice.protocol import IsolationDirective, Transport

from .audit import AuditEventType, AuditLog
from .monitor import DeviceMonitor
from .sentinel_module import SentinelModule, UserNotification, install_enforcement
from .wifi import WPSRegistrar

__all__ = ["AttachedDevice", "SecurityGateway"]

#: The switch port leading to the Internet uplink.
WAN_PORT = 1


@dataclass(frozen=True)
class AttachedDevice:
    """Bookkeeping for one device plugged into / associated with the AP."""

    mac: str
    port: int
    interface: str  # "wifi" or "eth0"


class SecurityGateway:
    """A gateway router running the IoT Sentinel stack.

    Parameters
    ----------
    transport:
        Channel to the IoT Security Service (required when filtering).
    filtering:
        When False, the gateway is a plain learning switch — the paper's
        "without filtering" baseline.
    notify_user:
        Callback for user notifications (mitigation strategy III-C3).
    batch_profiling:
        When True, completed profiling sessions are buffered in the
        monitor and reported in batches by :meth:`drain_profiling` (one
        compiled-bank identification pass per sweep) instead of one
        IoTSSP round trip per device.  Between completion and the next
        drain a device sits at default-deny — the fleet-scale posture
        ``docs/scaling.md`` describes.
    """

    def __init__(
        self,
        transport: Transport | None = None,
        *,
        filtering: bool = True,
        gateway_mac: str = "02:00:00:00:00:01",
        gateway_ip: str = "192.168.1.1",
        rule_cache_capacity: int | None = None,
        notify_user: Callable[[UserNotification], None] | None = None,
        batch_profiling: bool = False,
    ) -> None:
        if filtering and transport is None:
            raise ValueError("a filtering gateway needs a transport to the IoTSSP")
        self.gateway_mac = gateway_mac
        self.gateway_ip = gateway_ip
        self.filtering = filtering
        self.batch_profiling = batch_profiling
        self.switch = OpenVSwitch(name="security-gateway")
        self.switch.add_port(WAN_PORT)
        self.controller = Controller(switch=self.switch)
        self.monitor = DeviceMonitor(
            ignore_macs={gateway_mac}, buffer_completions=batch_profiling
        )
        self.wps = WPSRegistrar()
        self.overlays = OverlayManager()
        self.rule_cache = EnforcementRuleCache(capacity=rule_cache_capacity)
        self.audit = AuditLog()
        self.sentinel: SentinelModule | None = None
        if filtering:
            assert transport is not None
            self.sentinel = SentinelModule(
                monitor=self.monitor,
                transport=transport,
                overlays=self.overlays,
                rule_cache=self.rule_cache,
                wan_port=WAN_PORT,
                gateway_macs={gateway_mac},
                notify=notify_user,
                audit=self.audit,
            )
            self.controller.register(self.sentinel)
        self.controller.register(LearningSwitchModule())
        self._devices: dict[str, AttachedDevice] = {}
        self._next_port = WAN_PORT + 1

    # --- attachment ----------------------------------------------------------

    def attach_device(self, mac: str, interface: str = "wifi", now: float = 0.0) -> AttachedDevice:
        """Associate/plug in a device; gives it its own switch port.

        Each wireless client gets a dedicated logical port, modelling the
        OpenWRT wireless-isolation redirect that forces client-to-client
        traffic through OVS (Sect. V).
        """
        if mac in self._devices:
            raise ValueError(f"{mac} already attached")
        if interface not in ("wifi", "eth0"):
            raise ValueError(f"unknown interface {interface!r}")
        port = self._next_port
        self._next_port += 1
        self.switch.add_port(port)
        device = AttachedDevice(mac=mac, port=port, interface=interface)
        self._devices[mac] = device
        # The association/link table tells the bridge where the device is.
        self.switch.learn(mac, port)
        if interface == "wifi":
            self.wps.provision(mac)
        self.audit.record(now, AuditEventType.DEVICE_ATTACHED, mac, f"port={port} if={interface}")
        return device

    def detach_device(self, mac: str, now: float = 0.0) -> None:
        device = self._devices.pop(mac, None)
        if device is None:
            raise KeyError(mac)
        self.monitor.forget(mac)
        self.overlays.forget(mac)
        self.rule_cache.remove(mac)
        if self.sentinel is not None:
            self.sentinel.forget(mac)
        # Flush the data plane too: installed flow entries, the learned MAC
        # and the device's port, so a re-attached or recycled MAC cannot
        # ride stale rules and flooding never walks departed ports.
        self._flush_device_rules(mac)
        self.switch.unlearn(mac)
        self.switch.remove_port(device.port)
        self.audit.record(now, AuditEventType.DEVICE_DETACHED, mac)

    def device(self, mac: str) -> AttachedDevice:
        return self._devices[mac]

    @property
    def attached_macs(self) -> list[str]:
        return sorted(self._devices)

    # --- data path -------------------------------------------------------------

    def process_frame(self, mac: str, frame: bytes, now: float = 0.0) -> ForwardingResult:
        """Inject a frame from an attached device into the data plane."""
        device = self._devices.get(mac)
        if device is None:
            raise KeyError(f"{mac} is not attached")
        return self.switch.process_frame(device.port, frame, now)

    def process_wan_frame(self, frame: bytes, now: float = 0.0) -> ForwardingResult:
        """Inject a frame arriving from the Internet uplink."""
        return self.switch.process_frame(WAN_PORT, frame, now)

    def finish_profiling(self, mac: str, now: float = 0.0) -> IsolationDirective | None:
        """Force-close a device's profiling session (idle-timeout sweep).

        Returns the directive the device ended up with — provisional
        STRICT quarantine when the IoTSSP could not be reached (see
        ``docs/robustness.md``), the service's answer otherwise.
        """
        if self.sentinel is None:
            return None
        event = self.monitor.flush(mac)
        if event is None:
            return self.sentinel.directives.get(mac)
        return self.sentinel.complete_profiling(event, now=now)

    def drain_profiling(self, now: float = 0.0) -> dict[str, IsolationDirective]:
        """Report all buffered profiling completions in one batch (sweep).

        The batched counterpart of the per-packet ``complete_profiling``
        path: drains the monitor's completion buffer, pushes the whole
        batch through ``SentinelModule.process_batch`` (one
        ``submit_many`` on any transport: one HTTP request, one
        compiled-bank stage-1 pass), then flushes each answered device's
        flow rules so its directive replaces the default-deny entries
        installed while it waited.  A batch that keeps failing is
        bisected, so only the devices whose reports fail degrade.
        Returns directive-per-MAC.
        """
        events = self.monitor.drain_completed()
        if self.sentinel is None or not events:
            return {}
        directives = self.sentinel.process_batch(events, now=now)
        for mac in directives:
            self._flush_device_rules(mac)
        return directives

    def preauthorize(
        self,
        mac: str,
        level: IsolationLevel,
        permitted_endpoints: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        """Provision enforcement state for a device without profiling it.

        Used by the performance experiments (Table V / Fig. 6) where the
        devices' isolation levels are a given and only the enforcement
        path is being measured.
        """
        if mac not in self._devices:
            raise KeyError(f"{mac} is not attached")
        self.monitor.mark_profiled(mac)
        if self.filtering:
            install_enforcement(self.rule_cache, self.overlays, mac, level, permitted_endpoints)

    @property
    def pending_report_count(self) -> int:
        """Fingerprint reports awaiting IoTSSP re-submission (0 when healthy)."""
        return 0 if self.sentinel is None else self.sentinel.pending_report_count

    def refresh_directives(self, now: float, *, force: bool = False) -> list[str]:
        """Periodic update query to the IoT Security Service (Sect. V).

        The sweep first re-submits pending reports from degraded-mode
        devices (provisional STRICT quarantine → the service's real
        directive once it recovers), then re-assesses devices whose
        directive TTL has lapsed.  Every device whose level or allow-list
        changed gets its installed flow rules flushed so the new policy
        applies to the next packet of every flow.  Returns the changed
        MACs.
        """
        if self.sentinel is None:
            return []
        changed = self.sentinel.retry_pending(now)
        changed += [
            mac
            for mac in self.sentinel.refresh_directives(now, force=force)
            if mac not in changed
        ]
        for mac in changed:
            self._flush_device_rules(mac)
        return changed

    def _flush_device_rules(self, mac: str) -> None:
        """Remove a device's installed flow-table entries (policy changed)."""
        stale = [rule for rule in self.switch.table if rule.match.eth_src == mac]
        for rule in stale:
            self.switch.table.remove(rule)

    def set_flow_policies(self, mac: str, policies: tuple) -> None:
        """Attach flow-granular filtering policies to a device's rule.

        Replaces the cached enforcement rule with one carrying the given
        :class:`~repro.sdn.rules.FlowPolicy` tuple and flushes the device's
        installed flow-table entries so the new policy takes effect on the
        next packet of each flow.
        """
        from repro.sdn.rules import EnforcementRule

        current = self.rule_cache.lookup(mac)
        if current is None:
            raise KeyError(f"no enforcement rule for {mac}")
        self.rule_cache.insert(
            EnforcementRule(
                device_mac=current.device_mac,
                level=current.level,
                permitted_ips=current.permitted_ips,
                flow_policies=tuple(policies),
            )
        )
        # Drop this device's reactive flow entries so decisions re-punt.
        self._flush_device_rules(mac)

    # --- introspection ----------------------------------------------------------

    def isolation_level(self, mac: str) -> IsolationLevel | None:
        return self.overlays.level_of(mac)

    def directive_for(self, mac: str) -> IsolationDirective | None:
        if self.sentinel is None:
            return None
        return self.sentinel.directives.get(mac)

    @property
    def flow_rule_count(self) -> int:
        return len(self.switch.table)
