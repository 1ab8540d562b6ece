"""An Open vSwitch-style software switch.

The data plane of the Security Gateway: ports, a MAC learning table, a
:class:`~repro.sdn.flowtable.FlowTable`, and a table-miss path that hands
packets to the attached controller (:mod:`repro.sdn.controller`).  The
paper's wireless-isolation trick — redirecting traffic between wireless
clients through OVS instead of letting the AP bridge it — is modelled by
simply attaching every wireless client to its own switch port, which is
what the OpenWRT redirect achieves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.packets.decoder import DecodedPacket, decode

from .flowtable import FlowTable
from .openflow import Action, ActionType, FlowRule, PacketIn

__all__ = ["ForwardingResult", "OpenVSwitch"]


@dataclass(frozen=True)
class ForwardingResult:
    """What the data plane did with one frame."""

    out_ports: tuple[int, ...]
    dropped: bool = False
    sent_to_controller: bool = False
    matched_rule: FlowRule | None = None
    packet: DecodedPacket | None = None

    @property
    def delivered(self) -> bool:
        return bool(self.out_ports) and not self.dropped


@dataclass
class OpenVSwitch:
    """Flow-table switch with MAC learning and controller punt path."""

    name: str = "ovs0"
    table: FlowTable = field(default_factory=FlowTable)
    _ports: set[int] = field(default_factory=set)
    _mac_table: dict[str, int] = field(default_factory=dict)
    _controller: "object | None" = None  # Controller; avoids circular import
    packets_processed: int = field(default=0, repr=False)
    packets_dropped: int = field(default=0, repr=False)
    table_misses: int = field(default=0, repr=False)

    def add_port(self, port: int) -> None:
        if port in self._ports:
            raise ValueError(f"port {port} already exists")
        self._ports.add(port)

    def remove_port(self, port: int) -> None:
        """Delete a port with the MACs learned on it and the entries using it.

        Flow entries matching the port as ingress or forwarding to it can
        only ever serve the departed device; left in place, a later hit
        would output to a port that no longer exists.
        """
        if port not in self._ports:
            raise ValueError(f"unknown port {port}")
        self._ports.remove(port)
        for mac in [mac for mac, learned in self._mac_table.items() if learned == port]:
            del self._mac_table[mac]
        stale = [
            rule
            for rule in self.table
            if rule.match.in_port == port
            or any(action.type is ActionType.OUTPUT and action.port == port for action in rule.actions)
        ]
        for rule in stale:
            self.table.remove(rule)

    @property
    def ports(self) -> frozenset[int]:
        return frozenset(self._ports)

    def attach_controller(self, controller: object) -> None:
        self._controller = controller

    def port_of(self, mac: str) -> int | None:
        """Learned port for a MAC, if any."""
        return self._mac_table.get(mac)

    def learn(self, mac: str, port: int) -> None:
        """Seed the MAC table (e.g. from the AP's association table)."""
        if port not in self._ports:
            raise ValueError(f"unknown port {port}")
        self._mac_table[mac] = port

    def unlearn(self, mac: str) -> None:
        """Drop a MAC's learned-port entry (the device left the network)."""
        self._mac_table.pop(mac, None)

    def _apply_actions(
        self,
        actions: tuple[Action, ...],
        in_port: int,
        packet: DecodedPacket,
        *,
        rule: FlowRule | None,
        punted: bool,
    ) -> ForwardingResult:
        out: list[int] = []
        dropped = False
        for action in actions:
            if action.type is ActionType.DROP:
                dropped = True
            elif action.type is ActionType.OUTPUT:
                if action.port is None or action.port not in self._ports:
                    raise ValueError(f"output to unknown port {action.port}")
                out.append(action.port)
            elif action.type is ActionType.FLOOD:
                out.extend(sorted(self._ports - {in_port}))
            elif action.type is ActionType.CONTROLLER:
                punted = True
        if dropped:
            self.packets_dropped += 1
            out = []
        return ForwardingResult(
            out_ports=tuple(out),
            dropped=dropped,
            sent_to_controller=punted,
            matched_rule=rule,
            packet=packet,
        )

    def process_frame(self, in_port: int, frame: bytes, now: float = 0.0) -> ForwardingResult:
        """Run one frame through the pipeline; returns what happened."""
        if in_port not in self._ports:
            raise ValueError(f"frame arrived on unknown port {in_port}")
        packet = decode(frame)
        self.packets_processed += 1
        if packet.src_mac:
            self._mac_table[packet.src_mac] = in_port
        rule = self.table.lookup(packet, in_port)
        if rule is not None:
            rule.record_hit(packet.size, now)
            return self._apply_actions(rule.actions, in_port, packet, rule=rule, punted=False)
        # Table miss: punt to the controller if attached, else flood.
        self.table_misses += 1
        if self._controller is not None:
            actions = self._controller.handle_packet_in(
                self, PacketIn(in_port=in_port, packet=packet, frame=frame, timestamp=now)
            )
            return self._apply_actions(
                tuple(actions), in_port, packet, rule=None, punted=True
            )
        return self._apply_actions((Action.flood(),), in_port, packet, rule=None, punted=False)

    def install(self, rule: FlowRule) -> None:
        self.table.add(rule)

    def uninstall_cookie(self, cookie: int) -> int:
        return self.table.remove_by_cookie(cookie)
