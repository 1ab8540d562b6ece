"""OpenFlow-style match/action primitives.

A reduced but faithful model of the OpenFlow 1.x constructs the paper's
Floodlight module manipulates: wildcardable 12-tuple-ish matches, a small
action vocabulary (output / flood / drop / send-to-controller) and
flow-mod / packet-in control messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.packets.decoder import DecodedPacket
from repro.packets.facts import B_IP, B_TCP, B_UDP

__all__ = [
    "ActionType",
    "Action",
    "FlowMatch",
    "FlowRule",
    "PacketIn",
    "FlowMod",
    "FlowModCommand",
]


class ActionType(Enum):
    OUTPUT = "output"
    FLOOD = "flood"
    DROP = "drop"
    CONTROLLER = "controller"


@dataclass(frozen=True)
class Action:
    """One forwarding action; ``port`` only meaningful for OUTPUT."""

    type: ActionType
    port: int | None = None

    @classmethod
    def output(cls, port: int) -> "Action":
        return cls(type=ActionType.OUTPUT, port=port)

    @classmethod
    def flood(cls) -> "Action":
        return cls(type=ActionType.FLOOD)

    @classmethod
    def drop(cls) -> "Action":
        return cls(type=ActionType.DROP)

    @classmethod
    def controller(cls) -> "Action":
        return cls(type=ActionType.CONTROLLER)


@dataclass(frozen=True)
class FlowMatch:
    """A wildcardable match over the fields the gateway filters on.

    ``None`` fields are wildcards.  MAC addresses are the primary handle —
    the paper identifies device traffic by (static) MAC address.
    """

    in_port: int | None = None
    eth_src: str | None = None
    eth_dst: str | None = None
    is_ip: bool | None = None
    ip_src: str | None = None
    ip_dst: str | None = None
    is_tcp: bool | None = None
    is_udp: bool | None = None
    tp_src: int | None = None
    tp_dst: int | None = None
    # The concrete is_ip/is_tcp/is_udp fields as one test on the packet's
    # flag word: the bits they constrain and the value those bits must have.
    _flag_mask: int = field(init=False, repr=False, compare=False)
    _flag_want: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = want = 0
        for flag, bit in ((self.is_ip, B_IP), (self.is_tcp, B_TCP), (self.is_udp, B_UDP)):
            if flag is not None:
                mask |= bit
                if flag:
                    want |= bit
        object.__setattr__(self, "_flag_mask", mask)
        object.__setattr__(self, "_flag_want", want)

    def matches(self, packet: DecodedPacket, in_port: int) -> bool:
        """Does this match cover the given decoded packet on ``in_port``?"""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and packet.src_mac != self.eth_src:
            return False
        if self.eth_dst is not None and packet.dst_mac != self.eth_dst:
            return False
        if packet.flag_bits & self._flag_mask != self._flag_want:
            return False
        if self.ip_src is not None and packet.src_ip != self.ip_src:
            return False
        if self.ip_dst is not None and packet.dst_ip != self.ip_dst:
            return False
        if self.tp_src is not None and packet.src_port != self.tp_src:
            return False
        if self.tp_dst is not None and packet.dst_port != self.tp_dst:
            return False
        return True

    def specificity(self) -> int:
        """Number of concrete (non-wildcard) fields, for tie-breaking."""
        return sum(
            value is not None
            for value in (
                self.in_port,
                self.eth_src,
                self.eth_dst,
                self.is_ip,
                self.ip_src,
                self.ip_dst,
                self.is_tcp,
                self.is_udp,
                self.tp_src,
                self.tp_dst,
            )
        )


@dataclass
class FlowRule:
    """A flow-table entry: match + actions + priority + statistics."""

    match: FlowMatch
    actions: tuple[Action, ...]
    priority: int = 100
    idle_timeout: float | None = None
    cookie: int = 0
    packet_count: int = field(default=0, repr=False)
    byte_count: int = field(default=0, repr=False)
    last_used: float = field(default=0.0, repr=False)

    def record_hit(self, size: int, now: float) -> None:
        self.packet_count += 1
        self.byte_count += size
        self.last_used = now

    @property
    def drops(self) -> bool:
        return any(action.type is ActionType.DROP for action in self.actions)


class FlowModCommand(Enum):
    ADD = "add"
    DELETE = "delete"


@dataclass(frozen=True)
class FlowMod:
    """Controller → switch flow-table modification."""

    command: FlowModCommand
    rule: FlowRule


@dataclass(frozen=True)
class PacketIn:
    """Switch → controller table-miss notification."""

    in_port: int
    packet: DecodedPacket
    frame: bytes
    timestamp: float
