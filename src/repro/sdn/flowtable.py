"""Priority-ordered flow table with idle-timeout expiry."""

from __future__ import annotations

from bisect import insort

from repro.packets.decoder import DecodedPacket

from .openflow import FlowRule

__all__ = ["FlowTable"]


def _order(rule: FlowRule) -> tuple[int, int]:
    """Lookup order: higher priority first, then the more specific match."""
    return -rule.priority, -rule.match.specificity()


class FlowTable:
    """The switch's rule store.

    Lookup returns the highest-priority matching rule (most-specific match
    wins ties, then the earlier-installed rule), mirroring OpenFlow
    semantics.  Rules are kept in that order, so lookup is a linear scan
    that stops at the first match.
    """

    def __init__(self) -> None:
        self._rules: list[FlowRule] = []

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def add(self, rule: FlowRule) -> None:
        # After every equal-keyed rule: the order a stable sort would give.
        insort(self._rules, rule, key=_order)

    def remove(self, rule: FlowRule) -> None:
        self._rules.remove(rule)

    def remove_by_cookie(self, cookie: int) -> int:
        """Delete all rules carrying ``cookie``; returns count removed."""
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.cookie != cookie]
        return before - len(self._rules)

    def lookup(self, packet: DecodedPacket, in_port: int) -> FlowRule | None:
        for rule in self._rules:
            if rule.match.matches(packet, in_port):
                return rule
        return None

    def expire_idle(self, now: float) -> list[FlowRule]:
        """Remove rules idle past their timeout; returns the evicted ones."""
        expired = [
            rule
            for rule in self._rules
            if rule.idle_timeout is not None and now - rule.last_used > rule.idle_timeout
        ]
        for rule in expired:
            self._rules.remove(rule)
        return expired
