"""Plain-way oracles the fast paths are checked against.

* Fitted forests: a trained model keeps only each type's
  :class:`~repro.ml.compiled.CompiledForest`.  :func:`record_forests`
  wraps the identifier's ``compile_forest`` seam and keeps the
  ``RandomForestClassifier`` training fitted next to what it compiled
  to, so an oracle reads the forest itself, never one rebuilt from the
  arrays under test.
* Interpreted stage 1: ``DeviceIdentifier`` classifies only through its
  :class:`~repro.ml.compiled.CompiledBank`; :func:`interpreted_candidates`
  recomputes the candidate lists from each type's recorded forest's
  ``predict_proba`` over ``fixed_vector`` rows.
* Node-table walk: :func:`walk_node_table` follows one row down one
  compiled tree at a time, the plain reading of the flat layout.
* Tree-walk importance: :func:`tree_walk_importance` counts splits on the
  interpreted trees' ``_Node`` objects.
* Layered frame facts: ``decode`` reads the Table I facts straight off
  the wire bytes (:mod:`repro.packets.facts`);
  :func:`layered_decode` derives them from the codec objects instead,
  parsing every layer and reading each fact off the parsed header.
* Per-feature split scan: ``DecisionTreeClassifier`` scores all candidate
  features of a node in one pass (``repro.ml.tree._split_search``);
  :func:`scan_split_search` sorts and scans one candidate at a time.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core import fixed_vector
from repro.ml.compiled import compile_forest
from repro.packets import dhcp as dhcp_mod
from repro.packets import dns as dns_mod
from repro.packets import http as http_mod
from repro.packets import ntp as ntp_mod
from repro.packets import ssdp as ssdp_mod
from repro.packets.arp import ARPPacket
from repro.packets.base import DecodeError
from repro.packets.eapol import EAPOLFrame
from repro.packets.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    EthernetFrame,
)
from repro.packets.icmp import ICMPMessage, ICMPv6Message
from repro.packets.igmp import TYPE_V3_REPORT, IGMPv2Message, IGMPv3Report
from repro.packets.ipv4 import PROTO_ICMP as IPV4_PROTO_ICMP
from repro.packets.ipv4 import PROTO_IGMP as IPV4_PROTO_IGMP
from repro.packets.ipv4 import PROTO_TCP as IPV4_PROTO_TCP
from repro.packets.ipv4 import PROTO_UDP as IPV4_PROTO_UDP
from repro.packets.ipv4 import IPv4Header
from repro.packets.ipv6 import (
    PROTO_HOP_BY_HOP,
    PROTO_ICMPV6,
    PROTO_TCP,
    PROTO_UDP,
    HopByHopOptions,
    IPv6Header,
)
from repro.packets.llc import LLCHeader
from repro.packets.tcp import TCPSegment
from repro.packets.udp import UDPDatagram


class FittedForests:
    """Each forest training fitted, looked up by the ``CompiledForest`` it
    compiled to.  Both objects stay alive here, so an ``id`` is never
    reused for another table."""

    def __init__(self):
        self._pairs = {}

    def compile(self, forest):
        compiled = compile_forest(forest)
        self._pairs[id(compiled)] = (compiled, forest)
        return compiled

    def __getitem__(self, compiled):
        recorded, forest = self._pairs[id(compiled)]
        assert recorded is compiled
        return forest


@contextmanager
def record_forests():
    """Record every forest ``DeviceIdentifier`` fits inside the block
    (``fit`` and ``add_type`` alike)."""
    forests = FittedForests()
    with mock.patch("repro.core.identifier.compile_forest", forests.compile):
        yield forests


def interpreted_candidates(identifier, fingerprints, forests):
    """Stage-1 candidate lists from one recorded forest at a time, in
    label order."""
    stacked = np.vstack([fixed_vector(fp.rows, identifier.fp_length) for fp in fingerprints])
    candidates = [[] for _ in fingerprints]
    for label in identifier.labels:
        forest = forests[identifier.snapshot.models[label].compiled]
        classes = list(forest.classes_)
        if True not in classes:
            continue
        positive = forest.predict_proba(stacked)[:, classes.index(True)]
        for row in np.flatnonzero(positive >= identifier.accept_threshold):
            candidates[int(row)].append(label)
    return candidates


def walk_node_table(compiled, x):
    """``predict_proba`` of a compiled forest, one row down one tree at a time.

    From each root, go left while ``x[feature] <= threshold`` holds and
    right otherwise, until a leaf (``feature == -1``); add that leaf's
    ``proba`` row in tree order and divide once, as the interpreted
    forest does.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((len(x), len(compiled.classes_)))
    for i, row in enumerate(x):
        for root in compiled.tree_roots:
            node = int(root)
            while compiled.feature[node] >= 0:
                went_left = row[compiled.feature[node]] <= compiled.threshold[node]
                node = int(compiled.left[node] if went_left else compiled.right[node])
            out[i] += compiled.proba[node]
        out[i] /= compiled.n_trees
    return out


def tree_walk_importance(forest, n_features):
    """Split-count importance off the interpreted trees' ``_Node`` objects:
    each tree's counts normalized to sum to 1, then the mean over trees."""
    per_tree = []
    for tree in forest.trees_:
        counts = np.zeros(n_features)
        stack = [tree._root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                counts[node.feature] += 1.0
                stack += [node.left, node.right]
        total = counts.sum()
        per_tree.append(counts / total if total > 0 else counts)
    return np.mean(per_tree, axis=0)


def _best_column_split(x_sorted_col, y_sorted, n_classes):
    """Best (threshold, weighted gini) for one pre-sorted column."""
    n = len(y_sorted)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), y_sorted] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    # Candidate split positions: where consecutive values differ.
    diffs = np.nonzero(np.diff(x_sorted_col) > 1e-12)[0]
    if len(diffs) == 0:
        return np.nan, np.inf
    left_counts = prefix[diffs]
    left_sizes = diffs + 1.0
    right_counts = total - left_counts
    right_sizes = n - left_sizes
    left_frac = left_counts / left_sizes[:, None]
    right_frac = right_counts / right_sizes[:, None]
    left_gini = 1.0 - np.einsum("ij,ij->i", left_frac, left_frac)
    right_gini = 1.0 - np.einsum("ij,ij->i", right_frac, right_frac)
    weighted = (left_sizes * left_gini + right_sizes * right_gini) / n
    best = int(np.argmin(weighted))
    position = diffs[best]
    threshold = (x_sorted_col[position] + x_sorted_col[position + 1]) / 2.0
    return float(threshold), float(weighted[best])


def scan_split_search(x, y, candidates, counts):
    """Best (feature, threshold, weighted gini): one sort and scan per candidate.

    Same signature as ``repro.ml.tree._split_search``; the first candidate
    with the strictly smallest score wins.
    """
    best_feature, best_threshold, best_score = -1, np.nan, np.inf
    for feature in candidates:
        order = np.argsort(x[:, feature], kind="stable")
        threshold, score = _best_column_split(x[order, feature], y[order], len(counts))
        if score < best_score:
            best_feature, best_threshold, best_score = int(feature), threshold, score
    return best_feature, best_threshold, best_score


#: Every fact :func:`layered_decode` reports, with its value when the
#: frame never reaches the layer that sets it.
FACT_DEFAULTS = {
    "src_mac": "",
    "dst_mac": "",
    "is_arp": False,
    "is_llc": False,
    "is_ip": False,
    "is_icmp": False,
    "is_icmpv6": False,
    "is_eapol": False,
    "is_tcp": False,
    "is_udp": False,
    "is_http": False,
    "is_https": False,
    "is_dhcp": False,
    "is_bootp": False,
    "is_ssdp": False,
    "is_dns": False,
    "is_mdns": False,
    "is_ntp": False,
    "ip_option_padding": False,
    "ip_option_router_alert": False,
    "has_raw_data": False,
    "src_ip": None,
    "dst_ip": None,
    "src_port": None,
    "dst_port": None,
}


def _classify_udp(datagram, facts):
    """Application-layer facts of a UDP payload; returns parsed layers."""
    layers = []
    payload = datagram.payload
    ports = (datagram.src_port, datagram.dst_port)
    facts["src_port"], facts["dst_port"] = ports
    if not payload:
        return layers
    if dhcp_mod.SERVER_PORT in ports or dhcp_mod.CLIENT_PORT in ports:
        try:
            message, _ = dhcp_mod.DHCPMessage.unpack(payload)
        except DecodeError:
            facts["has_raw_data"] = True
            return layers
        layers.append(message)
        facts["is_bootp"] = True
        if message.is_dhcp:
            facts["is_dhcp"] = True
        return layers
    if dns_mod.PORT_DNS in ports or dns_mod.PORT_MDNS in ports:
        try:
            message, _ = dns_mod.DNSMessage.unpack(payload)
        except DecodeError:
            facts["has_raw_data"] = True
            return layers
        layers.append(message)
        if dns_mod.PORT_MDNS in ports:
            facts["is_mdns"] = True
        else:
            facts["is_dns"] = True
        return layers
    if ssdp_mod.PORT_SSDP in ports and ssdp_mod.looks_like_ssdp(payload):
        message, _ = ssdp_mod.SSDPMessage.unpack(payload)
        layers.append(message)
        facts["is_ssdp"] = True
        return layers
    if ntp_mod.PORT_NTP in ports:
        try:
            message, _ = ntp_mod.NTPPacket.unpack(payload)
        except DecodeError:
            facts["has_raw_data"] = True
            return layers
        layers.append(message)
        facts["is_ntp"] = True
        return layers
    facts["has_raw_data"] = True
    return layers


def _classify_tcp(segment, facts):
    """Application-layer facts of a TCP payload; returns parsed layers."""
    layers = []
    facts["src_port"], facts["dst_port"] = segment.src_port, segment.dst_port
    payload = segment.payload
    if not payload:
        return layers
    ports = (segment.src_port, segment.dst_port)
    if http_mod.looks_like_http(payload):
        message, _ = http_mod.HTTPMessage.unpack(payload)
        layers.append(message)
        facts["is_http"] = True
        facts["has_raw_data"] = bool(message.body)
        return layers
    if http_mod.PORT_HTTPS in ports and http_mod.looks_like_tls(payload):
        facts["is_https"] = True
        facts["has_raw_data"] = True
        return layers
    facts["has_raw_data"] = True
    return layers


def layered_decode(frame):
    """``(facts, layers)`` of a frame, read off the parsed codec objects.

    ``facts`` maps every key of :data:`FACT_DEFAULTS` plus ``size``.  A
    runt frame raises :class:`DecodeError`; a malformed inner layer keeps
    the outer facts and counts the rest as raw data.
    """
    facts = dict(FACT_DEFAULTS, size=len(frame))
    layers = []
    eth, payload = EthernetFrame.unpack(frame)
    layers.append(eth)
    facts["src_mac"], facts["dst_mac"] = eth.src, eth.dst
    try:
        if eth.is_llc:
            llc, rest = LLCHeader.unpack(payload)
            layers.append(llc)
            facts["is_llc"] = True
            facts["has_raw_data"] = bool(rest)
        elif eth.ethertype == ETHERTYPE_ARP:
            arp, _ = ARPPacket.unpack(payload)
            layers.append(arp)
            facts["is_arp"] = True
        elif eth.ethertype == ETHERTYPE_EAPOL:
            eapol, _ = EAPOLFrame.unpack(payload)
            layers.append(eapol)
            facts["is_eapol"] = True
        elif eth.ethertype == ETHERTYPE_IPV4:
            ip, inner = IPv4Header.unpack(payload)
            layers.append(ip)
            facts["is_ip"] = True
            facts["src_ip"] = ip.src
            facts["dst_ip"] = ip.dst
            facts["ip_option_padding"] = ip.has_padding_option
            facts["ip_option_router_alert"] = ip.has_router_alert
            if ip.proto == IPV4_PROTO_ICMP:
                icmp, _ = ICMPMessage.unpack(inner)
                layers.append(icmp)
                facts["is_icmp"] = True
            elif ip.proto == IPV4_PROTO_TCP:
                segment, _ = TCPSegment.unpack(inner)
                layers.append(segment)
                facts["is_tcp"] = True
                layers.extend(_classify_tcp(segment, facts))
            elif ip.proto == IPV4_PROTO_UDP:
                datagram, _ = UDPDatagram.unpack(inner)
                layers.append(datagram)
                facts["is_udp"] = True
                layers.extend(_classify_udp(datagram, facts))
            elif ip.proto == IPV4_PROTO_IGMP:  # parsed for tooling; no Table I flag
                if inner and inner[0] == TYPE_V3_REPORT:
                    igmp, _ = IGMPv3Report.unpack(inner)
                else:
                    igmp, _ = IGMPv2Message.unpack(inner)
                layers.append(igmp)
            else:
                facts["has_raw_data"] = bool(inner)
        elif eth.ethertype == ETHERTYPE_IPV6:
            ip6, inner = IPv6Header.unpack(payload)
            layers.append(ip6)
            facts["is_ip"] = True
            facts["src_ip"] = ip6.src
            facts["dst_ip"] = ip6.dst
            next_header = ip6.next_header
            if next_header == PROTO_HOP_BY_HOP:
                hbh, inner = HopByHopOptions.unpack(inner)
                layers.append(hbh)
                facts["ip_option_router_alert"] = hbh.router_alert
                facts["ip_option_padding"] = hbh.padding
                next_header = hbh.next_header
            if next_header == PROTO_ICMPV6:
                icmp6, _ = ICMPv6Message.unpack(inner)
                layers.append(icmp6)
                facts["is_icmpv6"] = True
            elif next_header == PROTO_TCP:
                segment, _ = TCPSegment.unpack(inner)
                layers.append(segment)
                facts["is_tcp"] = True
                layers.extend(_classify_tcp(segment, facts))
            elif next_header == PROTO_UDP:
                datagram, _ = UDPDatagram.unpack(inner)
                layers.append(datagram)
                facts["is_udp"] = True
                layers.extend(_classify_udp(datagram, facts))
            else:
                facts["has_raw_data"] = bool(inner)
        else:
            facts["has_raw_data"] = bool(payload)
    except DecodeError:
        facts["has_raw_data"] = True
    return facts, tuple(layers)
