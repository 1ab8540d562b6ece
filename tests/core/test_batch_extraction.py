"""Stage-0 extraction suite: feature rows, fingerprints and monitor sessions.

The gateway fingerprints a device one packet at a time (``decode`` →
``packet_features`` → ``FingerprintExtractor`` → ``DeviceMonitor``).
Every test here checks that path over a *sequence* of frames against an
oracle built without it: each row comes from the ``tests.oracles``
layered-codec facts, the destination counter is a plain first-seen
numbering, and consecutive duplicates are dropped by a plain loop.  The
single-frame checks live in ``tests/packets/test_facts_oracle.py``; this
module adds what only a sequence shows: the shared destination counter,
source-MAC filtering, setup-phase cut-off, deduplication and the
monitor's per-device sessions, drops and counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURE_NAMES,
    DestinationCounter,
    FingerprintExtractor,
    RateDropDetector,
    SetupPhaseDetector,
    fingerprint_from_records,
    packet_features,
)
from repro.devices import DEVICE_PROFILES, simulate_setup_capture
from repro.gateway import DeviceMonitor
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.packets import CaptureRecord, DecodeError, builder, decode
from repro.packets.dhcp import CLIENT_PORT, SERVER_PORT
from repro.packets.dns import PORT_DNS, PORT_MDNS
from repro.packets.ethernet import ETHERTYPE_ARP, ethernet
from repro.packets.ntp import PORT_NTP
from repro.packets.ssdp import PORT_SSDP
from tests.oracles import layered_decode
from tests.packets.test_facts_oracle import GW, IP, MAC, corpus_frames, expected_features
from tests.packets.test_roundtrip_properties import (
    arp_packets,
    dhcp_messages,
    dns_messages,
    ntp_packets,
    ssdp_messages,
)

OTHER = "aa:bb:cc:dd:ee:02"
DST_COUNTER = FEATURE_NAMES.index("dst_ip_counter")
#: An NTP request to 17.1.1.1: puts a known destination in front of a frame.
PRIMER = builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1")


def oracle_matrix(frames):
    """Table I rows of a frame sequence sharing one first-seen numbering."""
    numbers = {}
    rows = []
    for frame in frames:
        facts, _ = layered_decode(frame)
        row = expected_features(facts)
        dst = facts["dst_ip"]
        row[DST_COUNTER] = 0 if dst is None else numbers.setdefault(dst, len(numbers) + 1)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))


def scalar_matrix(frames, counter=None):
    counter = DestinationCounter() if counter is None else counter
    rows = [packet_features(decode(f), counter) for f in frames]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))


def assert_sequence_matches_oracle(frames):
    """Runts raise in decode and the oracle; the rest match row for row."""
    kept = []
    for frame in frames:
        try:
            layered_decode(frame)
        except DecodeError:
            with pytest.raises(DecodeError):
                decode(frame)
            continue
        kept.append(frame)
    got, expected = scalar_matrix(kept), oracle_matrix(kept)
    assert np.array_equal(got, expected), [f.hex() for f in kept]


def oracle_packets(records, mac, detector):
    """The deduplicated setup-phase rows of ``mac``, the plain way."""
    frames = []
    for record in records:
        if layered_decode(record.data)[0]["src_mac"] != mac:
            continue
        if detector.observe(record.timestamp):
            break
        frames.append(record.data)
    kept = []
    for row in oracle_matrix(frames):
        if not kept or not np.array_equal(row, kept[-1]):
            kept.append(row)
    return tuple(tuple(row.tolist()) for row in kept)


class TestFeatureMatrixParity:
    def test_full_corpus_byte_identical(self):
        frames = corpus_frames()
        assert np.array_equal(scalar_matrix(frames), oracle_matrix(frames))

    def test_every_truncation_byte_identical(self):
        """Every prefix of a corpus frame, behind a primer, through one counter."""
        for frame in corpus_frames():
            cuts = [frame[:cut] for cut in range(len(frame) + 1)]
            assert_sequence_matches_oracle([PRIMER, *cuts, PRIMER])

    def test_runt_frame_raises_like_decode(self):
        with pytest.raises(DecodeError):
            layered_decode(b"\x00" * 13)
        with pytest.raises(DecodeError):
            decode(b"\x00" * 13)
        with pytest.raises(DecodeError):
            fingerprint_from_records([CaptureRecord(0.0, b"\x00" * 13)], MAC)

    def test_dst_counter_first_seen_order(self):
        """Distinct destinations number in first-appearance order."""
        frames = [
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.arp_probe_frame(MAC, IP),  # no dst IP: counter 0
            builder.ntp_request_frame(MAC, GW, IP, "17.2.2.2"),
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),  # repeat: keeps 1
            builder.dns_query_frame(MAC, GW, IP, "192.168.1.1", "a.example"),
        ]
        got = scalar_matrix(frames)
        assert np.array_equal(got, oracle_matrix(frames))
        assert list(got[:, DST_COUNTER]) == [1.0, 0.0, 2.0, 1.0, 3.0]

    def test_dst_counter_state_carries_across_calls(self):
        """One counter numbers across separate runs as if they were one."""
        frames = [
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.ntp_request_frame(MAC, GW, IP, "17.2.2.2"),
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.ntp_request_frame(MAC, GW, IP, "17.3.3.3"),
        ]
        counter = DestinationCounter()
        got = np.vstack([scalar_matrix(frames[:2], counter), scalar_matrix(frames[2:], counter)])
        assert np.array_equal(got, oracle_matrix(frames))
        assert counter.distinct_destinations == 3


class TestFingerprintParity:
    def test_all_profiles_idle_gap_detector(self):
        for profile in DEVICE_PROFILES:
            mac, records = simulate_setup_capture(profile, np.random.default_rng(11))
            fp = fingerprint_from_records(records, mac)
            assert fp.packets == oracle_packets(records, mac, SetupPhaseDetector()), profile.name

    def test_all_profiles_rate_drop_detector(self):
        for profile in DEVICE_PROFILES[:8]:
            mac, records = simulate_setup_capture(profile, np.random.default_rng(12))
            fp = fingerprint_from_records(
                records, mac, detector=RateDropDetector(window=10.0, warmup=4)
            )
            expected = oracle_packets(records, mac, RateDropDetector(window=10.0, warmup=4))
            assert fp.packets == expected, profile.name

    def test_other_devices_filtered_out(self):
        records = [
            CaptureRecord(float(i), f)
            for i, f in enumerate(corpus_frames(MAC)[:3] + corpus_frames(OTHER)[:3])
        ]
        fp = fingerprint_from_records(records, MAC)
        assert fp.packets == oracle_packets(records, MAC, SetupPhaseDetector())
        assert len(fp) == 3

    def test_no_matching_packets(self):
        records = [CaptureRecord(0.0, corpus_frames(OTHER)[0])]
        assert fingerprint_from_records(records, MAC).packets == ()

    def test_consecutive_duplicates_deduped(self):
        frame = builder.arp_probe_frame(MAC, IP)
        records = [CaptureRecord(i * 0.1, frame) for i in range(6)]
        fp = fingerprint_from_records(records, MAC)
        assert fp.packets == oracle_packets(records, MAC, SetupPhaseDetector())
        assert len(fp) == 1  # all six collapse to one F column
        # F' zero-pads below DEFAULT_FP_PACKETS uniques.
        fixed = fp.fixed()
        assert np.array_equal(fixed[: len(FEATURE_NAMES)], oracle_matrix([frame])[0])
        assert not fixed[len(FEATURE_NAMES) :].any()


class TestAddBatchSemantics:
    """FingerprintExtractor.add over a run of packets."""

    def test_completion_mid_batch(self):
        """The detector fires on the packet after the gap; it and the tail are ignored."""
        frames = corpus_frames()[:8]
        times = [0.0, 0.1, 0.2, 0.3, 50.0, 50.1, 50.2, 50.3]  # gap at index 4
        ext = FingerprintExtractor(MAC, detector=SetupPhaseDetector(idle_gap=2.0, min_packets=3))
        done_at = [i for i, (t, f) in enumerate(zip(times, frames)) if ext.add(t, decode(f))]
        assert done_at == [4, 5, 6, 7]  # add keeps answering done once complete
        assert ext.complete and ext.packet_count == 4
        records = [CaptureRecord(t, f) for t, f in zip(times, frames)]
        expected = oracle_packets(records, MAC, SetupPhaseDetector(idle_gap=2.0, min_packets=3))
        assert ext.fingerprint().packets == expected

    def test_mac_mismatch_raises(self):
        ext = FingerprintExtractor(MAC)
        with pytest.raises(ValueError, match="fed to extractor"):
            ext.add(0.0, decode(corpus_frames(OTHER)[0]))
        assert ext.packet_count == 0 and not ext.complete

    def test_backwards_timestamp_keeps_prefix(self):
        frames = corpus_frames()[:5]
        times = [0.0, 1.0, 2.0, 1.5, 3.0]
        ext = FingerprintExtractor(MAC)
        for t, f in zip(times[:3], frames):
            assert not ext.add(t, decode(f))
        with pytest.raises(ValueError, match="non-decreasing"):
            ext.add(times[3], decode(frames[3]))
        assert ext.packet_count == 3  # the clean prefix is kept
        assert not ext.complete
        assert ext.fingerprint().packets == tuple(
            tuple(row.tolist()) for row in oracle_matrix(frames[:3])
        )


def _interleaved_records(n_profiles=5, seed=100):
    records = []
    for k, profile in enumerate(DEVICE_PROFILES[:n_profiles]):
        _, recs = simulate_setup_capture(profile, np.random.default_rng(seed + k))
        records.extend(recs)
    records.sort(key=lambda r: r.timestamp)
    return records


def _fast_detector():
    return SetupPhaseDetector(idle_gap=2.0, min_packets=3)


def _observe_all(monitor, records):
    events = []
    for r in records:
        event = monitor.observe(r.timestamp, decode(r.data))
        if event:
            events.append(event)
    return events


class TestMonitorBatchParity:
    def test_multi_device_interleaved_chunks(self):
        """Interleaved devices get the fingerprints each would get alone."""
        records = _interleaved_records()
        monitor = DeviceMonitor(detector_factory=_fast_detector)
        events = _observe_all(monitor, records)
        events += [monitor.flush(mac) for mac in list(monitor.profiling)]
        by_mac = {e.device_mac: e for e in events}
        macs = {layered_decode(r.data)[0]["src_mac"] for r in records}
        assert by_mac.keys() == macs and len(events) == len(macs)
        for mac, event in by_mac.items():
            assert event.fingerprint.packets == oracle_packets(records, mac, _fast_detector())
            assert event.mode == "setup"

    def test_clock_drops_match_scalar(self):
        """Each backwards clock is dropped and counted; sessions keep the rest."""
        records = _interleaved_records(n_profiles=3)[:30]
        ts = np.array([r.timestamp for r in records])
        ts[5] = ts[4] - 3.0  # two backwards clocks
        ts[17] = ts[16] - 1.0
        records = [CaptureRecord(float(t), r.data) for t, r in zip(ts, records)]
        assert ts.max() - ts.min() < 300.0  # only the idle gap can end a session

        # Oracle: per device, a packet older than its last kept one is
        # dropped; a gap over 2 s after 3 kept packets ends the session.
        last, kept, done, drops = {}, {}, set(), 0
        for r in records:
            mac = layered_decode(r.data)[0]["src_mac"]
            if mac in done:
                continue
            if mac in last and r.timestamp < last[mac]:
                drops += 1
            elif kept.get(mac, 0) >= 3 and r.timestamp - last[mac] > 2.0:
                done.add(mac)
            else:
                last[mac] = r.timestamp
                kept[mac] = kept.get(mac, 0) + 1
        assert drops > 0

        monitor = DeviceMonitor(detector_factory=_fast_detector)
        with use_provider(RecordingProvider()) as provider:
            _observe_all(monitor, records)
        metrics = metrics_snapshot(provider.metrics)
        dropped = metrics["monitor_packets_dropped_total"]["samples"]
        assert dropped == [{"labels": {"reason": "clock"}, "value": float(drops)}]
        counts = {mac: monitor._sessions[mac].packet_count for mac in monitor.profiling}
        assert counts == {mac: n for mac, n in kept.items() if mac not in done}

    def test_buffered_completions_drain(self):
        records = _interleaved_records(n_profiles=2)
        # A late heartbeat so idle-gap completions actually fire.
        records.append(CaptureRecord(records[-1].timestamp + 60.0, records[0].data))
        monitor = DeviceMonitor(detector_factory=_fast_detector, buffer_completions=True)
        with use_provider(RecordingProvider()) as provider:
            assert _observe_all(monitor, records) == []  # buffered, not returned
            metrics = metrics_snapshot(provider.metrics)
            buffered = metrics["monitor_completions_buffered"]["samples"][0]["value"]
            drained = monitor.drain_completed()
            assert buffered == float(len(drained)) > 0
            assert monitor.drain_completed() == []

    def test_ignored_and_profiled_macs_skipped(self):
        frames = corpus_frames(MAC)[:3] + corpus_frames(OTHER)[:3]
        records = [CaptureRecord(float(i), f) for i, f in enumerate(frames)]
        monitor = DeviceMonitor(detector_factory=_fast_detector, ignore_macs={OTHER})
        monitor.mark_profiled(MAC)
        assert _observe_all(monitor, records) == []
        assert monitor.profiling == []

    def test_packets_seen_counts_every_row(self):
        records = [CaptureRecord(float(i), f) for i, f in enumerate(corpus_frames())]
        monitor = DeviceMonitor(detector_factory=_fast_detector, ignore_macs={MAC})
        with use_provider(RecordingProvider()) as provider:
            _observe_all(monitor, records)
        metrics = metrics_snapshot(provider.metrics)
        seen = metrics["monitor_packets_seen_total"]["samples"][0]["value"]
        assert seen == float(len(records))  # ignored packets are seen too


class TestHypothesisParity:
    """Generated frames between two primers, through one shared counter."""

    @given(dhcp_messages)
    @settings(deadline=None)
    def test_dhcp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, "0.0.0.0", "255.255.255.255", CLIENT_PORT, SERVER_PORT, message.pack()
        )
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])

    @given(dns_messages, st.sampled_from([PORT_DNS, PORT_MDNS]))
    @settings(deadline=None)
    def test_dns_frames(self, message, port):
        frame = builder.udp_raw_frame(MAC, GW, IP, "192.168.1.1", 49152, port, message.pack())
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])

    @given(ssdp_messages)
    @settings(deadline=None)
    def test_ssdp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, IP, "239.255.255.250", 50000, PORT_SSDP, message.pack()
        )
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])

    @given(ntp_packets)
    @settings(deadline=None)
    def test_ntp_frames(self, packet):
        frame = builder.udp_raw_frame(MAC, GW, IP, "17.1.1.1", 49500, PORT_NTP, packet.pack())
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])

    @given(arp_packets)
    @settings(deadline=None)
    def test_arp_frames(self, packet):
        frame = ethernet("ff:ff:ff:ff:ff:ff", packet.sender_mac, ETHERTYPE_ARP, packet.pack())
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])

    @given(st.data())
    @settings(deadline=None)
    def test_mutated_frames(self, data):
        frame = bytearray(data.draw(st.sampled_from(corpus_frames())))
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
            frame[pos] = data.draw(st.integers(min_value=0, max_value=255))
        assert_sequence_matches_oracle([PRIMER, bytes(frame), PRIMER])

    @given(st.data())
    @settings(deadline=None)
    def test_truncated_frames(self, data):
        frame = data.draw(st.sampled_from(corpus_frames()))
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        assert_sequence_matches_oracle([PRIMER, frame[:cut], PRIMER])

    @given(st.binary(min_size=0, max_size=120))
    @settings(deadline=None)
    def test_random_bytes(self, frame):
        assert_sequence_matches_oracle([PRIMER, frame, PRIMER])
