"""Differential suite: the batch stage-0 pipeline is byte-identical to scalar.

The vectorized path (``PacketBatch`` → ``batch_features`` →
``FingerprintExtractor.add_batch`` → ``DeviceMonitor.observe_batch``) is a
pure performance rewrite of the per-packet pipeline; every test here pins
the equivalence byte-for-byte, the same discipline ``tests/ml`` applies to
the compiled forest bank.  The corpus covers every protocol the Table I
features reference, truncated/mutated frames (the decoder's graceful-
degradation paths), multi-device interleaved batches, and hypothesis-
generated messages reusing the generators from ``tests/packets``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURE_NAMES,
    NUM_FEATURES,
    DestinationCounter,
    Fingerprint,
    FingerprintExtractor,
    RateDropDetector,
    SetupPhaseDetector,
    batch_features,
    dedupe_consecutive,
    fingerprint_from_records,
    fingerprint_from_records_batch,
    packet_features,
    port_class,
    port_class_array,
)
from repro.devices import DEVICE_PROFILES, simulate_setup_capture
from repro.gateway import DeviceMonitor
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.packets import (
    CaptureRecord,
    DecodeError,
    FLAG_NAMES,
    PacketBatch,
    builder,
    decode,
)
from repro.packets.dhcp import CLIENT_PORT, SERVER_PORT
from repro.packets.dns import PORT_DNS, PORT_MDNS
from repro.packets.ethernet import ETHERTYPE_ARP, ethernet
from repro.packets.ntp import PORT_NTP
from repro.packets.ssdp import PORT_SSDP
from tests.packets.test_roundtrip_properties import (
    arp_packets,
    dhcp_messages,
    dns_messages,
    ntp_packets,
    ssdp_messages,
)

MAC = "aa:bb:cc:dd:ee:01"
OTHER = "aa:bb:cc:dd:ee:02"
GW = "02:00:00:00:00:01"
IP = "192.168.1.50"
IP6 = "fe80::1"


def corpus_frames(mac=MAC):
    """One frame per protocol/branch the Table I features can observe."""
    b = builder
    return [
        b.dhcp_discover_frame(mac, 1, "dev"),
        b.dhcp_request_frame(mac, 1, IP, "192.168.1.1"),
        b.bootp_request_frame(mac, 2),
        b.arp_probe_frame(mac, IP),
        b.arp_announce_frame(mac, IP),
        b.dns_query_frame(mac, GW, IP, "192.168.1.1", "a.example"),
        b.mdns_query_frame(mac, IP, "x._tcp.local"),
        b.mdns_announce_frame(mac, IP, "inst", "x._tcp.local"),
        b.ssdp_msearch_frame(mac, IP),
        b.ssdp_notify_frame(mac, IP, "http://x/desc.xml", "upnp:rootdevice", "uuid:1"),
        b.ntp_request_frame(mac, GW, IP, "17.1.1.1"),
        b.https_client_hello_frame(mac, GW, IP, "52.1.1.1", "a.example"),
        b.http_get_frame(mac, GW, IP, "52.1.1.1", "api.example", "/p"),
        b.http_post_frame(mac, GW, IP, "52.1.1.1", "api.example", "/p", b"xyz"),
        b.tcp_syn_frame(mac, GW, IP, "52.1.1.1", 1234, 80),
        b.tcp_raw_frame(mac, GW, IP, "52.1.1.1", 1234, 9999, b"\x01\x02\x03"),
        b.udp_raw_frame(mac, GW, IP, "52.1.1.1", 1234, 9999, b"\x01\x02"),
        b.icmp_echo_request_frame(mac, GW, IP, "8.8.8.8", 1, 1),
        b.icmpv6_router_solicit_frame(mac, IP6),
        b.igmp_join_frame(mac, IP, "224.0.0.251"),
        b.igmpv3_report_frame(mac, IP, ("224.0.0.251", "239.255.255.250")),
        b.mldv2_report_frame(mac, IP6),
        b.llc_frame(mac, payload=b"\xaa\xaa\x03extra"),
        b.eapol_frame(mac, GW, 1),
    ]


def scalar_matrix(frames):
    counter = DestinationCounter()
    return np.vstack([packet_features(decode(f), counter) for f in frames])


def vector_matrix(frames):
    batch = PacketBatch.from_frames(frames, np.arange(len(frames), dtype=float))
    return batch_features(batch, DestinationCounter())


def assert_frame_parity(frame):
    """One frame: decode and the lean parser agree on every feature."""
    try:
        packet = decode(frame)
    except DecodeError:
        with pytest.raises(DecodeError):
            PacketBatch.from_frames([frame], [0.0])
        return
    batch = PacketBatch.from_frames([frame], [0.0])
    assert batch.src_macs[0] == packet.src_mac
    scalar = packet_features(packet, DestinationCounter())
    vec = batch_features(batch, DestinationCounter())[0]
    assert np.array_equal(scalar, vec), (
        frame.hex(),
        dict(zip(FLAG_NAMES, scalar)),
        dict(zip(FLAG_NAMES, vec)),
    )


class TestFeatureMatrixParity:
    def test_full_corpus_byte_identical(self):
        frames = corpus_frames()
        assert np.array_equal(scalar_matrix(frames), vector_matrix(frames))

    def test_every_truncation_byte_identical(self):
        """Every strict prefix of every corpus frame degrades identically."""
        for frame in corpus_frames():
            for cut in range(len(frame) + 1):
                assert_frame_parity(frame[:cut])

    def test_runt_frame_raises_like_decode(self):
        with pytest.raises(DecodeError):
            decode(b"\x00" * 13)
        with pytest.raises(DecodeError):
            PacketBatch.from_frames([b"\x00" * 13], [0.0])

    def test_dst_counter_first_seen_order(self):
        """Distinct destinations number in first-appearance order."""
        frames = [
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.arp_probe_frame(MAC, IP),  # no dst IP: counter 0
            builder.ntp_request_frame(MAC, GW, IP, "17.2.2.2"),
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),  # repeat: keeps 1
            builder.dns_query_frame(MAC, GW, IP, "192.168.1.1", "a.example"),
        ]
        vec = vector_matrix(frames)
        assert np.array_equal(scalar_matrix(frames), vec)
        dst_counter = vec[:, FEATURE_NAMES.index("dst_ip_counter")]
        assert list(dst_counter) == [1.0, 0.0, 2.0, 1.0, 3.0]

    def test_dst_counter_state_carries_across_calls(self):
        """A shared counter numbers across chunks exactly like scalar."""
        frames = [
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.ntp_request_frame(MAC, GW, IP, "17.2.2.2"),
            builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1"),
            builder.ntp_request_frame(MAC, GW, IP, "17.3.3.3"),
        ]
        scalar_counter = DestinationCounter()
        expected = np.vstack(
            [packet_features(decode(f), scalar_counter) for f in frames]
        )
        batch_counter = DestinationCounter()
        got = np.vstack(
            [
                batch_features(
                    PacketBatch.from_frames(frames[:2], [0.0, 1.0]), batch_counter
                ),
                batch_features(
                    PacketBatch.from_frames(frames[2:], [2.0, 3.0]), batch_counter
                ),
            ]
        )
        assert np.array_equal(expected, got)
        assert batch_counter.distinct_destinations == scalar_counter.distinct_destinations

    def test_port_class_array_matches_scalar(self):
        ports = np.array([-1, 0, 1, 80, 1023, 1024, 49151, 49152, 65535])
        got = port_class_array(ports)
        expected = [port_class(None if p < 0 else int(p)) for p in ports]
        assert list(got) == expected

    def test_take_preserves_columns_and_keys(self):
        frames = corpus_frames()
        batch = PacketBatch.from_frames(frames, np.arange(len(frames), dtype=float))
        sub = batch.take([0, 5, 10])
        assert len(sub) == 3
        assert sub.dst_keys == batch.dst_keys  # ids stay resolvable
        assert np.array_equal(sub.timestamps, batch.timestamps[[0, 5, 10]])
        assert sub.src_macs == tuple(batch.src_macs[i] for i in (0, 5, 10))


class TestFingerprintParity:
    def test_all_profiles_idle_gap_detector(self):
        for profile in DEVICE_PROFILES:
            mac, records = simulate_setup_capture(profile, np.random.default_rng(11))
            scalar = fingerprint_from_records(records, mac)
            batch = fingerprint_from_records_batch(records, mac)
            assert scalar.packets == batch.packets, profile.name
            assert np.array_equal(scalar.fixed(), batch.fixed()), profile.name

    def test_all_profiles_rate_drop_detector(self):
        for profile in DEVICE_PROFILES[:8]:
            mac, records = simulate_setup_capture(profile, np.random.default_rng(12))
            scalar = fingerprint_from_records(
                records, mac, detector=RateDropDetector(window=10.0, warmup=4)
            )
            batch = fingerprint_from_records_batch(
                records, mac, detector=RateDropDetector(window=10.0, warmup=4)
            )
            assert scalar.packets == batch.packets, profile.name

    def test_other_devices_filtered_out(self):
        records = [
            CaptureRecord(float(i), f)
            for i, f in enumerate(corpus_frames(MAC)[:3] + corpus_frames(OTHER)[:3])
        ]
        scalar = fingerprint_from_records(records, MAC)
        batch = fingerprint_from_records_batch(records, MAC)
        assert scalar.packets == batch.packets
        assert len(batch) > 0

    def test_no_matching_packets(self):
        records = [CaptureRecord(0.0, corpus_frames(OTHER)[0])]
        batch = fingerprint_from_records_batch(records, MAC)
        assert batch.packets == ()

    def test_consecutive_duplicates_deduped(self):
        frame = builder.arp_probe_frame(MAC, IP)
        records = [CaptureRecord(i * 0.1, frame) for i in range(6)]
        scalar = fingerprint_from_records(records, MAC)
        batch = fingerprint_from_records_batch(records, MAC)
        assert batch.packets == scalar.packets
        assert len(batch) == 1  # all six collapse to one F column
        # F' zero-pads identically below DEFAULT_FP_PACKETS uniques.
        assert np.array_equal(batch.fixed(), scalar.fixed())

    def test_runt_record_raises_in_both(self):
        records = [CaptureRecord(0.0, b"\x00" * 10)]
        with pytest.raises(DecodeError):
            fingerprint_from_records(records, MAC)
        with pytest.raises(DecodeError):
            fingerprint_from_records_batch(records, MAC)

    def test_backwards_timestamp_raises_in_both(self):
        frames = corpus_frames()[:4]
        records = [CaptureRecord(t, f) for t, f in zip([0.0, 1.0, 0.5, 2.0], frames)]
        with pytest.raises(ValueError):
            fingerprint_from_records(records, MAC)
        with pytest.raises(ValueError):
            fingerprint_from_records_batch(records, MAC)

    def test_from_matrix_matches_from_vectors(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, size=(20, NUM_FEATURES)).astype(float)
        rows[5] = rows[4]  # consecutive duplicates
        rows[6] = rows[4]
        a = Fingerprint.from_vectors(list(rows), device_mac=MAC)
        b = Fingerprint.from_matrix(rows, device_mac=MAC)
        assert a == b
        # Oracle: the per-vector dedup loop of the paper's definition.
        assert b.packets == tuple(tuple(v.tolist()) for v in dedupe_consecutive(list(rows)))
        rows[8:10] = np.nan  # NaN never equals its predecessor
        kept = dedupe_consecutive(list(rows))
        assert len(Fingerprint.from_vectors(list(rows)).packets) == len(kept)
        assert len(Fingerprint.from_matrix(rows).packets) == len(kept)
        assert Fingerprint.from_matrix(np.zeros((0, NUM_FEATURES))).packets == ()
        with pytest.raises(ValueError):
            Fingerprint.from_matrix(np.zeros((2, NUM_FEATURES - 1)))


class TestAddBatchSemantics:
    def _batch(self, frames, times):
        return PacketBatch.from_frames(frames, times)

    def test_chunked_equals_oneshot_and_scalar(self):
        frames = corpus_frames()
        times = [i * 0.3 for i in range(len(frames))]
        scalar = FingerprintExtractor(MAC, detector=SetupPhaseDetector())
        for t, f in zip(times, frames):
            scalar.add(t, decode(f))
        for chunk in (1, 3, 7, len(frames)):
            ext = FingerprintExtractor(MAC, detector=SetupPhaseDetector())
            for i in range(0, len(frames), chunk):
                sub = self._batch(frames[i : i + chunk], times[i : i + chunk])
                ext.add_batch(sub.timestamps, sub)
            assert ext.fingerprint().packets == scalar.fingerprint().packets, chunk

    def test_completion_mid_batch(self):
        """The detector fires inside the chunk; the tail is ignored."""
        frames = corpus_frames()[:8]
        times = [0.0, 0.1, 0.2, 0.3, 50.0, 50.1, 50.2, 50.3]  # gap at index 4
        ext = FingerprintExtractor(
            MAC, detector=SetupPhaseDetector(idle_gap=2.0, min_packets=3)
        )
        batch = self._batch(frames, times)
        accepted, done = ext.add_batch(batch.timestamps, batch)
        assert done and accepted == 4
        assert ext.complete and ext.packet_count == 4
        # Equivalent scalar run for the fingerprint itself.
        scalar = FingerprintExtractor(
            MAC, detector=SetupPhaseDetector(idle_gap=2.0, min_packets=3)
        )
        for t, f in zip(times, frames):
            if scalar.add(t, decode(f)):
                break
        assert ext.fingerprint().packets == scalar.fingerprint().packets

    def test_add_batch_after_complete_is_noop(self):
        frames = corpus_frames()[:2]
        ext = FingerprintExtractor(MAC)
        ext.finish()
        batch = self._batch(frames, [0.0, 0.1])
        assert ext.add_batch(batch.timestamps, batch) == (0, True)
        assert ext.packet_count == 0

    def test_mac_mismatch_raises(self):
        batch = self._batch(corpus_frames(OTHER)[:2], [0.0, 0.1])
        ext = FingerprintExtractor(MAC)
        with pytest.raises(ValueError, match="fed to extractor"):
            ext.add_batch(batch.timestamps, batch)

    def test_length_mismatch_raises(self):
        batch = self._batch(corpus_frames()[:2], [0.0, 0.1])
        with pytest.raises(ValueError, match="disagree on length"):
            FingerprintExtractor(MAC).add_batch(np.array([0.0]), batch)

    def test_backwards_timestamp_keeps_prefix(self):
        frames = corpus_frames()[:5]
        times = [0.0, 1.0, 2.0, 1.5, 3.0]
        ext = FingerprintExtractor(MAC)
        batch = self._batch(frames, times)
        with pytest.raises(ValueError, match="non-decreasing"):
            ext.add_batch(batch.timestamps, batch)
        assert ext.packet_count == 3  # the clean prefix was absorbed
        assert not ext.complete

    def test_rate_drop_detector_scalar_fallback(self):
        """Detectors without observe_batch run through the scalar loop."""
        frames = corpus_frames()[:6]
        times = [i * 0.2 for i in range(6)]
        a = FingerprintExtractor(MAC, detector=RateDropDetector(window=5.0, warmup=3))
        batch = self._batch(frames, times)
        a.add_batch(batch.timestamps, batch)
        b = FingerprintExtractor(MAC, detector=RateDropDetector(window=5.0, warmup=3))
        for t, f in zip(times, frames):
            b.add(t, decode(f))
        assert a.fingerprint().packets == b.fingerprint().packets

    def test_detector_observe_batch_parity(self):
        """SetupPhaseDetector.observe_batch ≡ the scalar observe loop."""
        rng = np.random.default_rng(3)
        for trial in range(200):
            gaps = rng.exponential(1.0, size=rng.integers(1, 30))
            ts = np.cumsum(gaps)
            if rng.random() < 0.5:  # inject a backwards step
                i = int(rng.integers(0, len(ts)))
                ts[i] -= rng.uniform(0.1, 5.0)
            kwargs = dict(
                idle_gap=float(rng.uniform(0.5, 3.0)),
                min_packets=int(rng.integers(1, 6)),
                max_packets=int(rng.integers(3, 20)),
                max_duration=float(rng.uniform(5.0, 30.0)),
            )
            a = SetupPhaseDetector(**kwargs)
            b = SetupPhaseDetector(**kwargs)
            scalar_accepted = 0
            scalar_fired = scalar_raised = False
            for t in ts:
                try:
                    if a.observe(float(t)):
                        scalar_fired = True
                        break
                except ValueError:
                    scalar_raised = True
                    break
                scalar_accepted += 1
            batch_accepted = 0
            batch_fired = batch_raised = False
            try:
                batch_accepted, batch_fired = b.observe_batch(ts)
            except ValueError:
                batch_raised = True
            if scalar_raised:
                assert batch_raised, trial
            else:
                assert (batch_accepted, batch_fired) == (
                    scalar_accepted,
                    scalar_fired,
                ), trial
            assert a.last_timestamp == b.last_timestamp, trial


def _chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _interleaved_records(n_profiles=5, seed=100):
    records = []
    for k, profile in enumerate(DEVICE_PROFILES[:n_profiles]):
        _, recs = simulate_setup_capture(profile, np.random.default_rng(seed + k))
        records.extend(recs)
    records.sort(key=lambda r: r.timestamp)
    return records


def _fast_detector():
    return SetupPhaseDetector(idle_gap=2.0, min_packets=3)


def _events_by_mac(monitor, records, chunk=None):
    events = []
    if chunk is None:
        for r in records:
            event = monitor.observe(r.timestamp, decode(r.data))
            if event:
                events.append(event)
    else:
        for part in _chunks(records, chunk):
            events.extend(monitor.observe_batch(PacketBatch.from_records(part)))
    events.extend(monitor.drain_completed())
    for mac in list(monitor.profiling):
        event = monitor.flush(mac)
        if event:
            events.append(event)
    return {e.device_mac: e for e in events}


class TestMonitorBatchParity:
    def test_multi_device_interleaved_chunks(self):
        records = _interleaved_records()
        scalar = _events_by_mac(DeviceMonitor(detector_factory=_fast_detector), records)
        for chunk in (1, 16, len(records)):
            batch = _events_by_mac(
                DeviceMonitor(detector_factory=_fast_detector), records, chunk=chunk
            )
            assert batch.keys() == scalar.keys(), chunk
            for mac, event in batch.items():
                assert event.fingerprint.packets == scalar[mac].fingerprint.packets
                assert event.mode == scalar[mac].mode

    def test_clock_drops_match_scalar(self):
        records = _interleaved_records(n_profiles=3)[:30]
        ts = np.array([r.timestamp for r in records])
        ts[5] = ts[4] - 3.0  # two backwards clocks
        ts[17] = ts[16] - 1.0
        records = [CaptureRecord(float(t), r.data) for t, r in zip(ts, records)]

        def run(use_batch):
            monitor = DeviceMonitor(detector_factory=_fast_detector)
            with use_provider(RecordingProvider()) as provider:
                if use_batch:
                    monitor.observe_batch(PacketBatch.from_records(records))
                else:
                    for r in records:
                        monitor.observe(r.timestamp, decode(r.data))
            metrics = metrics_snapshot(provider.metrics)
            dropped = metrics.get("monitor_packets_dropped_total", {"samples": []})
            counts = {
                mac: monitor._sessions[mac].packet_count
                for mac in monitor.profiling
            }
            return dropped["samples"], counts

        scalar_drops, scalar_counts = run(use_batch=False)
        batch_drops, batch_counts = run(use_batch=True)
        assert batch_drops == scalar_drops
        assert batch_counts == scalar_counts
        assert scalar_drops and scalar_drops[0]["labels"] == {"reason": "clock"}

    def test_buffered_completions_drain(self):
        records = _interleaved_records(n_profiles=2)
        monitor = DeviceMonitor(detector_factory=_fast_detector, buffer_completions=True)
        with use_provider(RecordingProvider()) as provider:
            returned = monitor.observe_batch(PacketBatch.from_records(records))
            # add a late heartbeat so idle-gap completions actually fire
            tail = [
                CaptureRecord(records[-1].timestamp + 60.0, records[0].data),
            ]
            returned += monitor.observe_batch(PacketBatch.from_records(tail))
            assert returned == []  # buffered, not returned
            metrics = metrics_snapshot(provider.metrics)
            buffered = metrics["monitor_completions_buffered"]["samples"][0]["value"]
            drained = monitor.drain_completed()
            assert buffered == float(len(drained)) > 0

    def test_ignored_and_profiled_macs_skipped(self):
        frames = corpus_frames(MAC)[:3] + corpus_frames(OTHER)[:3]
        records = [CaptureRecord(float(i), f) for i, f in enumerate(frames)]
        monitor = DeviceMonitor(detector_factory=_fast_detector, ignore_macs={OTHER})
        monitor.mark_profiled(MAC)
        assert monitor.observe_batch(PacketBatch.from_records(records)) == []
        assert monitor.profiling == []

    def test_packets_seen_counts_every_row(self):
        records = [CaptureRecord(float(i), f) for i, f in enumerate(corpus_frames())]
        monitor = DeviceMonitor(detector_factory=_fast_detector)
        with use_provider(RecordingProvider()) as provider:
            monitor.observe_batch(PacketBatch.from_records(records))
        metrics = metrics_snapshot(provider.metrics)
        seen = metrics["monitor_packets_seen_total"]["samples"][0]["value"]
        assert seen == float(len(records))


class TestHypothesisParity:
    """Property-based parity, reusing the tests/packets message generators."""

    @given(dhcp_messages)
    @settings(deadline=None)
    def test_dhcp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, "0.0.0.0", "255.255.255.255", CLIENT_PORT, SERVER_PORT, message.pack()
        )
        assert_frame_parity(frame)

    @given(dns_messages, st.sampled_from([PORT_DNS, PORT_MDNS]))
    @settings(deadline=None)
    def test_dns_frames(self, message, port):
        frame = builder.udp_raw_frame(MAC, GW, IP, "192.168.1.1", 49152, port, message.pack())
        assert_frame_parity(frame)

    @given(ssdp_messages)
    @settings(deadline=None)
    def test_ssdp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, IP, "239.255.255.250", 50000, PORT_SSDP, message.pack()
        )
        assert_frame_parity(frame)

    @given(ntp_packets)
    @settings(deadline=None)
    def test_ntp_frames(self, packet):
        frame = builder.udp_raw_frame(MAC, GW, IP, "17.1.1.1", 49500, PORT_NTP, packet.pack())
        assert_frame_parity(frame)

    @given(arp_packets)
    @settings(deadline=None)
    def test_arp_frames(self, packet):
        frame = ethernet("ff:ff:ff:ff:ff:ff", packet.sender_mac, ETHERTYPE_ARP, packet.pack())
        assert_frame_parity(frame)

    @given(st.data())
    @settings(deadline=None)
    def test_mutated_frames(self, data):
        """Random byte flips degrade identically through both parsers."""
        frames = corpus_frames()
        frame = bytearray(data.draw(st.sampled_from(frames)))
        n_flips = data.draw(st.integers(min_value=1, max_value=8))
        for _ in range(n_flips):
            pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
            frame[pos] = data.draw(st.integers(min_value=0, max_value=255))
        assert_frame_parity(bytes(frame))

    @given(st.data())
    @settings(deadline=None)
    def test_truncated_frames(self, data):
        frame = data.draw(st.sampled_from(corpus_frames()))
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        assert_frame_parity(frame[:cut])

    @given(st.binary(min_size=0, max_size=120))
    @settings(deadline=None)
    def test_random_bytes(self, frame):
        assert_frame_parity(frame)
