"""Setup-phase detection and fingerprint extraction tests."""

import pytest

from repro.core import FingerprintExtractor, SetupPhaseDetector, fingerprint_from_records
from repro.packets import CaptureRecord, DecodeError, builder, decode

MAC = "aa:bb:cc:dd:ee:01"
OTHER = "aa:bb:cc:dd:ee:99"
GW = "02:00:00:00:00:01"
IP = "192.168.1.50"


def frames(mac=MAC):
    return [
        builder.dhcp_discover_frame(mac, 1, "dev"),
        builder.arp_probe_frame(mac, IP),
        builder.dns_query_frame(mac, GW, IP, "192.168.1.1", "a.example"),
        builder.https_client_hello_frame(mac, GW, IP, "52.1.1.1", "a.example"),
        builder.ntp_request_frame(mac, GW, IP, "17.1.1.1"),
    ]


class TestSetupPhaseDetector:
    def test_idle_gap_ends_phase(self):
        detector = SetupPhaseDetector(idle_gap=5.0, min_packets=2)
        assert not detector.observe(0.0)
        assert not detector.observe(1.0)
        assert not detector.observe(2.0)
        assert detector.observe(10.0)  # 8s gap after >= min_packets

    def test_idle_gap_ignored_before_min_packets(self):
        detector = SetupPhaseDetector(idle_gap=5.0, min_packets=4)
        assert not detector.observe(0.0)
        assert not detector.observe(10.0)  # big gap but only 1 packet so far

    def test_max_packets_cap(self):
        detector = SetupPhaseDetector(idle_gap=100.0, min_packets=1, max_packets=3)
        assert not detector.observe(0.0)
        assert not detector.observe(0.1)
        assert not detector.observe(0.2)
        assert detector.observe(0.3)

    def test_max_duration_cap(self):
        detector = SetupPhaseDetector(idle_gap=1000.0, max_duration=30.0, min_packets=100)
        assert not detector.observe(0.0)
        assert not detector.observe(10.0)
        assert detector.observe(31.0)

    def test_rejects_time_travel(self):
        detector = SetupPhaseDetector()
        detector.observe(5.0)
        with pytest.raises(ValueError):
            detector.observe(4.0)

    def test_reset(self):
        detector = SetupPhaseDetector(idle_gap=5.0, min_packets=1)
        detector.observe(0.0)
        detector.reset()
        assert not detector.observe(100.0)  # fresh session


class TestFingerprintExtractor:
    def test_collects_until_idle_gap(self):
        extractor = FingerprintExtractor(MAC, detector=SetupPhaseDetector(idle_gap=5.0, min_packets=2))
        t = 0.0
        for frame in frames():
            done = extractor.add(t, decode(frame))
            assert not done
            t += 0.5
        # A packet far in the future closes the phase and is excluded.
        assert extractor.add(t + 100.0, decode(frames()[0]))
        assert extractor.complete
        assert extractor.packet_count == len(frames())

    def test_rejects_foreign_packets(self):
        extractor = FingerprintExtractor(MAC)
        with pytest.raises(ValueError, match="fed to extractor"):
            extractor.add(0.0, decode(builder.arp_probe_frame(OTHER, IP)))

    def test_finish_forces_completion(self):
        extractor = FingerprintExtractor(MAC)
        extractor.add(0.0, decode(frames()[0]))
        extractor.finish()
        assert extractor.complete
        assert extractor.add(1.0, decode(frames()[1]))  # ignored, already done

    def test_fingerprint_has_label_and_mac(self):
        extractor = FingerprintExtractor(MAC)
        for i, frame in enumerate(frames()):
            extractor.add(i * 0.1, decode(frame))
        fp = extractor.fingerprint(label="TestDevice")
        assert fp.label == "TestDevice"
        assert fp.device_mac == MAC
        assert len(fp) == len(frames())


class TestFingerprintFromRecords:
    def test_filters_by_source_mac(self):
        records = []
        t = 0.0
        for own, other in zip(frames(MAC), frames(OTHER)):
            records.append(CaptureRecord(t, own))
            records.append(CaptureRecord(t + 0.01, other))
            t += 0.2
        fp = fingerprint_from_records(records, MAC, label="X")
        assert len(fp) == len(frames())

    def test_empty_capture_gives_empty_fingerprint(self):
        fp = fingerprint_from_records([], MAC)
        assert len(fp) == 0

    def test_stops_at_setup_end(self):
        detector = SetupPhaseDetector(idle_gap=2.0, min_packets=2)
        records = [CaptureRecord(i * 0.1, f) for i, f in enumerate(frames())]
        # Post-setup traffic 100 seconds later must not appear in F.
        records.append(CaptureRecord(100.0, builder.arp_probe_frame(MAC, IP)))
        records.append(CaptureRecord(100.1, builder.arp_probe_frame(MAC, IP)))
        fp = fingerprint_from_records(records, MAC, detector=detector)
        assert len(fp) == len(frames())

    def test_runt_record_raises(self):
        records = [CaptureRecord(0.0, b"\x00" * 10)]
        with pytest.raises(DecodeError):
            fingerprint_from_records(records, MAC)

    def test_backwards_timestamp_raises(self):
        records = [CaptureRecord(t, f) for t, f in zip([0.0, 1.0, 0.5, 2.0], frames())]
        with pytest.raises(ValueError):
            fingerprint_from_records(records, MAC)
