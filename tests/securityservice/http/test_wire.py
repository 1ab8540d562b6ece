"""Wire codecs: report/directive JSON round-trips and WireError coverage."""

import json

import pytest

from repro.core.constants import NUM_FEATURES
from repro.sdn import IsolationLevel
from repro.securityservice import FingerprintReport, IsolationDirective
from repro.securityservice.http import (
    WireError,
    directive_from_dict,
    directive_to_dict,
    report_from_dict,
    report_to_dict,
)


class TestReportCodec:
    def test_round_trip_preserves_fingerprint(self, probe):
        report = FingerprintReport(fingerprint=probe, gateway_id="gw-1")
        encoded = report_to_dict(report)
        # The body survives a real JSON hop, not just a dict copy.
        decoded = report_from_dict(json.loads(json.dumps(encoded)))
        assert decoded.gateway_id == "gw-1"
        assert report_to_dict(decoded) == encoded

    def test_gateway_id_omitted_when_absent(self, probe):
        encoded = report_to_dict(FingerprintReport(fingerprint=probe))
        assert "gateway_id" not in encoded
        assert report_from_dict(encoded).gateway_id is None

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            report_from_dict([1, 2, 3])

    def test_missing_fingerprint_rejected(self):
        with pytest.raises(WireError, match="missing the 'fingerprint'"):
            report_from_dict({"gateway_id": "gw-1"})

    def test_malformed_fingerprint_rejected(self):
        with pytest.raises(WireError, match="malformed fingerprint"):
            report_from_dict({"fingerprint": {"mac": "02:aa", "packets": "nope"}})

    @pytest.mark.parametrize(
        "packets",
        [
            [[1.0] * 3],
            [[1.0] * 30],
            [[1.0] * NUM_FEATURES, [1.0] * (NUM_FEATURES - 1)],  # ragged rows
            ["1" * NUM_FEATURES],  # a string is not an array
            [{str(i): 1.0 for i in range(NUM_FEATURES)}],
        ],
        ids=["3-wide", "30-wide", "ragged", "string", "object"],
    )
    def test_wrong_width_packets_rejected(self, packets):
        with pytest.raises(WireError, match=f"array of {NUM_FEATURES} features"):
            report_from_dict({"fingerprint": {"mac": "02:aa", "packets": packets}})

    def test_non_numeric_feature_rejected(self):
        packets = [[1.0] * (NUM_FEATURES - 1) + ["x"]]
        with pytest.raises(WireError, match="malformed fingerprint"):
            report_from_dict({"fingerprint": {"mac": "02:aa", "packets": packets}})

    def test_non_string_gateway_id_rejected(self, probe):
        body = report_to_dict(FingerprintReport(fingerprint=probe))
        body["gateway_id"] = 7
        with pytest.raises(WireError, match="gateway_id"):
            report_from_dict(body)


class TestDirectiveCodec:
    def test_round_trip(self):
        directive = IsolationDirective(
            device_type="iKettle2",
            level=IsolationLevel.RESTRICTED,
            permitted_endpoints=frozenset({"52.1.1.1", "10.0.0.2"}),
            ttl_seconds=120.0,
            vulnerability_ids=("REPRO-2015-0001",),
            provisional=True,
        )
        decoded = directive_from_dict(json.loads(json.dumps(directive_to_dict(directive))))
        assert decoded == directive

    def test_endpoints_encode_sorted(self):
        directive = IsolationDirective(
            device_type="Dev",
            level=IsolationLevel.RESTRICTED,
            permitted_endpoints=frozenset({"9.9.9.9", "1.1.1.1"}),
        )
        assert directive_to_dict(directive)["permitted_endpoints"] == ["1.1.1.1", "9.9.9.9"]

    def test_defaults_fill_in(self):
        decoded = directive_from_dict({"device_type": "Dev", "level": "trusted"})
        assert decoded.level is IsolationLevel.TRUSTED
        assert decoded.permitted_endpoints == frozenset()
        assert decoded.vulnerability_ids == ()
        assert decoded.provisional is False

    def test_missing_level_rejected(self):
        with pytest.raises(WireError, match="missing the 'level'"):
            directive_from_dict({"device_type": "Dev"})

    def test_unknown_level_rejected(self):
        with pytest.raises(WireError, match="unknown isolation level"):
            directive_from_dict({"device_type": "Dev", "level": "lenient"})

    def test_non_string_device_type_rejected(self):
        with pytest.raises(WireError, match="device_type"):
            directive_from_dict({"device_type": 5, "level": "strict"})
