"""The socketless router: every route, status code and header, no port."""

import json

import pytest

from repro.core.constants import NUM_FEATURES
from repro.devices import collect_fingerprints, profile_by_name
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.securityservice import FingerprintReport, IoTSecurityService
from repro.securityservice.http import (
    ApiKeyRegistry,
    GatewayRateLimiter,
    ServiceApp,
    directive_from_dict,
)
from repro.securityservice.http.app import MAX_BODY_BYTES, UNMATCHED
from repro.securityservice.http.wire import report_to_dict

from .test_ratelimit import Tick


def post_report(app, probe, gateway_id=None, headers=None):
    body = report_to_dict(
        FingerprintReport(fingerprint=probe, gateway_id=gateway_id)
    )
    return app.handle("POST", "/v1/report", headers or {}, json.dumps(body).encode())


@pytest.fixture(scope="module")
def app(service):
    return ServiceApp(service)


class TestOpenEndpoints:
    def test_healthz(self, app, service):
        response = app.handle("GET", "/healthz", {}, b"")
        assert response.status == 200
        payload = response.json
        assert payload["status"] == "ok"
        assert payload["known_types"] == len(service.known_types)
        assert payload["reports_handled"] == service.reports_handled

    def test_metrics_without_a_provider_says_disabled(self, app):
        response = app.handle("GET", "/metrics", {}, b"")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert b"disabled" in response.body

    def test_metrics_renders_live_counters(self, app, probe):
        with use_provider(RecordingProvider()):
            post_report(app, probe)
            response = app.handle("GET", "/metrics", {}, b"")
        text = response.body.decode()
        assert "service_http_requests_total" in text
        assert "service_reports_handled_total" in text

    def test_unknown_path_404(self, app):
        assert app.handle("GET", "/nope", {}, b"").status == 404
        assert app.handle("GET", "/v1/nope", {}, b"").status == 404

    def test_wrong_method_405_with_allow(self, app):
        response = app.handle("POST", "/healthz", {}, b"")
        assert response.status == 405
        assert response.headers["Allow"] == "GET"

    def test_path_normalization(self, app):
        assert app.handle("GET", "/healthz/", {}, b"").status == 200
        assert app.handle("GET", "/healthz?verbose=1", {}, b"").status == 200


class TestSubmission:
    def test_single_report_round_trip(self, app, probe):
        response = post_report(app, probe, gateway_id="gw-1")
        assert response.status == 200
        directive = directive_from_dict(response.json)
        assert directive.device_type == "Aria"

    def test_batch_round_trip(self, app, probe):
        body = {
            "reports": [
                report_to_dict(FingerprintReport(fingerprint=probe)) for _ in range(3)
            ]
        }
        response = app.handle("POST", "/v1/reports", {}, json.dumps(body).encode())
        assert response.status == 200
        directives = [directive_from_dict(d) for d in response.json["directives"]]
        assert len(directives) == 3
        assert {d.device_type for d in directives} == {"Aria"}

    def test_malformed_json_is_400(self, app):
        response = app.handle("POST", "/v1/report", {}, b"{not json")
        assert response.status == 400
        assert "not valid JSON" in response.json["error"]

    def test_missing_fingerprint_is_400(self, app):
        response = app.handle("POST", "/v1/report", {}, b'{"gateway_id": "gw-1"}')
        assert response.status == 400
        assert "fingerprint" in response.json["error"]

    def test_malformed_batch_shape_is_400(self, app):
        response = app.handle("POST", "/v1/reports", {}, b'{"reports": "all of them"}')
        assert response.status == 400
        assert "reports" in response.json["error"]

    def test_submit_is_post_only(self, app):
        response = app.handle("GET", "/v1/report", {}, b"")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_oversized_body_is_413(self, app):
        response = app.handle("POST", "/v1/report", {}, b"x" * (MAX_BODY_BYTES + 1))
        assert response.status == 413


class TestAdmin:
    def test_list_types(self, app, service):
        response = app.handle("GET", "/v1/types", {}, b"")
        assert response.status == 200
        assert response.json["types"] == service.known_types

    def test_directive_lookup(self, app):
        response = app.handle("GET", "/v1/directive/Aria", {}, b"")
        assert response.status == 200
        directive = directive_from_dict(response.json)
        assert directive.device_type == "Aria"

    def test_directive_for_unknown_type_404(self, app):
        response = app.handle("GET", "/v1/directive/Toaster9000", {}, b"")
        assert response.status == 404

    def test_enroll_then_duplicate(self, small_registry, rng):
        service = IoTSecurityService(random_state=3)
        service.train(small_registry)
        app = ServiceApp(service)
        fingerprints = collect_fingerprints(profile_by_name("MAXGateway"), runs=8, rng=rng)
        body = json.dumps(
            {
                "label": "MAXGateway",
                "fingerprints": [report_to_dict(FingerprintReport(fingerprint=fp))["fingerprint"] for fp in fingerprints],
            }
        ).encode()
        created = app.handle("POST", "/v1/types", {}, body)
        assert created.status == 201
        assert created.json["label"] == "MAXGateway"
        assert "MAXGateway" in service.known_types
        duplicate = app.handle("POST", "/v1/types", {}, body)
        assert duplicate.status == 409

    def test_enroll_validation_400s(self, app):
        for body in (
            b"[]",
            b"{}",
            b'{"label": ""}',
            b'{"label": "X"}',
            b'{"label": "X", "fingerprints": []}',
        ):
            assert app.handle("POST", "/v1/types", {}, body).status == 400


class TestAuth:
    @pytest.fixture()
    def closed_app(self, service):
        return ServiceApp(service, auth=ApiKeyRegistry({"gw-1": "secret"}))

    def test_missing_key_is_401(self, closed_app):
        response = closed_app.handle("GET", "/v1/types", {}, b"")
        assert response.status == 401
        assert "WWW-Authenticate" in response.headers

    def test_wrong_key_is_401_and_counted(self, closed_app):
        headers = {"X-Gateway-Id": "gw-1", "X-Api-Key": "wrong"}
        with use_provider(RecordingProvider()) as provider:
            assert closed_app.handle("GET", "/v1/types", headers, b"").status == 401
            snapshot = metrics_snapshot(provider.metrics)
        assert snapshot["service_http_auth_failures_total"]["samples"][0]["value"] == 1.0

    def test_right_key_passes(self, closed_app):
        headers = {"X-Gateway-Id": "gw-1", "X-Api-Key": "secret"}
        assert closed_app.handle("GET", "/v1/types", headers, b"").status == 200

    def test_header_names_are_case_insensitive(self, closed_app):
        headers = {"x-gateway-id": "gw-1", "X-API-KEY": "secret"}
        assert closed_app.handle("GET", "/v1/types", headers, b"").status == 200

    def test_health_and_metrics_stay_open(self, closed_app):
        assert closed_app.handle("GET", "/healthz", {}, b"").status == 200
        assert closed_app.handle("GET", "/metrics", {}, b"").status == 200


class TestRateLimiting:
    def limited_app(self, service, clock, *, rate=1.0, burst=2):
        return ServiceApp(
            service, limiter=GatewayRateLimiter(rate=rate, burst=burst, clock=clock)
        )

    def test_burst_then_429_with_headers(self, service):
        app = self.limited_app(service, Tick())
        first = app.handle("GET", "/v1/types", {}, b"")
        assert first.status == 200
        assert first.headers["X-RateLimit-Limit"] == "2"
        assert first.headers["X-RateLimit-Remaining"] == "1"
        app.handle("GET", "/v1/types", {}, b"")
        denied = app.handle("GET", "/v1/types", {}, b"")
        assert denied.status == 429
        assert float(denied.headers["Retry-After"]) == pytest.approx(1.0)

    def test_refill_readmits(self, service):
        clock = Tick()
        app = self.limited_app(service, clock)
        app.handle("GET", "/v1/types", {}, b"")
        app.handle("GET", "/v1/types", {}, b"")
        assert app.handle("GET", "/v1/types", {}, b"").status == 429
        clock.now = 1.0
        assert app.handle("GET", "/v1/types", {}, b"").status == 200

    def test_limits_are_per_gateway(self, service):
        app = self.limited_app(service, Tick(), burst=1)
        assert app.handle("GET", "/v1/types", {"X-Gateway-Id": "a"}, b"").status == 200
        assert app.handle("GET", "/v1/types", {"X-Gateway-Id": "a"}, b"").status == 429
        assert app.handle("GET", "/v1/types", {"X-Gateway-Id": "b"}, b"").status == 200

    def test_batch_costs_one_token_per_report(self, service, probe):
        app = self.limited_app(service, Tick(), burst=3)
        body = {
            "reports": [
                report_to_dict(FingerprintReport(fingerprint=probe)) for _ in range(3)
            ]
        }
        assert app.handle("POST", "/v1/reports", {}, json.dumps(body).encode()).status == 200
        # The bucket is drained: even a single submit is over capacity now.
        assert app.handle("POST", "/v1/reports", {}, json.dumps(body).encode()).status == 429

    def test_malformed_bodies_never_consume_tokens(self, service, probe):
        app = self.limited_app(service, Tick(), burst=1)
        for _ in range(5):
            assert app.handle("POST", "/v1/report", {}, b"{not json").status == 400
        # Parse-before-pricing: the garbage above cost nothing.
        assert post_report(app, probe).status == 200

    def test_429_is_counted(self, service):
        app = self.limited_app(service, Tick(), burst=1)
        with use_provider(RecordingProvider()) as provider:
            app.handle("GET", "/v1/types", {}, b"")
            app.handle("GET", "/v1/types", {}, b"")
            snapshot = metrics_snapshot(provider.metrics)
        assert snapshot["service_http_rate_limited_total"]["samples"][0]["value"] == 1.0


class TestRequestMetrics:
    def test_requests_counted_by_route_pattern_and_status(self, app, probe):
        with use_provider(RecordingProvider()) as provider:
            post_report(app, probe)
            app.handle("GET", "/v1/directive/Aria", {}, b"")
            app.handle("GET", "/v1/directive/Toaster9000", {}, b"")
            snapshot = metrics_snapshot(provider.metrics)
            spans = provider.tracer.records()
        samples = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"]
            for s in snapshot["service_http_requests_total"]["samples"]
        }
        # Directive lookups aggregate under the pattern, not the raw path.
        assert samples[("/v1/directive/{device_type}", "200")] == 1.0
        assert samples[("/v1/directive/{device_type}", "404")] == 1.0
        assert samples[("/v1/report", "200")] == 1.0
        assert [r.name for r in spans].count("service.http.request") == 3


    def test_unmatched_requests_add_at_most_two_label_sets(self, service):
        # A path scanner must not grow the metrics registry: 404s, and
        # 401s before a /v1 route is resolved, share one endpoint label.
        app = ServiceApp(service, auth=ApiKeyRegistry({"gw-1": "secret"}))
        with use_provider(RecordingProvider()) as provider:
            for i in range(500):
                assert app.handle("GET", f"/scan/{i}", {}, b"").status == 404
                assert app.handle("GET", f"/v1/directive/{i}", {}, b"").status == 401
            snapshot = metrics_snapshot(provider.metrics)
        samples = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"]
            for s in snapshot["service_http_requests_total"]["samples"]
        }
        assert samples == {(UNMATCHED, "404"): 500.0, (UNMATCHED, "401"): 500.0}

    def test_oversized_body_is_counted_unmatched(self, app):
        with use_provider(RecordingProvider()) as provider:
            response = app.handle("POST", "/v1/reports", {}, b" " * (MAX_BODY_BYTES + 1))
            snapshot = metrics_snapshot(provider.metrics)
        assert response.status == 413
        (sample,) = snapshot["service_http_requests_total"]["samples"]
        assert sample["labels"] == {"endpoint": UNMATCHED, "status": "413"}


class UntouchableService:
    """Fails the test if the app calls into the service at all."""

    def __getattr__(self, name):
        raise AssertionError(f"service.{name} was called")


class TestWrongWidthPackets:
    """A packet of the wrong width is the client's error: 400, never 500."""

    @staticmethod
    def bodies(packets):
        fingerprint = {"mac": "02:00:00:00:00:01", "packets": packets}
        return {
            "/v1/report": {"fingerprint": fingerprint},
            "/v1/reports": {"reports": [{"fingerprint": fingerprint}]},
            "/v1/types": {"label": "NewType", "fingerprints": [fingerprint]},
        }

    @pytest.mark.parametrize(
        "packets",
        [[[0.0] * 3], [[0.0] * 30], [[0.0] * NUM_FEATURES, [0.0] * 5]],
        ids=["3-wide", "30-wide", "ragged"],
    )
    @pytest.mark.parametrize("path", ["/v1/report", "/v1/reports", "/v1/types"])
    def test_is_400_and_never_reaches_the_service(self, path, packets):
        app = ServiceApp(UntouchableService())
        body = json.dumps(self.bodies(packets)[path]).encode()
        with use_provider(RecordingProvider()) as provider:
            response = app.handle("POST", path, {}, body)
            snapshot = metrics_snapshot(provider.metrics)
        assert response.status == 400
        assert f"{NUM_FEATURES} features" in response.json["error"]
        samples = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"]
            for s in snapshot["service_http_requests_total"]["samples"]
        }
        assert samples == {(path, "400"): 1.0}
