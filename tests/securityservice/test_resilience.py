"""The fault-tolerant reporting layer: backoff, breaker, fault injection."""

import pytest

from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.sdn import IsolationLevel
from repro.securityservice import (
    CircuitBreaker,
    CircuitOpenError,
    DirectTransport,
    Fault,
    FaultInjectingTransport,
    FingerprintReport,
    IsolationDirective,
    ManualClock,
    ProtocolError,
    ResilientTransport,
    RetryPolicy,
    ServiceUnavailable,
    TransportTimeout,
)
from repro.securityservice.resilience import (
    BreakerState,
    backoff_delay,
    backoff_schedule,
    is_retryable,
)


class _Canned:
    """Service stub: counts reports, returns a fixed directive."""

    def __init__(self, level=IsolationLevel.TRUSTED):
        self.directive = IsolationDirective(device_type="Dev", level=level)
        self.reports = 0

    def handle_reports(self, reports):
        self.reports += len(reports)
        return [self.directive for _ in reports]


REPORT = FingerprintReport(fingerprint=object())


# --- classification ----------------------------------------------------------


class TestClassification:
    def test_transport_faults_are_retryable(self):
        assert is_retryable(ServiceUnavailable("down"))
        assert is_retryable(TransportTimeout("slow"))
        assert is_retryable(TimeoutError())
        assert is_retryable(ConnectionResetError())
        assert is_retryable(OSError("network unreachable"))

    def test_protocol_errors_are_fatal(self):
        assert not is_retryable(ProtocolError("bad frame"))

    def test_unknown_exceptions_are_fatal(self):
        assert not is_retryable(KeyError("bug in stub"))
        assert not is_retryable(ValueError("bug in service"))


# --- clock -------------------------------------------------------------------


class TestManualClock:
    def test_advances(self):
        clock = ManualClock(10.0)
        clock.advance(2.5)
        clock.sleep(0.5)
        assert clock.now() == 13.0

    def test_advance_to_never_goes_backwards(self):
        clock = ManualClock(10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(11.0)
        assert clock.now() == 11.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


# --- deterministic backoff ---------------------------------------------------


class TestBackoff:
    POLICY = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0, jitter=0.1)

    def test_same_seed_same_schedule(self):
        a = backoff_schedule(self.POLICY, seed=42, call=3)
        b = backoff_schedule(self.POLICY, seed=42, call=3)
        assert a == b  # byte-identical, not just approximately equal

    def test_different_seed_different_schedule(self):
        assert backoff_schedule(self.POLICY, 1) != backoff_schedule(self.POLICY, 2)

    def test_different_call_tokens_desynchronize(self):
        assert backoff_schedule(self.POLICY, 1, call=0) != backoff_schedule(self.POLICY, 1, call=1)

    def test_jitter_stays_within_fraction(self):
        for attempt in range(1, 5):
            raw = min(30.0, 0.5 * 2.0 ** (attempt - 1))
            delay = backoff_delay(self.POLICY, 7, 0, attempt)
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_no_jitter_is_exact_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.0)
        assert backoff_schedule(policy, 0) == (1.0, 2.0, 4.0)

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=10.0, max_delay=5.0, jitter=0.0)
        assert backoff_schedule(policy, 0)[-1] == 5.0

    def test_attempt_zero_has_no_backoff(self):
        with pytest.raises(ValueError):
            backoff_delay(self.POLICY, 0, 0, 0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)


# --- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        defaults = dict(failure_threshold=3, reset_timeout=30.0, half_open_successes=2)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_starts_closed_and_allows(self):
        breaker = self._breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_consecutive_failures(self):
        breaker = self._breaker()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(2.1)

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_reset_timeout(self):
        breaker = self._breaker()
        for t in range(3):
            breaker.record_failure(float(t))
        assert not breaker.allow(31.9)  # opened at t=2, reset 30
        assert breaker.allow(32.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_closes_after_enough_successes(self):
        breaker = self._breaker()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(40.0)
        breaker.record_success(40.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(41.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = self._breaker()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(40.0)
        breaker.record_failure(40.0)
        assert breaker.state is BreakerState.OPEN
        # The reopen restarts the reset clock from the new failure.
        assert not breaker.allow(69.9)
        assert breaker.allow(70.0)

    def test_transitions_recorded_in_order(self):
        breaker = self._breaker()
        for t in range(3):
            breaker.record_failure(float(t))
        breaker.allow(40.0)
        breaker.record_success(40.0)
        breaker.record_success(41.0)
        assert [(old.value, new.value) for old, new, _ in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_transition_callback_fires(self):
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, on_transition=lambda old, new, now: seen.append((old, new, now))
        )
        breaker.record_failure(5.0)
        assert seen == [(BreakerState.CLOSED, BreakerState.OPEN, 5.0)]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)


# --- fault injection ---------------------------------------------------------


class TestFaultInjectingTransport:
    def test_passthrough_when_schedule_empty(self):
        service = _Canned()
        transport = FaultInjectingTransport(DirectTransport(service))
        assert transport.submit(REPORT).device_type == "Dev"
        assert transport.faults_injected == 0

    def test_error_then_recover(self):
        service = _Canned()
        transport = FaultInjectingTransport.failing(DirectTransport(service), 2)
        for _ in range(2):
            with pytest.raises(ServiceUnavailable):
                transport.submit(REPORT)
        assert transport.submit(REPORT).device_type == "Dev"
        assert transport.submits == 3
        assert transport.faults_injected == 2
        assert service.reports == 1  # faulted submits never reached the service

    def test_timeout_fault(self):
        transport = FaultInjectingTransport(DirectTransport(_Canned()), [Fault.timeout()])
        with pytest.raises(TransportTimeout):
            transport.submit(REPORT)

    def test_fatal_fault(self):
        transport = FaultInjectingTransport(DirectTransport(_Canned()), [Fault.fatal()])
        with pytest.raises(ProtocolError):
            transport.submit(REPORT)

    def test_latency_spike_advances_shared_clock_and_returns(self):
        clock = ManualClock()
        transport = FaultInjectingTransport(
            DirectTransport(_Canned()), [Fault.latency_spike(9.0)], clock=clock
        )
        directive = transport.submit(REPORT)
        assert directive.device_type == "Dev"
        assert clock.now() == 9.0


# --- the resilient wrapper ---------------------------------------------------


def _resilient(service_or_schedule, *, schedule=(), policy=None, seed=0, breaker=None):
    """Wire _Canned → FaultInjecting → Resilient over one shared clock."""
    clock = ManualClock()
    service = _Canned()
    faulty = FaultInjectingTransport(DirectTransport(service), schedule, clock=clock)
    policy = policy or RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.1)
    transport = ResilientTransport(faulty, policy=policy, seed=seed, clock=clock, breaker=breaker)
    return transport, faulty, service, clock


class TestResilientTransport:
    def test_clean_submit_passes_through(self):
        transport, _, service, _ = _resilient(None)
        assert transport.submit(REPORT).device_type == "Dev"
        assert service.reports == 1
        assert transport.attempts == 1
        assert transport.backoff_log == []

    def test_transient_fault_retried_until_success(self):
        transport, faulty, service, _ = _resilient(None, schedule=[Fault.error(), Fault.error()])
        directive = transport.submit(REPORT)
        assert directive.device_type == "Dev"
        assert transport.attempts == 3
        assert service.reports == 1

    def test_backoff_log_matches_published_schedule(self):
        transport, _, _, _ = _resilient(None, schedule=[Fault.error(), Fault.error()], seed=11)
        transport.submit(REPORT)
        expected = backoff_schedule(transport.policy, 11, call=0)[:2]
        assert tuple(transport.backoff_log) == expected

    def test_backoff_advances_the_clock(self):
        transport, _, _, clock = _resilient(None, schedule=[Fault.error()])
        transport.submit(REPORT, now=100.0)
        assert clock.now() == pytest.approx(100.0 + transport.backoff_log[0])

    def test_exhausted_attempts_raise_last_fault(self):
        transport, _, service, _ = _resilient(None, schedule=[Fault.error()] * 3)
        with pytest.raises(ServiceUnavailable):
            transport.submit(REPORT)
        assert transport.attempts == 3
        assert service.reports == 0

    def test_fatal_error_not_retried(self):
        transport, faulty, service, _ = _resilient(None, schedule=[Fault.fatal()])
        with pytest.raises(ProtocolError):
            transport.submit(REPORT)
        assert transport.attempts == 1
        assert faulty.submits == 1

    def test_latency_spike_breaks_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0, attempt_timeout=5.0)
        transport, _, service, _ = _resilient(
            None, schedule=[Fault.latency_spike(9.0)], policy=policy
        )
        # The spike's answer arrives past the deadline and is discarded;
        # the retry (schedule exhausted) succeeds.
        directive = transport.submit(REPORT)
        assert directive.device_type == "Dev"
        assert transport.attempts == 2
        assert service.reports == 2  # first answer computed but discarded

    def test_breaker_opens_and_fast_fails(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        transport, faulty, _, _ = _resilient(
            None, schedule=[Fault.error()] * 10, breaker=breaker
        )
        with pytest.raises(CircuitOpenError):
            transport.submit(REPORT)
        attempts_made = faulty.submits
        assert attempts_made == 2  # third attempt was refused by the breaker
        with pytest.raises(CircuitOpenError):
            transport.submit(REPORT)
        assert faulty.submits == attempts_made  # open circuit: inner untouched

    def test_breaker_recovers_via_half_open(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0, half_open_successes=1)
        transport, _, service, clock = _resilient(
            None, schedule=[Fault.error()] * 2, breaker=breaker
        )
        with pytest.raises(CircuitOpenError):
            transport.submit(REPORT, now=0.0)
        assert breaker.state is BreakerState.OPEN
        directive = transport.submit(REPORT, now=clock.now() + 60.0)
        assert directive.device_type == "Dev"
        assert breaker.state is BreakerState.CLOSED

    def test_batch_retried_as_one_exchange(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        transport, faulty, service, _ = _resilient(
            None, schedule=[Fault.error()], breaker=breaker
        )
        directives = transport.submit_many([REPORT] * 8)
        assert [d.device_type for d in directives] == ["Dev"] * 8
        assert transport.submits == 1 and transport.attempts == 2
        assert faulty.submits == 2  # one fault consumed by the whole batch
        assert service.reports == 8  # only the successful attempt reached it
        assert breaker.state is BreakerState.CLOSED  # one failure, not eight

    def test_latency_passthrough(self):
        transport, _, _, _ = _resilient(None)
        assert transport.latency == DirectTransport.latency

    def test_metrics_recorded(self):
        with use_provider(RecordingProvider()) as provider:
            transport, _, _, _ = _resilient(None, schedule=[Fault.error(), Fault.timeout()])
            transport.submit(REPORT)
        snapshot = metrics_snapshot(provider.metrics)
        assert "transport_retries_total" in snapshot
        kinds = {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in snapshot["transport_faults_total"]["samples"]
        }
        assert kinds[(("kind", "error"),)] == 1
        assert kinds[(("kind", "timeout"),)] == 1

    def test_submit_spans_nest_attempts(self):
        with use_provider(RecordingProvider()) as provider:
            transport, _, _, _ = _resilient(None, schedule=[Fault.error()])
            transport.submit(REPORT)
        names = [record.name for record in provider.tracer.records()]
        assert names.count("transport.submit") == 1
        assert names.count("transport.submit.attempt") == 2
