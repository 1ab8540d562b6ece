"""Fault-tolerant gateway ↔ IoTSSP reporting.

The paper's deployment splits identification across the user-premises
Security Gateway and a *remote* IoT Security Service, possibly reached
over a Tor-like anonymizing path with substantial latency (Sect. III-B,
V).  At that distance the service will sometimes be slow, flaky or down,
so the reporting path needs an availability story:

* :class:`ResilientTransport` — a :class:`~.protocol.Transport` wrapper
  adding a per-attempt timeout budget, deterministic exponential backoff
  with seeded jitter, retry classification (transient transport faults
  are retried, fatal protocol errors are not) and a circuit breaker
  (closed → open → half-open) that fast-fails while the service is known
  to be unhealthy.
* :class:`FaultInjectingTransport` — a test/bench harness with a
  scriptable failure schedule (errors, timeouts, latency spikes,
  N-failures-then-recover) for exercising the gateway's degraded mode.

Everything here runs on an injectable :class:`ManualClock` and
seed-derived RNG: no wall-clock reads, no ambient randomness.  The same
seed therefore yields a byte-identical retry schedule, which the
fault-injection tests and ``benchmarks/bench_ext_outage.py`` rely on.
A real deployment injects a clock adapter over ``time.monotonic`` /
``time.sleep``; the simulated pipeline drives the clock from frame
timestamps.  See ``docs/robustness.md`` for the failure model.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .protocol import FingerprintReport, IsolationDirective, Transport

__all__ = [
    "TransportFault",
    "TransportTimeout",
    "ServiceUnavailable",
    "CircuitOpenError",
    "ProtocolError",
    "is_retryable",
    "ManualClock",
    "RetryPolicy",
    "backoff_delay",
    "backoff_schedule",
    "BreakerState",
    "CircuitBreaker",
    "ResilientTransport",
    "FaultKind",
    "Fault",
    "FaultInjectingTransport",
]


# --- fault taxonomy ----------------------------------------------------------


class TransportFault(Exception):
    """Base class for *transient* reporting faults — worth retrying."""


class TransportTimeout(TransportFault):
    """An attempt exceeded its latency budget (client-side deadline)."""


class ServiceUnavailable(TransportFault):
    """The service could not be reached or refused the connection."""


class CircuitOpenError(TransportFault):
    """Fast-fail: the circuit breaker is open, no attempt was made."""


class ProtocolError(Exception):
    """Fatal gateway↔service disagreement (malformed message, version

    mismatch).  Retrying an identical exchange cannot succeed, so these
    are never retried and propagate to the caller immediately.
    """


def is_retryable(exc: BaseException) -> bool:
    """Retry classification: transient transport faults vs. fatal errors.

    :class:`ProtocolError` is always fatal.  Transport faults plus the
    stdlib's connection-shaped exceptions are transient.  Anything else
    (a bug in the service, a ``KeyError`` from a stub) is treated as
    fatal so defects surface instead of being retried into oblivion.
    """
    if isinstance(exc, ProtocolError):
        return False
    return isinstance(exc, (TransportFault, TimeoutError, ConnectionError, OSError))


# --- clock -------------------------------------------------------------------


class ManualClock:
    """Injectable simulation clock: monotonic ``now`` plus explicit advance.

    The resilience layer never reads the wall clock; it asks this object.
    The gateway drives it from frame timestamps (``advance_to``), fault
    schedules add latency spikes (``advance``), and backoff "sleeps" are
    simulated time advancing (``sleep``).  A production deployment swaps
    in an adapter whose ``now``/``sleep`` call ``time.monotonic`` /
    ``time.sleep``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clock cannot run backwards")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Move forward to ``timestamp``; earlier timestamps are ignored."""
        if timestamp > self._now:
            self._now = timestamp

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)


# --- retry policy ------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for one resilient exchange: attempts, backoff shape, budget."""

    #: Total tries per exchange (first attempt + retries).
    max_attempts: int = 4
    #: Backoff before retry *n* (n ≥ 1) is ``base_delay * multiplier**(n-1)``,
    #: capped at ``max_delay``, then jittered.
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    #: Jitter fraction: each delay is scaled by a seed-derived factor
    #: drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.1
    #: Per-attempt latency budget, seconds; an attempt whose round trip
    #: exceeds it counts as a :class:`TransportTimeout` and is retried.
    attempt_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.base_delay < 0 or self.max_delay < 0 or self.attempt_timeout <= 0:
            raise ValueError("delays must be non-negative and the budget positive")


def backoff_delay(policy: RetryPolicy, seed: int, call: int, attempt: int) -> float:
    """Deterministic jittered backoff before retry ``attempt`` (1-based).

    The jitter RNG is derived from ``(seed, call, attempt)`` alone —
    string-seeded :class:`random.Random` hashes with SHA-512, so the
    value is stable across processes, platforms and ``PYTHONHASHSEED``.
    Different ``call`` tokens de-synchronize concurrent devices while
    keeping every schedule reproducible for a fixed seed.
    """
    if attempt < 1:
        raise ValueError("backoff applies from the first retry (attempt >= 1)")
    raw = min(policy.max_delay, policy.base_delay * policy.multiplier ** (attempt - 1))
    if policy.jitter <= 0.0 or raw <= 0.0:
        return raw
    rng = random.Random(f"resilience:{seed}:{call}:{attempt}")
    return raw * (1.0 + policy.jitter * (2.0 * rng.random() - 1.0))


def backoff_schedule(policy: RetryPolicy, seed: int, call: int = 0) -> tuple[float, ...]:
    """The full delay sequence one exchange would sleep through."""
    return tuple(
        backoff_delay(policy, seed, call, attempt)
        for attempt in range(1, policy.max_attempts)
    )


# --- circuit breaker ---------------------------------------------------------


class BreakerState(Enum):
    """closed: normal · open: fast-fail · half-open: probing recovery."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state availability breaker, driven by an external clock.

    ``failure_threshold`` *consecutive* failures trip CLOSED → OPEN.
    While OPEN, :meth:`allow` refuses calls until ``reset_timeout`` has
    elapsed, then the breaker probes in HALF_OPEN: ``half_open_successes``
    consecutive successes close it, any failure re-opens it.  All state
    changes invoke ``on_transition(old, new, now)`` and increment the
    ``transport_breaker_transitions_total`` counter.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_successes: int = 2,
        on_transition: Callable[[BreakerState, BreakerState, float], None] | None = None,
    ) -> None:
        if failure_threshold < 1 or half_open_successes < 1:
            raise ValueError("thresholds must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_successes = half_open_successes
        self.on_transition = on_transition
        # Re-entrant because allow/record_* hold the lock across their
        # call into _transition.  All breaker state below is mutated
        # under it — gateways may drive one breaker from several sweeps.
        self._lock = threading.RLock()
        self.state = BreakerState.CLOSED
        self.transitions: list[tuple[BreakerState, BreakerState, float]] = []
        self._consecutive_failures = 0
        self._half_open_streak = 0
        self._opened_at = 0.0

    @property
    def open_until(self) -> float:
        """Earliest time an OPEN breaker will admit a half-open probe."""
        return self._opened_at + self.reset_timeout

    def _transition(self, new: BreakerState, now: float) -> None:
        # ``on_transition`` fires with the lock held: callbacks observe a
        # consistent (state, transitions) pair but must not call back into
        # a *different* breaker that might be transitioning towards this
        # one.  The in-tree callbacks only log and count.
        with self._lock:
            old = self.state
            if old is new:
                return
            self.state = new
            self.transitions.append((old, new, now))
            obs_counter(
                obs_names.METRIC_BREAKER_TRANSITIONS,
                from_state=old.value,
                to_state=new.value,
            ).inc()
            if self.on_transition is not None:
                self.on_transition(old, new, now)

    def allow(self, now: float) -> bool:
        """May a call proceed at ``now``?  (OPEN → HALF_OPEN happens here.)"""
        with self._lock:
            if self.state is BreakerState.OPEN:
                if now - self._opened_at >= self.reset_timeout:
                    self._half_open_streak = 0
                    self._transition(BreakerState.HALF_OPEN, now)
                    return True
                return False
            return True

    def record_success(self, now: float) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self.state is BreakerState.HALF_OPEN:
                self._half_open_streak += 1
                if self._half_open_streak >= self.half_open_successes:
                    self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                self._opened_at = now
                self._transition(BreakerState.OPEN, now)
                return
            self._consecutive_failures += 1
            if self.state is BreakerState.CLOSED and (
                self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = now
                self._transition(BreakerState.OPEN, now)


# --- the resilient wrapper ---------------------------------------------------


class ResilientTransport(Transport):
    """A :class:`Transport` that survives a flaky service.

    Wraps any inner transport.  Each :meth:`submit_many` is one resilient
    exchange carrying the whole batch: up to ``policy.max_attempts``
    tries of ``inner.submit_many``, sleeping the deterministic jittered
    backoff between them on the injected clock, classifying failures via
    :func:`is_retryable`, enforcing the per-attempt latency budget, and
    consulting the circuit breaker before every attempt.  The batch is
    retried as a unit, and the breaker counts one success or failure per
    attempt, whatever the batch size.  Splitting a batch that keeps
    failing is the caller's job (the gateway bisects it).  The sequence
    of backoff delays actually slept is appended to :attr:`backoff_log`,
    so two runs with the same seed produce byte-identical schedules.

    ``now`` is the caller's notion of current time (simulation
    timestamps in the gateway); the clock is advanced to it first.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        policy: RetryPolicy | None = None,
        seed: int = 0,
        clock: ManualClock | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = seed
        self.clock = clock if clock is not None else ManualClock()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.submits = 0
        self.attempts = 0
        #: Every backoff delay slept, in order — the reproducible schedule.
        self.backoff_log: list[float] = []

    @property
    def latency(self) -> float:  # type: ignore[override]
        return self.inner.latency

    # Bound on the class itself, not inherited, so tracers that patch
    # ``ResilientTransport.submit`` (perfbench) find it.
    submit = Transport.submit

    def submit_many(
        self, reports: list[FingerprintReport], *, now: float | None = None
    ) -> list[IsolationDirective]:
        batch = list(reports)
        if now is not None:
            self.clock.advance_to(now)
        call = self.submits
        self.submits += 1
        with obs_span(obs_names.SPAN_TRANSPORT_SUBMIT, call=call, batch=len(batch)) as span:
            last_fault: Exception | None = None
            for attempt in range(self.policy.max_attempts):
                if not self.breaker.allow(self.clock.now()):
                    obs_counter(obs_names.METRIC_TRANSPORT_FAULTS, kind="circuit_open").inc()
                    span.set(outcome="circuit_open", attempts=attempt)
                    raise CircuitOpenError(
                        f"circuit open until t={self.breaker.open_until:.3f}"
                    ) from last_fault
                if attempt:
                    delay = backoff_delay(self.policy, self.seed, call, attempt)
                    self.backoff_log.append(delay)
                    obs_counter(obs_names.METRIC_TRANSPORT_RETRIES).inc()
                    self.clock.sleep(delay)
                self.attempts += 1
                started = self.clock.now()
                try:
                    with obs_span(obs_names.SPAN_TRANSPORT_ATTEMPT, call=call, attempt=attempt):
                        directives = self.inner.submit_many(batch)
                except Exception as exc:
                    if not is_retryable(exc):
                        obs_counter(obs_names.METRIC_TRANSPORT_FAULTS, kind="fatal").inc()
                        span.set(outcome="fatal", attempts=attempt + 1)
                        raise
                    kind = "timeout" if isinstance(exc, (TransportTimeout, TimeoutError)) else "error"
                    obs_counter(obs_names.METRIC_TRANSPORT_FAULTS, kind=kind).inc()
                    self.breaker.record_failure(self.clock.now())
                    last_fault = exc
                    continue
                elapsed = self.clock.now() - started
                if elapsed > self.policy.attempt_timeout:
                    # The answer arrived after the deadline: a real client
                    # would have hung up; discard it and count a timeout.
                    obs_counter(obs_names.METRIC_TRANSPORT_FAULTS, kind="timeout").inc()
                    self.breaker.record_failure(self.clock.now())
                    last_fault = TransportTimeout(
                        f"attempt {attempt} took {elapsed:.3f}s > budget {self.policy.attempt_timeout:.3f}s"
                    )
                    continue
                self.breaker.record_success(self.clock.now())
                span.set(outcome="ok", attempts=attempt + 1)
                return directives
            span.set(outcome="exhausted", attempts=self.policy.max_attempts)
            raise last_fault if last_fault is not None else ServiceUnavailable("no attempts made")


# --- fault injection ---------------------------------------------------------


class FaultKind(Enum):
    """What a scripted fault does to one exchange."""

    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"
    LATENCY = "latency"
    FATAL = "fatal"


@dataclass(frozen=True)
class Fault:
    """One step of a failure schedule; build via the factory methods."""

    kind: FaultKind
    latency: float = 0.0
    message: str = ""

    @classmethod
    def ok(cls) -> "Fault":
        return cls(FaultKind.OK)

    @classmethod
    def error(cls, message: str = "injected: connection refused") -> "Fault":
        return cls(FaultKind.ERROR, message=message)

    @classmethod
    def timeout(cls, message: str = "injected: deadline exceeded") -> "Fault":
        return cls(FaultKind.TIMEOUT, message=message)

    @classmethod
    def latency_spike(cls, seconds: float) -> "Fault":
        return cls(FaultKind.LATENCY, latency=seconds)

    @classmethod
    def fatal(cls, message: str = "injected: malformed response") -> "Fault":
        return cls(FaultKind.FATAL, message=message)


class FaultInjectingTransport(Transport):
    """Transport wrapper that replays a scripted failure schedule.

    One :class:`Fault` is consumed per exchange (one ``submit_many``
    call, whatever its batch size; ``submit`` is a batch of one); when
    the schedule is exhausted the transport passes through cleanly (the
    service has "recovered").  Latency spikes advance the shared :class:`ManualClock`
    so a wrapping :class:`ResilientTransport` sees the spike against its
    attempt budget.  Purely a test/bench harness — never constructed on
    the production path.
    """

    def __init__(
        self,
        inner: Transport,
        schedule: Iterable[Fault] = (),
        *,
        clock: ManualClock | None = None,
    ) -> None:
        self.inner = inner
        self.schedule = deque(schedule)
        self.clock = clock
        self.submits = 0
        self.faults_injected = 0

    @classmethod
    def failing(
        cls, inner: Transport, failures: int, *, clock: ManualClock | None = None
    ) -> "FaultInjectingTransport":
        """N-failures-then-recover: the canonical outage script."""
        return cls(inner, [Fault.error()] * failures, clock=clock)

    @property
    def latency(self) -> float:  # type: ignore[override]
        return self.inner.latency

    def submit_many(
        self, reports: list[FingerprintReport], *, now: float | None = None
    ) -> list[IsolationDirective]:
        self.submits += 1
        fault = self.schedule.popleft() if self.schedule else Fault.ok()
        if fault.kind is FaultKind.OK:
            return self.inner.submit_many(reports, now=now)
        self.faults_injected += 1
        if fault.kind is FaultKind.LATENCY:
            if self.clock is not None:
                self.clock.advance(fault.latency)
            return self.inner.submit_many(reports, now=now)
        if fault.kind is FaultKind.TIMEOUT:
            raise TransportTimeout(fault.message)
        if fault.kind is FaultKind.ERROR:
            raise ServiceUnavailable(fault.message)
        raise ProtocolError(fault.message)
