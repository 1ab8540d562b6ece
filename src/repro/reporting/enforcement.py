"""Enforcement-overhead experiment runners (Table V / VI, Fig. 6)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gateway.gateway import SecurityGateway
from repro.netsim.eventsim import EventScheduler
from repro.netsim.flows import FlowLoadGenerator
from repro.netsim.gatewaymodel import ServiceCosts, SimulatedGateway
from repro.netsim.measurement import LatencyProbe, measure_rtt
from repro.netsim.resources import MemoryModel
from repro.netsim.topology import LabTopology
from repro.sdn.overlay import IsolationLevel
from repro.sdn.rules import EnforcementRule


class _NullService:
    """Stand-in IoTSSP for experiments that never profile a device."""

    def handle_reports(self, reports):  # pragma: no cover - never called
        raise AssertionError("performance experiments pre-authorize devices")


from repro.securityservice.protocol import DirectTransport  # noqa: E402

__all__ = [
    "Testbed",
    "build_testbed",
    "LatencyCell",
    "run_latency_matrix",
    "run_flow_sweep",
    "run_cpu_sweep",
    "run_memory_sweep",
]

#: The (source, destination) pairs of Table V.
TABLE5_PAIRS = (
    ("D1", "D4"), ("D1", "Slocal"), ("D1", "Sremote"),
    ("D2", "D4"), ("D2", "Slocal"), ("D2", "Sremote"),
    ("D3", "D4"), ("D3", "Slocal"), ("D3", "Sremote"),
)


@dataclass
class Testbed:
    """One instantiated Fig. 4 environment."""

    gateway: SecurityGateway
    scheduler: EventScheduler
    simgw: SimulatedGateway
    topology: LabTopology

    def probe(self, rng: np.random.Generator) -> LatencyProbe:
        return LatencyProbe(self.topology, self.simgw, rng=rng)


def build_testbed(*, filtering: bool, costs: ServiceCosts | None = None) -> Testbed:
    """A fresh gateway + topology, filtering on or off."""
    if filtering:
        gateway = SecurityGateway(DirectTransport(_NullService()), filtering=True)
    else:
        gateway = SecurityGateway(filtering=False)
    scheduler = EventScheduler()
    simgw = SimulatedGateway(
        gateway=gateway, scheduler=scheduler, costs=costs or ServiceCosts()
    )
    topology = LabTopology(gateway)
    return Testbed(gateway=gateway, scheduler=scheduler, simgw=simgw, topology=topology)


@dataclass(frozen=True)
class LatencyCell:
    """One Table V cell: RTT with and without filtering, ms."""

    src: str
    dst: str
    filtering_mean: float
    filtering_std: float
    baseline_mean: float
    baseline_std: float

    @property
    def overhead_percent(self) -> float:
        return 100.0 * (self.filtering_mean - self.baseline_mean) / self.baseline_mean


def run_latency_matrix(
    *, iterations: int = 15, seed: int = 0, pairs=TABLE5_PAIRS
) -> list[LatencyCell]:
    """Reproduce Table V: per-pair RTT, filtering vs no filtering.

    Both modes share the same link-latency random draws so the comparison
    isolates the gateway mechanism, like measuring on the same physical
    testbed.
    """
    cells = []
    measured: dict[bool, dict[tuple[str, str], tuple[float, float]]] = {}
    for filtering in (True, False):
        testbed = build_testbed(filtering=filtering)
        probe = testbed.probe(np.random.default_rng(seed))
        measured[filtering] = {
            pair: measure_rtt(probe, *pair, iterations=iterations) for pair in pairs
        }
    for pair in pairs:
        f_mean, f_std = measured[True][pair]
        b_mean, b_std = measured[False][pair]
        cells.append(
            LatencyCell(
                src=pair[0],
                dst=pair[1],
                filtering_mean=f_mean,
                filtering_std=f_std,
                baseline_mean=b_mean,
                baseline_std=b_std,
            )
        )
    return cells


def run_flow_sweep(
    flow_counts=(20, 40, 60, 80, 100, 120, 140),
    *,
    duration: float = 40.0,
    iterations: int = 15,
    seed: int = 0,
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 6a: probe latency (ms) vs number of concurrent flows.

    Returns series keyed ``"D1-D2 (w Filtering)"`` etc., matching the
    figure's four lines.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for pair_index, pair in enumerate((("D1", "D2"), ("D1", "D3"))):
        for filtering in (True, False):
            key = f"{pair[0]}-{pair[1]} ({'w' if filtering else 'wo'} Filtering)"
            points = []
            for count in flow_counts:
                testbed = build_testbed(filtering=filtering)
                load = FlowLoadGenerator(
                    testbed.topology,
                    testbed.simgw,
                    testbed.scheduler,
                    rng=np.random.default_rng(seed + count),
                )
                load.start(load.make_flows(count), duration=duration)
                probe = testbed.probe(np.random.default_rng(seed + 7919 * pair_index))
                mean, _std = measure_rtt(probe, *pair, iterations=iterations)
                points.append((count, mean))
            series[key] = points
    return series


def run_cpu_sweep(
    flow_counts=(0, 20, 40, 60, 80, 100, 120, 140),
    *,
    duration: float = 40.0,
    seed: int = 0,
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 6b: gateway CPU utilization (%) vs concurrent flows."""
    series: dict[str, list[tuple[int, float]]] = {}
    for filtering in (True, False):
        key = "With Filtering" if filtering else "Without Filtering"
        points = []
        for count in flow_counts:
            testbed = build_testbed(filtering=filtering)
            if count:
                load = FlowLoadGenerator(
                    testbed.topology,
                    testbed.simgw,
                    testbed.scheduler,
                    rng=np.random.default_rng(seed + count),
                )
                load.start(load.make_flows(count), duration=duration)
            testbed.scheduler.run_until(duration)
            points.append((count, 100.0 * testbed.simgw.utilization(duration)))
        series[key] = points
    return series


def run_memory_sweep(
    rule_counts=(0, 2500, 5000, 10000, 15000, 20000),
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 6c: gateway memory (MB) vs number of enforcement rules."""
    model = MemoryModel()
    series: dict[str, list[tuple[int, float]]] = {"With Filtering": [], "Without Filtering": []}
    for count in rule_counts:
        testbed = build_testbed(filtering=True)
        for i in range(count):
            mac = f"0e:{(i >> 16) & 255:02x}:{(i >> 8) & 255:02x}:{i & 255:02x}:00:01"
            testbed.gateway.rule_cache.insert(
                EnforcementRule(
                    device_mac=mac,
                    level=IsolationLevel.RESTRICTED,
                    permitted_ips=frozenset({"52.1.2.3"}),
                )
            )
        series["With Filtering"].append((count, model.memory_mb(testbed.gateway)))
        baseline = build_testbed(filtering=False)
        series["Without Filtering"].append((count, model.memory_mb(baseline.gateway)))
    return series
