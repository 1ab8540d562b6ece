"""Extension — which Table-I features carry the identification signal.

Aggregates split-count feature importance across all 27 per-type classifiers.
Confirms the design story of Sect. IV-A: behavioural structure — packet
sizes, destination ordering, port classes, protocol mix — does the work,
and no single protocol flag dominates (which is why the approach survives
encrypted traffic and vendor-specific payloads it never inspects).
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.core import FEATURE_NAMES, classifier_feature_importance
from repro.reporting import render_table


def test_ext_aggregate_feature_importance(corpus, trained_identifier, benchmark):
    def run():
        totals = {name: [] for name in FEATURE_NAMES}
        for label in trained_identifier.labels:
            report = classifier_feature_importance(trained_identifier, label)
            for name, value in report.by_feature.items():
                totals[name].append(value)
        return {name: float(np.mean(values)) for name, values in totals.items()}

    mean_importance = benchmark.pedantic(run, rounds=1, iterations=1)
    ranked = sorted(mean_importance.items(), key=lambda kv: -kv[1])
    write_result(
        "ext_feature_importance.txt",
        render_table(
            ["Feature (Table I)", "Mean importance across 27 classifiers"],
            [[name, f"{value:.3f}"] for name, value in ranked],
        ),
    )

    importance = dict(ranked)
    # The integer-valued structural features lead...
    structural = (
        importance["packet_size"]
        + importance["dst_ip_counter"]
        + importance["src_port_class"]
        + importance["dst_port_class"]
    )
    assert structural > 0.4
    # ...and no single binary protocol flag dominates the ensemble.
    protocol_flags = [importance[name] for name in FEATURE_NAMES[:16]]
    assert max(protocol_flags) < 0.3
    # Every feature is represented in the report.
    assert set(importance) == set(FEATURE_NAMES)
