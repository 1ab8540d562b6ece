"""Extension — software-update fingerprint drift (Sect. VIII-B).

During the paper's data collection, firmware updates to three devices
"led to generate distinguishable fingerprints between software versions"
— supporting the definition of device type as make + model + software
version, and the observation that "vulnerability patching would change the
fingerprint of a device".  This experiment updates three devices, enrolls
the new versions as their own types (incrementally — no global
relearning), and measures version separability.
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.core import DeviceIdentifier
from repro.devices import apply_firmware_update, collect_fingerprints, profile_by_name
from repro.reporting import render_table

UPDATED = ("SmarterCoffee", "iKettle2", "D-LinkCam")


def test_ext_firmware_version_separability(corpus, benchmark):
    def run():
        # The identifier enrols into its own copy of the corpus, so the
        # session corpus keeps the 27 paper types the other benches expect.
        identifier = DeviceIdentifier(random_state=5).fit(corpus)
        rng = np.random.default_rng(77)
        rows = []
        for name in UPDATED:
            v2_profile = apply_firmware_update(profile_by_name(name))
            identifier.add_type(
                v2_profile.identifier, collect_fingerprints(v2_profile, runs=20, rng=rng)
            )
            # The old version's classifier is retrained so it sees the new
            # version among its negatives (a vendor patch rollout).
            identifier.remove_type(name)
            identifier.add_type(name, corpus.fingerprints(name))
            test_v2 = collect_fingerprints(v2_profile, runs=10, rng=rng)
            test_v1 = collect_fingerprints(profile_by_name(name), runs=10, rng=rng)
            v2_correct = sum(identifier.identify(fp).label == v2_profile.identifier for fp in test_v2)
            v1_correct = sum(identifier.identify(fp).label == name for fp in test_v1)
            v2_as_v1 = sum(identifier.identify(fp).label == name for fp in test_v2)
            rows.append((name, v1_correct, v2_correct, v2_as_v1))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ext_firmware.txt",
        render_table(
            ["Device", "v1 identified as v1", "v2 identified as v2", "v2 misread as v1"],
            [[n, f"{a}/10", f"{b}/10", f"{c}/10"] for n, a, b, c in rows],
        ),
    )

    # The paper's observation: versions produce distinguishable
    # fingerprints — the updated firmware is never mistaken for the old.
    for name, _v1, v2_correct, v2_as_v1 in rows:
        assert v2_as_v1 <= 1, name
        assert v2_correct >= 6, name
