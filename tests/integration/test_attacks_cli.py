"""Attack scenario containment and CLI workflow tests."""

from repro.attacks import (
    C2Beacon,
    DataExfiltration,
    InboundRemoteAccess,
    LateralPortScan,
    run_attack,
)
from repro.cli import main as cli_main
from repro.gateway import SecurityGateway
from repro.sdn import IsolationLevel
from repro.securityservice import DirectTransport, IsolationDirective


class _Scripted:
    def __init__(self, level):
        self.level = level

    def handle_reports(self, reports):
        return [IsolationDirective(device_type="Dev", level=self.level) for _ in reports]


DEV = "aa:00:00:00:00:01"
PEER = "aa:00:00:00:00:02"
DEV_IP = "192.168.1.20"
PEER_IP = "192.168.1.21"


def _gateway(level, peer_level=IsolationLevel.TRUSTED):
    gateway = SecurityGateway(DirectTransport(_Scripted(level)))
    gateway.attach_device(DEV)
    gateway.attach_device(PEER)
    gateway.preauthorize(DEV, level)
    gateway.preauthorize(PEER, peer_level)
    return gateway


class TestAttackContainment:
    def test_exfiltration_contained_for_strict(self, rng):
        gateway = _gateway(IsolationLevel.STRICT)
        scenario = DataExfiltration(
            device_mac=DEV, device_ip=DEV_IP, gateway_mac=gateway.gateway_mac
        )
        report = run_attack(gateway, scenario, rng=rng)
        assert report.contained
        assert report.containment_rate == 1.0
        assert report.frames_sent == 20

    def test_exfiltration_succeeds_for_trusted(self, rng):
        # Counterfactual: without isolation the attack would work.
        gateway = _gateway(IsolationLevel.TRUSTED)
        scenario = DataExfiltration(
            device_mac=DEV, device_ip=DEV_IP, gateway_mac=gateway.gateway_mac
        )
        report = run_attack(gateway, scenario, rng=rng)
        assert not report.contained
        assert report.frames_delivered == report.frames_sent

    def test_lateral_scan_contained_across_overlays(self, rng):
        gateway = _gateway(IsolationLevel.STRICT, peer_level=IsolationLevel.TRUSTED)
        scenario = LateralPortScan(
            device_mac=DEV, device_ip=DEV_IP, target_mac=PEER, target_ip=PEER_IP
        )
        report = run_attack(gateway, scenario, rng=rng)
        assert report.contained

    def test_lateral_scan_within_untrusted_overlay_not_blocked(self, rng):
        # Both devices untrusted: the overlay does not isolate them from
        # each other (Fig. 3) — documents the design's residual risk.
        gateway = _gateway(IsolationLevel.STRICT, peer_level=IsolationLevel.STRICT)
        scenario = LateralPortScan(
            device_mac=DEV, device_ip=DEV_IP, target_mac=PEER, target_ip=PEER_IP
        )
        report = run_attack(gateway, scenario, rng=rng)
        assert not report.contained

    def test_c2_beacon_contained_for_restricted(self, rng):
        gateway = SecurityGateway(DirectTransport(_Scripted(IsolationLevel.RESTRICTED)))
        gateway.attach_device(DEV)
        gateway.preauthorize(
            DEV, IsolationLevel.RESTRICTED, permitted_endpoints={"52.30.0.1"}
        )
        scenario = C2Beacon(device_mac=DEV, device_ip=DEV_IP, gateway_mac=gateway.gateway_mac)
        report = run_attack(gateway, scenario, rng=rng)
        assert report.contained

    def test_inbound_access_to_strict_device(self, rng):
        gateway = _gateway(IsolationLevel.STRICT)
        scenario = InboundRemoteAccess(target_mac=DEV, target_ip=DEV_IP)
        report = run_attack(gateway, scenario, rng=rng)
        # Inbound WAN frames reach the learning switch; the strict device's
        # own replies are what the sentinel kills (tested elsewhere), so
        # here we just require the harness to classify every frame.
        assert report.frames_sent == 5
        assert report.frames_dropped + report.frames_delivered <= report.frames_sent


class TestCLI:
    def test_devices_listing(self, capsys):
        assert cli_main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Aria" in out and "iKettle2" in out

    def test_simulate_identify_workflow(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        model = tmp_path / "model.json"
        pcap = tmp_path / "device.pcap"

        # Small corpus via the library (the CLI default of 27x20 is slow).
        from repro.core import DeviceIdentifier, save_identifier, save_registry
        from repro.devices import DEVICE_PROFILES, collect_dataset

        registry = collect_dataset(DEVICE_PROFILES[:6], runs_per_device=8, seed=4)
        save_registry(registry, corpus)
        save_identifier(DeviceIdentifier(random_state=2).fit(registry), model)

        name = registry.labels[0]
        assert cli_main(["simulate", "--device", name, "--seed", "9", "--output", str(pcap)]) == 0
        capsys.readouterr()
        assert cli_main(["identify", "--model", str(model), "--pcap", str(pcap)]) == 0
        out = capsys.readouterr().out
        assert "device type" in out
        assert "isolation level" in out

    def test_identify_with_explicit_mac(self, tmp_path, capsys):
        from repro.core import DeviceIdentifier, save_identifier
        from repro.devices import DEVICE_PROFILES, collect_dataset

        registry = collect_dataset(DEVICE_PROFILES[:4], runs_per_device=8, seed=4)
        model = tmp_path / "model.json"
        save_identifier(DeviceIdentifier(random_state=2).fit(registry), model)
        pcap = tmp_path / "x.pcap"
        assert cli_main(["simulate", "--device", "Aria", "--seed", "1", "--output", str(pcap)]) == 0
        mac = capsys.readouterr().out.split("device MAC: ")[1].splitlines()[0]
        assert cli_main(["identify", "--model", str(model), "--pcap", str(pcap), "--mac", mac]) == 0

    def test_identify_wrong_mac_errors(self, tmp_path, capsys):
        from repro.core import DeviceIdentifier, save_identifier
        from repro.devices import DEVICE_PROFILES, collect_dataset

        registry = collect_dataset(DEVICE_PROFILES[:4], runs_per_device=8, seed=4)
        model = tmp_path / "model.json"
        save_identifier(DeviceIdentifier(random_state=2).fit(registry), model)
        pcap = tmp_path / "x.pcap"
        cli_main(["simulate", "--device", "Aria", "--seed", "1", "--output", str(pcap)])
        capsys.readouterr()
        rc = cli_main(
            ["identify", "--model", str(model), "--pcap", str(pcap), "--mac", "00:11:22:33:44:55"]
        )
        assert rc == 1

    def test_evaluate(self, tmp_path, capsys):
        from repro.core import save_registry
        from repro.devices import DEVICE_PROFILES, collect_dataset

        registry = collect_dataset(DEVICE_PROFILES[:4], runs_per_device=8, seed=4)
        corpus = tmp_path / "corpus.json"
        save_registry(registry, corpus)
        assert cli_main(["evaluate", "--corpus", str(corpus), "--folds", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "global accuracy" in out
