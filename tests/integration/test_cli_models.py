"""Model files through the CLI: one npz format for `train`, `identify`
and `serve`, and a served model that enrols only when it has its corpus."""

import json

import numpy as np
import pytest

from repro.cli import _serving_service, build_parser
from repro.cli import main as cli_main
from repro.core import DeviceIdentifier, load_registry, save_identifier, save_registry
from repro.devices import DEVICE_PROFILES, collect_dataset, collect_fingerprints
from repro.securityservice import FingerprintReport
from repro.securityservice.http import ServiceApp
from repro.securityservice.http.wire import report_to_dict

NEW_TYPE = DEVICE_PROFILES[5].identifier


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    save_registry(collect_dataset(DEVICE_PROFILES[:4], runs_per_device=8, seed=4), path)
    return path


@pytest.fixture(scope="module")
def enrol_body():
    rng = np.random.default_rng(5)
    fingerprints = collect_fingerprints(DEVICE_PROFILES[5], runs=5, rng=rng)
    wire = [report_to_dict(FingerprintReport(fingerprint=fp))["fingerprint"] for fp in fingerprints]
    return json.dumps({"label": NEW_TYPE, "fingerprints": wire}).encode()


def write_json_model(path):
    """A model file in the JSON format older versions wrote."""
    path.write_text(json.dumps({"version": 1, "params": {"fp_length": 12}, "models": {}}))


def serving_app(*argv):
    service = _serving_service(build_parser().parse_args(["serve", *argv]))
    return service, ServiceApp(service)


class TestTrainRoutes:
    def test_no_store_miss_and_hit_write_identical_files(self, corpus_path, tmp_path, capsys):
        store = tmp_path / "store"
        outputs = [tmp_path / name for name in ("plain.npz", "miss.npz", "hit.npz")]
        base = ["train", "--corpus", str(corpus_path), "--seed", "5"]
        assert cli_main([*base, "--output", str(outputs[0])]) == 0
        assert cli_main([*base, "--output", str(outputs[1]), "--store", str(store)]) == 0
        assert "cache miss" in capsys.readouterr().out
        assert cli_main([*base, "--output", str(outputs[2]), "--store", str(store)]) == 0
        assert "cache hit" in capsys.readouterr().out
        payloads = [path.read_bytes() for path in outputs]
        assert payloads[1] == payloads[0] and payloads[2] == payloads[0]

    def test_output_lands_at_the_given_path(self, corpus_path, tmp_path):
        output = tmp_path / "model.json"
        args = ["train", "--corpus", str(corpus_path), "--seed", "5", "--output", str(output)]
        assert cli_main(args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestJsonModelRejected:
    def test_identify(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        write_json_model(model)
        pcap = tmp_path / "x.pcap"
        assert cli_main(["simulate", "--device", "Aria", "--seed", "1", "--output", str(pcap)]) == 0
        capsys.readouterr()
        assert cli_main(["identify", "--model", str(model), "--pcap", str(pcap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model) in err

    def test_serve(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        write_json_model(model)
        # Fails while loading, before any socket is bound.
        assert cli_main(["serve", "--model", str(model), "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model) in err


class TestServedEnrolment:
    @pytest.mark.parametrize("route", ["store miss", "store hit"])
    def test_corpus_with_store_enrols(self, route, corpus_path, enrol_body, tmp_path):
        argv = ["--corpus", str(corpus_path), "--store", str(tmp_path / "store"), "--seed", "5"]
        if route == "store hit":
            serving_app(*argv)
        service, app = serving_app(*argv)
        response = app.handle("POST", "/v1/types", {}, enrol_body)
        assert response.status == 201, response.body
        assert NEW_TYPE in service.known_types
        # The same model a service that trained at startup serves once it
        # enrolled the type.
        trained, trained_app = serving_app("--corpus", str(corpus_path), "--seed", "5")
        assert trained_app.handle("POST", "/v1/types", {}, enrol_body).status == 201
        save_identifier(service.identifier, tmp_path / "served.npz")
        save_identifier(trained.identifier, tmp_path / "trained.npz")
        assert (tmp_path / "served.npz").read_bytes() == (tmp_path / "trained.npz").read_bytes()

    def test_model_without_corpus_is_409_and_changes_nothing(self, corpus_path, enrol_body, tmp_path):
        model = tmp_path / "model.npz"
        save_identifier(DeviceIdentifier(random_state=5).fit(load_registry(corpus_path)), model)
        service, app = serving_app("--model", str(model))
        types = list(service.known_types)
        snapshot = service.identifier.snapshot
        for _ in range(2):
            response = app.handle("POST", "/v1/types", {}, enrol_body)
            assert response.status == 409
            assert "no training corpus" in response.json["error"]
        assert service.known_types == types
        assert service.identifier.snapshot is snapshot
        assert len(service.identifier.corpus) == 0
