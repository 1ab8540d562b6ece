"""Fixture-project coverage for the flow-aware checkers (SL007, SL008, SL010).

Each test builds a small in-memory project through
``check_project_sources`` — the same entry point the runner uses — with
paths chosen so the repo-specific policy tables (declared shared-state
classes, the packets/gateway directories, the obs layer) apply to the
fixture exactly as they do to the real tree.
"""

from tools.sentinel_lint import SourceFile
from tools.sentinel_lint.checkers.sl010_obs_names import ObsNameDisciplineChecker
from tools.sentinel_lint.registry import get_checker
from tools.sentinel_lint.runner import check_project_sources


def lint(files: dict, checker, *, root: str = ".", full_src: bool = False):
    sources = [SourceFile(path=path, text=text) for path, text in files.items()]
    findings, _ = check_project_sources(
        sources, [checker], root=root, full_src=full_src
    )
    return findings


class TestSL007DeclaredState:
    MONITOR = "src/repro/gateway/monitor.py"

    def test_missing_lock_is_reported(self):
        findings = lint(
            {
                self.MONITOR: (
                    "class DeviceMonitor:\n"
                    "    def __init__(self):\n"
                    "        self._completed = []\n"
                    "    def push(self, event):\n"
                    "        self._completed.append(event)\n"
                )
            },
            get_checker("SL007"),
        )
        assert [f.code for f in findings] == ["SL007"]
        assert "defines no lock" in findings[0].message

    def test_unlocked_write_is_reported_locked_write_is_not(self):
        findings = lint(
            {
                self.MONITOR: (
                    "import threading\n"
                    "class DeviceMonitor:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._completed = []\n"
                    "    def push(self, event):\n"
                    "        self._completed.append(event)\n"
                    "    def drain(self):\n"
                    "        with self._lock:\n"
                    "            out = self._completed\n"
                    "            self._completed = []\n"
                    "        return out\n"
                )
            },
            get_checker("SL007"),
        )
        assert len(findings) == 1
        assert "without holding the owning lock" in findings[0].message
        assert findings[0].line == 7  # the append in push(), not drain()

    def test_constructor_writes_are_exempt(self):
        findings = lint(
            {
                self.MONITOR: (
                    "class DeviceMonitor:\n"
                    "    def __init__(self):\n"
                    "        self._completed = []\n"
                )
            },
            get_checker("SL007"),
        )
        assert findings == []


class TestSL007ThreadReachability:
    def test_unlocked_mutation_reachable_from_entry(self):
        findings = lint(
            {
                "src/repro/ml/worker.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "class Tally:\n"
                    "    def bump(self):\n"
                    "        self.count = self.count + 1\n"
                    "def entry(tally):\n"
                    "    tally.bump()\n"
                    "def driver(tallies):\n"
                    "    pool = ThreadPoolExecutor(4)\n"
                    "    for tally in tallies:\n"
                    "        pool.submit(entry, tally)\n"
                )
            },
            get_checker("SL007"),
        )
        assert [f.code for f in findings] == ["SL007"]
        assert "reachable from a thread entry" in findings[0].message
        assert "entry -> bump" in findings[0].message

    def test_locked_mutation_reachable_from_entry_is_clean(self):
        findings = lint(
            {
                "src/repro/ml/worker.py": (
                    "import threading\n"
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "class Tally:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.count = 0\n"
                    "    def bump(self):\n"
                    "        with self._lock:\n"
                    "            self.count = self.count + 1\n"
                    "def driver(tally):\n"
                    "    pool = ThreadPoolExecutor(4)\n"
                    "    pool.submit(tally.bump)\n"
                )
            },
            get_checker("SL007"),
        )
        assert findings == []

    def test_unreachable_mutation_is_clean(self):
        findings = lint(
            {
                "src/repro/ml/worker.py": (
                    "class Tally:\n"
                    "    def bump(self):\n"
                    "        self.count = self.count + 1\n"
                )
            },
            get_checker("SL007"),
        )
        assert findings == []


_PACKETS_BASE = (
    "class PacketError(Exception):\n    pass\n"
    "class DecodeError(PacketError):\n    pass\n"
    "class EncodeError(PacketError):\n    pass\n"
)


class TestSL008CodecTaxonomy:
    def test_adhoc_valueerror_is_reported_taxonomy_raise_is_not(self):
        findings = lint(
            {
                "src/repro/packets/base.py": _PACKETS_BASE,
                "src/repro/packets/codec.py": (
                    "from .base import DecodeError\n"
                    "def decode_header(data):\n"
                    "    if not data:\n"
                    "        raise ValueError('empty')\n"
                    "    raise DecodeError('bad')\n"
                ),
            },
            get_checker("SL008"),
        )
        # The ValueError is reported twice over: once by the taxonomy rule
        # and once by decode purity (it escapes a decode entry point).
        assert {f.code for f in findings} == {"SL008"}
        taxonomy = [f for f in findings if "raises ValueError" in f.message]
        assert len(taxonomy) == 1
        assert taxonomy[0].line == 4


class TestSL008DecodePurity:
    def test_encode_error_escaping_decode_path(self):
        findings = lint(
            {
                "src/repro/packets/base.py": _PACKETS_BASE,
                "src/repro/packets/frame.py": (
                    "from .base import DecodeError, EncodeError\n"
                    "def _pack_probe(value):\n"
                    "    raise EncodeError('wrong direction')\n"
                    "def decode_frame(data):\n"
                    "    return _pack_probe(data)\n"
                    "def decode_safe(data):\n"
                    "    try:\n"
                    "        return _pack_probe(data)\n"
                    "    except EncodeError:\n"
                    "        raise DecodeError('rewrapped')\n"
                ),
            },
            get_checker("SL008"),
        )
        assert [f.code for f in findings] == ["SL008"]
        assert "decode_frame may raise EncodeError" in findings[0].message


class TestSL008GatewayBoundary:
    GATEWAY = "src/repro/gateway/push.py"

    def test_unguarded_and_loop_guarded_calls(self):
        findings = lint(
            {
                self.GATEWAY: (
                    "class Pusher:\n"
                    "    def refresh(self, transport, reports):\n"
                    "        try:\n"
                    "            for report in reports:\n"
                    "                transport.submit(report)\n"
                    "        except Exception:\n"
                    "            pass\n"
                    "    def refresh_safe(self, transport, reports):\n"
                    "        for report in reports:\n"
                    "            try:\n"
                    "                transport.submit(report)\n"
                    "            except Exception:\n"
                    "                continue\n"
                    "    def push_one(self, transport, report):\n"
                    "        transport.submit(report)\n"
                )
            },
            get_checker("SL008"),
        )
        assert len(findings) == 2
        by_line = {f.line: f.message for f in findings}
        assert "guarded outside the loop" in by_line[5]
        assert "transport fault can escape" in by_line[15]

    def test_escape_propagates_through_private_helper(self):
        findings = lint(
            {
                self.GATEWAY: (
                    "class Relay:\n"
                    "    def _send(self, transport, report):\n"
                    "        transport.submit(report)\n"
                    "    def publish(self, transport, report):\n"
                    "        self._send(transport, report)\n"
                    "    def publish_guarded(self, transport, report):\n"
                    "        try:\n"
                    "            self._send(transport, report)\n"
                    "        except Exception:\n"
                    "            pass\n"
                )
            },
            get_checker("SL008"),
        )
        # _send is private (no direct finding); publish lets the fault out.
        assert len(findings) == 1
        assert "escape public gateway entry point publish" in findings[0].message


_OBS_NAMES = (
    'METRIC_PACKETS = "gw.packets_total"\n'
    'METRIC_DROPS = "gw.drops_total"\n'
    "METRIC_NAMES = (METRIC_PACKETS, METRIC_DROPS)\n"
)

_OBS_USER_HEAD = (
    "from repro.obs import counter\n"
    "from repro.obs import names as obs_names\n"
)


class TestSL010ObsNames:
    NAMES = "src/repro/obs/names.py"
    USER = "src/repro/gateway/use.py"

    def test_constant_fed_sinks_are_clean(self):
        findings = lint(
            {
                self.NAMES: _OBS_NAMES,
                self.USER: _OBS_USER_HEAD
                + (
                    "def f():\n"
                    "    counter(obs_names.METRIC_PACKETS, mode='setup').inc()\n"
                    "    counter(obs_names.METRIC_DROPS).inc()\n"
                ),
            },
            get_checker("SL010"),
            full_src=True,
        )
        assert findings == []

    def test_string_literal_sink_is_reported(self):
        findings = lint(
            {
                self.NAMES: _OBS_NAMES,
                self.USER: _OBS_USER_HEAD
                + (
                    "def f():\n"
                    "    counter(obs_names.METRIC_PACKETS).inc()\n"
                    "    counter(obs_names.METRIC_DROPS).inc()\n"
                    "    counter('adhoc_total').inc()\n"
                ),
            },
            get_checker("SL010"),
        )
        assert [f.code for f in findings] == ["SL010"]
        assert "'adhoc_total'" in findings[0].message

    def test_unused_name_only_fires_on_full_src_runs(self):
        files = {
            self.NAMES: _OBS_NAMES,
            self.USER: _OBS_USER_HEAD
            + "def f():\n    counter(obs_names.METRIC_PACKETS).inc()\n",
        }
        assert lint(files, get_checker("SL010")) == []
        findings = lint(files, get_checker("SL010"), full_src=True)
        assert [f.code for f in findings] == ["SL010"]
        assert "METRIC_DROPS is defined but never used" in findings[0].message

    def test_label_drift_against_docs(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "observability.md").write_text(
            "# Observability\n\n"
            "### Metrics\n\n"
            "| name | type | description |\n"
            "| --- | --- | --- |\n"
            "| `gw.packets_total` | counter (`mode`) | packets seen |\n",
            encoding="utf-8",
        )
        checker = ObsNameDisciplineChecker()
        checker.docs_path = "docs/observability.md"
        findings = lint(
            {
                self.NAMES: _OBS_NAMES,
                self.USER: _OBS_USER_HEAD
                + "def f():\n    counter(obs_names.METRIC_PACKETS).inc()\n",
            },
            checker,
            root=str(tmp_path),
        )
        assert [f.code for f in findings] == ["SL010"]
        assert "docs/observability.md documents" in findings[0].message
        assert "[mode]" in findings[0].message

    def test_call_sites_must_agree_without_docs(self):
        findings = lint(
            {
                self.NAMES: _OBS_NAMES,
                self.USER: _OBS_USER_HEAD
                + (
                    "def f():\n"
                    "    counter(obs_names.METRIC_PACKETS, mode='setup').inc()\n"
                    "    counter(obs_names.METRIC_PACKETS, reason='clock').inc()\n"
                ),
            },
            get_checker("SL010"),
        )
        assert [f.code for f in findings] == ["SL010"]
        assert "other call sites use" in findings[0].message
