"""Unit coverage for the whole-program flow substrate.

Synthetic multi-module projects are built from in-memory SourceFiles so
the tests pin exactly what the call-graph/facts layers claim:
qualified-name indexing, import-table resolution, conservative call
edges (including thread spawns) and lock/guard context in the facts
pass.
"""

import ast

from tools.sentinel_lint import SourceFile
from tools.sentinel_lint.flow import CallGraph, Project, function_facts
from tools.sentinel_lint.flow.project import module_name_for_path


def project_of(files: dict) -> Project:
    sources = [SourceFile(path=path, text=text) for path, text in files.items()]
    return Project(sources)


class TestModuleNames:
    def test_src_tree_maps_into_repro_package(self):
        assert module_name_for_path("src/repro/core/extractor.py") == "repro.core.extractor"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"

    def test_tools_tree_keeps_directory_prefix(self):
        assert (
            module_name_for_path("tools/sentinel_lint/runner.py")
            == "tools.sentinel_lint.runner"
        )


class TestProjectIndex:
    def test_functions_classes_and_nested_defs_get_qualnames(self):
        project = project_of(
            {
                "src/repro/a.py": (
                    "def top():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                    "class C:\n"
                    "    def m(self):\n"
                    "        pass\n"
                )
            }
        )
        assert "repro.a.top" in project.functions
        assert "repro.a.top.inner" in project.functions
        assert "repro.a.C" in project.classes
        assert "repro.a.C.m" in project.functions
        assert project.functions["repro.a.C.m"].cls == "repro.a.C"
        assert project.functions["repro.a.top.inner"].cls is None

    def test_import_table_resolves_aliases(self):
        project = project_of(
            {
                "src/repro/util.py": "def helper():\n    pass\n",
                "src/repro/user.py": (
                    "from repro import util\n"
                    "from repro.util import helper as h\n"
                ),
            }
        )
        assert project.resolve("repro.user", "util.helper") == "repro.util.helper"
        assert project.resolve("repro.user", "h") == "repro.util.helper"

    def test_relative_import_resolves_against_package(self):
        project = project_of(
            {
                "src/repro/pkg/base.py": "class Base:\n    def m(self):\n        pass\n",
                "src/repro/pkg/child.py": (
                    "from .base import Base\n"
                    "class Child(Base):\n"
                    "    pass\n"
                ),
            }
        )
        child = project.classes["repro.pkg.child.Child"]
        method = project.resolve_method(child, "m")
        assert method is not None
        assert method.qualname == "repro.pkg.base.Base.m"

    def test_syntax_error_files_are_skipped(self):
        project = project_of({"src/repro/bad.py": "def broken(:\n"})
        assert project.functions == {}


class TestCallGraph:
    def test_bare_and_self_and_dotted_edges(self):
        project = project_of(
            {
                "src/repro/mod.py": (
                    "from repro import other\n"
                    "def free():\n"
                    "    pass\n"
                    "class C:\n"
                    "    def a(self):\n"
                    "        self.b()\n"
                    "        free()\n"
                    "        other.far()\n"
                    "    def b(self):\n"
                    "        pass\n"
                ),
                "src/repro/other.py": "def far():\n    pass\n",
            }
        )
        graph = CallGraph(project)
        assert graph.edges["repro.mod.C.a"] == {
            "repro.mod.C.b",
            "repro.mod.free",
            "repro.other.far",
        }

    def test_unique_method_name_fallback(self):
        project = project_of(
            {
                "src/repro/x.py": (
                    "class Only:\n"
                    "    def distinctive(self):\n"
                    "        pass\n"
                    "def caller(thing):\n"
                    "    thing.distinctive()\n"
                )
            }
        )
        graph = CallGraph(project)
        assert "repro.x.Only.distinctive" in graph.edges["repro.x.caller"]

    def test_ambiguous_method_name_gets_no_edge(self):
        project = project_of(
            {
                "src/repro/x.py": (
                    "class A:\n"
                    "    def go(self):\n"
                    "        pass\n"
                    "class B:\n"
                    "    def go(self):\n"
                    "        pass\n"
                    "def caller(thing):\n"
                    "    thing.go()\n"
                )
            }
        )
        graph = CallGraph(project)
        assert graph.edges["repro.x.caller"] == set()

    def test_local_constructor_types_the_receiver(self):
        project = project_of(
            {
                "src/repro/x.py": (
                    "class Widget:\n"
                    "    def spin(self):\n"
                    "        pass\n"
                    "class Gadget:\n"
                    "    def spin(self):\n"
                    "        pass\n"
                    "def caller():\n"
                    "    w = Widget()\n"
                    "    w.spin()\n"
                )
            }
        )
        graph = CallGraph(project)
        assert "repro.x.Widget.spin" in graph.edges["repro.x.caller"]
        assert "repro.x.Gadget.spin" not in graph.edges["repro.x.caller"]


class TestThreadEntries:
    def test_executor_submit_and_map_mark_entries(self):
        project = project_of(
            {
                "src/repro/t.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "def work():\n"
                    "    pass\n"
                    "def mapped(item):\n"
                    "    pass\n"
                    "def driver(items):\n"
                    "    with ThreadPoolExecutor(4) as pool:\n"
                    "        pool.submit(work)\n"
                    "        pool.map(mapped, items)\n"
                )
            }
        )
        graph = CallGraph(project)
        assert graph.thread_entries == {"repro.t.work", "repro.t.mapped"}

    def test_thread_target_marks_entry(self):
        project = project_of(
            {
                "src/repro/t.py": (
                    "import threading\n"
                    "def loop():\n"
                    "    pass\n"
                    "def start():\n"
                    "    threading.Thread(target=loop, daemon=True).start()\n"
                )
            }
        )
        graph = CallGraph(project)
        assert graph.thread_entries == {"repro.t.loop"}

    def test_nested_function_entry_and_reachability(self):
        # A nested ``run`` handed to a thread pool's ``map``.
        project = project_of(
            {
                "src/repro/t.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "def helper():\n"
                    "    pass\n"
                    "def driver(items):\n"
                    "    def run(item):\n"
                    "        helper()\n"
                    "    with ThreadPoolExecutor() as pool:\n"
                    "        pool.map(run, items)\n"
                )
            }
        )
        graph = CallGraph(project)
        assert graph.thread_entries == {"repro.t.driver.run"}
        reachable = graph.reachable_from_thread_entries()
        assert "repro.t.helper" in reachable

    def test_submit_on_non_executor_is_not_an_entry(self):
        # ``transport.submit(report)`` is the gateway boundary, not a spawn.
        project = project_of(
            {
                "src/repro/t.py": (
                    "def send(transport, report):\n"
                    "    transport.submit(report)\n"
                )
            }
        )
        graph = CallGraph(project)
        assert graph.thread_entries == set()

    def test_path_to_entry_reconstructs_chain(self):
        project = project_of(
            {
                "src/repro/t.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "def deep():\n"
                    "    pass\n"
                    "def mid():\n"
                    "    deep()\n"
                    "def entry():\n"
                    "    mid()\n"
                    "def driver():\n"
                    "    pool = ThreadPoolExecutor(2)\n"
                    "    pool.submit(entry)\n"
                )
            }
        )
        graph = CallGraph(project)
        chain = graph.path_to_entry("repro.t.deep")
        assert chain == ["repro.t.entry", "repro.t.mid", "repro.t.deep"]


class TestFunctionFacts:
    def facts_of(self, text: str):
        node = ast.parse(text).body[0]
        return function_facts(node)

    def test_mutations_record_lock_context(self):
        facts = self.facts_of(
            "def m(self):\n"
            "    self.free = 1\n"
            "    with self._lock:\n"
            "        self.guarded = 2\n"
            "        self.items.append(3)\n"
        )
        by_attr = {m.attr: m for m in facts.mutations}
        assert by_attr["free"].locks_held == frozenset()
        assert by_attr["guarded"].locks_held == {"self._lock"}
        assert by_attr["items"].kind == "append"
        assert by_attr["items"].locks_held == {"self._lock"}

    def test_guard_and_loop_context_on_calls(self):
        facts = self.facts_of(
            "def sweep(self, devices):\n"
            "    try:\n"
            "        for mac in devices:\n"
            "            self.transport.submit(mac)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        call = next(c for c in facts.calls if c.name == "submit")
        assert call.guards == {"Exception"}
        assert call.in_loop
        assert not call.guarded_inside_loop

    def test_per_iteration_guard_is_inside_loop(self):
        facts = self.facts_of(
            "def sweep(self, devices):\n"
            "    for mac in devices:\n"
            "        try:\n"
            "            self.transport.submit(mac)\n"
            "        except Exception:\n"
            "            continue\n"
        )
        call = next(c for c in facts.calls if c.name == "submit")
        assert call.guarded_inside_loop

    def test_raises_and_reraise_detection(self):
        facts = self.facts_of(
            "def decode(data):\n"
            "    try:\n"
            "        raise DecodeError('x')\n"
            "    except DecodeError as exc:\n"
            "        raise\n"
        )
        first, second = facts.raises
        assert first.exception == "DecodeError"
        assert not first.is_reraise
        assert first.guards == {"DecodeError"}
        assert second.is_reraise

    def test_lock_attribute_constructors_are_collected(self):
        facts = self.facts_of(
            "def __init__(self):\n"
            "    self._lock = threading.Lock()\n"
            "    self._data = dict()\n"
        )
        assert facts.self_attr_ctors["_lock"] == ["threading.Lock"]

