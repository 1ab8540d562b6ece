"""SL008: exception contracts at the codec and gateway boundaries.

Three rules, all whole-program:

* **Codec taxonomy** — every ``raise`` inside ``src/repro/packets`` must
  be a subclass of ``repro.packets.base.PacketError`` (bare re-raises
  excepted).  Callers catch ``DecodeError``/``EncodeError`` to survive
  malformed traffic; an ad-hoc ``ValueError`` sails straight past those
  handlers and kills a capture sweep.
* **Decode purity** — codec decode entry points (functions named
  ``decode*``) may *transitively* raise only ``DecodeError`` among the
  taxonomy: an ``EncodeError``
  escaping a decode path means a wrong-direction contract.
  Propagation follows intra-package call edges minus exceptions caught
  at the call site.
* **Gateway boundary** — calls that cross into the IoTSSP transport
  (``submit``/``submit_many``) must be guarded before they escape a
  public gateway entry point, and a guarded boundary call inside a loop
  must be guarded *per iteration* (PR 4's per-device fault isolation:
  one unreachable service must not abort a whole refresh sweep).
"""

from __future__ import annotations

from ..config import (
    BOUNDARY_CALLEES,
    BOUNDARY_ESCAPE_ALLOWED,
    BOUNDARY_GUARDS,
    GATEWAY_DIR,
    PACKETS_DIRS,
    PACKETS_EXCEPTION_ROOT,
)
from ..findings import Finding
from ..flow.facts import CallSite
from ..flow.project import FunctionInfo, Project
from ..registry import register
from .base import ProjectChecker

_DECODE_ROOT = "repro.packets.base.DecodeError"


def _in_dirs(path: str, dirs: tuple[str, ...]) -> bool:
    return any(path == d or path.startswith(d + "/") for d in dirs)


class _Taxonomy:
    """Subclass/catch queries over the project's exception classes."""

    def __init__(self, project: Project) -> None:
        self.project = project

    def ancestry(self, cls_qualname: str) -> set[str]:
        """``cls`` plus every project-resolvable ancestor (qualnames)."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.project.class_of(current)
            if info is None:
                continue
            for base in info.bases:
                resolved = self.project.resolve(info.module, base)
                if resolved is not None:
                    stack.append(resolved)
                else:
                    seen.add(base.split(".")[-1])  # builtin ancestor by name
        return seen

    def is_subclass(self, cls_qualname: str, root_qualname: str) -> bool:
        return root_qualname in self.ancestry(cls_qualname)

    def caught_by(self, cls_qualname: str, guards: frozenset[str]) -> bool:
        """Would ``except <g>`` for some g in guards catch this class?"""
        if "" in guards or "BaseException" in guards or "Exception" in guards:
            return True
        names = {q.split(".")[-1] for q in self.ancestry(cls_qualname)}
        return bool(names & guards)


@register
class ExceptionContractChecker(ProjectChecker):
    code = "SL008"
    name = "exception-contract"
    description = (
        "packet codecs raise only PacketError subtypes (DecodeError on decode "
        "paths); gateway boundary calls are caught per-device"
    )

    def check_project(self, project: Project) -> list[Finding]:
        taxonomy = _Taxonomy(project)
        findings: list[Finding] = []
        findings.extend(self._check_codec_raises(project, taxonomy))
        findings.extend(self._check_decode_purity(project, taxonomy))
        findings.extend(self._check_gateway_boundary(project))
        return findings

    # --- codec taxonomy -------------------------------------------------------

    def _packets_functions(self, project: Project) -> list[FunctionInfo]:
        return [
            info
            for info in project.functions.values()
            if _in_dirs(info.src.path, PACKETS_DIRS)
        ]

    def _check_codec_raises(
        self, project: Project, taxonomy: _Taxonomy
    ) -> list[Finding]:
        findings: list[Finding] = []
        graph = project.callgraph
        for info in sorted(self._packets_functions(project), key=lambda i: i.qualname):
            facts = graph.facts.get(info.qualname)
            if facts is None:
                continue
            for site in facts.raises:
                if site.is_reraise or site.exception is None:
                    continue
                resolved = project.resolve(info.module, site.exception)
                if resolved is not None and taxonomy.is_subclass(
                    resolved, PACKETS_EXCEPTION_ROOT
                ):
                    continue
                findings.append(
                    self.finding(
                        info.src,
                        site.node,
                        f"packet codec raises {site.exception} — codecs must "
                        "raise PacketError subtypes (DecodeError/EncodeError) "
                        "so malformed traffic cannot abort a capture sweep",
                    )
                )
        return findings

    # --- decode purity --------------------------------------------------------

    def _check_decode_purity(
        self, project: Project, taxonomy: _Taxonomy
    ) -> list[Finding]:
        graph = project.callgraph
        packets = {
            info.qualname: info for info in self._packets_functions(project)
        }
        # Fixpoint: qualname -> set of taxonomy class qualnames that may escape.
        raised: dict[str, set[str]] = {q: set() for q in packets}
        for qualname, info in packets.items():
            facts = graph.facts.get(qualname)
            if facts is None:
                continue
            for site in facts.raises:
                if site.is_reraise or site.exception is None:
                    continue
                resolved = project.resolve(info.module, site.exception)
                if resolved is None or not taxonomy.is_subclass(
                    resolved, PACKETS_EXCEPTION_ROOT
                ):
                    continue  # the taxonomy rule already reports these
                if not taxonomy.caught_by(resolved, site.guards):
                    raised[qualname].add(resolved)
        changed = True
        while changed:
            changed = False
            for qualname, info in packets.items():
                facts = graph.facts.get(qualname)
                if facts is None:
                    continue
                for call, callee in self._resolved_calls(graph, qualname, facts):
                    if callee not in raised:
                        continue
                    for exc in raised[callee]:
                        if exc in raised[qualname]:
                            continue
                        if taxonomy.caught_by(exc, call.guards):
                            continue
                        raised[qualname].add(exc)
                        changed = True
        findings: list[Finding] = []
        for qualname in sorted(packets):
            info = packets[qualname]
            if not info.name.startswith("decode"):
                continue
            bad = sorted(
                exc
                for exc in raised[qualname]
                if not taxonomy.is_subclass(exc, _DECODE_ROOT)
            )
            for exc in bad:
                findings.append(
                    self.finding(
                        info.src,
                        info.node,
                        f"decode path {info.name} may raise "
                        f"{exc.split('.')[-1]} — codec decode entry "
                        "points must raise only DecodeError",
                    )
                )
        return findings

    def _resolved_calls(self, graph, qualname: str, facts):
        """(call site, callee qualname) pairs using the graph's resolution."""
        pairs = []
        for call in facts.calls:
            callee = graph.resolve_call_site(qualname, call)
            if callee is not None:
                pairs.append((call, callee))
        return pairs

    # --- gateway boundary -----------------------------------------------------

    def _check_gateway_boundary(self, project: Project) -> list[Finding]:
        graph = project.callgraph
        gateway = {
            info.qualname: info
            for info in project.functions.values()
            if _in_dirs(info.src.path, (GATEWAY_DIR,))
        }

        def guarded(call: CallSite) -> bool:
            return bool(call.guards & BOUNDARY_GUARDS)

        # Fixpoint: a gateway function "escapes" if a transport fault can
        # propagate out of it — an unguarded boundary call, or an unguarded
        # call to another escaping gateway function.
        escapes: set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname in gateway:
                if qualname in escapes:
                    continue
                facts = graph.facts.get(qualname)
                if facts is None:
                    continue
                for call, callee in self._boundary_calls(graph, qualname, facts):
                    if guarded(call):
                        continue
                    if callee == "boundary" or callee in escapes:
                        escapes.add(qualname)
                        changed = True
                        break

        findings: list[Finding] = []
        for qualname in sorted(gateway):
            info = gateway[qualname]
            facts = graph.facts.get(qualname)
            if facts is None:
                continue
            for call, callee in self._boundary_calls(graph, qualname, facts):
                crosses = callee == "boundary" or callee in escapes
                if not crosses:
                    continue
                if not guarded(call):
                    if info.is_public and qualname not in BOUNDARY_ESCAPE_ALLOWED:
                        findings.append(
                            self.finding(
                                info.src,
                                call.node,
                                f"transport fault can escape public gateway "
                                f"entry point {info.name}: boundary call "
                                f"{call.name}() is not caught (wrap in "
                                "try/except TransportFault)",
                            )
                        )
                elif call.in_loop and not call.guarded_inside_loop:
                    findings.append(
                        self.finding(
                            info.src,
                            call.node,
                            f"boundary call {call.name}() inside a loop is "
                            "guarded outside the loop — catch per device so "
                            "one failed submit cannot abort the whole sweep",
                        )
                    )
        return findings

    def _boundary_calls(self, graph, qualname: str, facts):
        """(call, "boundary" | callee-qualname) pairs that may cross over.

        A call named ``submit``/``submit_many`` on an unresolved or
        non-gateway receiver is the boundary itself; a resolved call to
        another gateway function propagates that function's behaviour.
        """
        pairs = []
        for call in facts.calls:
            callee = graph.resolve_call_site(qualname, call)
            if call.name in BOUNDARY_CALLEES and (
                callee is None or not _in_dirs(
                    graph.project.functions[callee].src.path, (GATEWAY_DIR,)
                )
            ):
                pairs.append((call, "boundary"))
            elif callee is not None and _in_dirs(
                graph.project.functions[callee].src.path, (GATEWAY_DIR,)
            ):
                pairs.append((call, callee))
        return pairs
