"""The IoTSSP HTTP server child of the ``iotssp_http`` workload.

Run as ``python -m perfbench.server [--trace-out PATH --id-base N]`` from the repo
root with ``src`` importable.  It trains an ``IoTSecurityService`` on the
lab corpus minus the held-out profiles, serves it through
``ServiceApp`` + ``SecurityServiceHTTPServer`` on an ephemeral port, and
prints ``ready <port>``.  It then answers one-line commands on stdin:

``trace on`` / ``trace off``
    install or remove the span wrappers (only with ``--trace-out``);
``digest``
    print the model digest of the served bank;
``stats``
    print the process's peak RSS in MB;
``quit`` (or end of input)
    stop serving, write the spans to ``--trace-out`` and exit.
"""

from __future__ import annotations

import argparse
import sys

from repro.securityservice.http.app import ServiceApp
from repro.securityservice.http.server import SecurityServiceHTTPServer
from repro.securityservice.service import IoTSecurityService

from perfbench import common
from perfbench.tracing import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default="")
    parser.add_argument(
        "--id-base", type=int, default=0, help="first span id, unique per process"
    )
    args = parser.parse_args(argv)
    tracer = Tracer(id_base=args.id_base) if args.trace_out else None
    if tracer is not None:
        tracer.install()
    corpus = common.lab_corpus()["base"]
    service = IoTSecurityService(
        random_state=common.MODEL_SEED, endpoint_directory=common.endpoint_directory()
    )
    service.train(common.registry_from(corpus, common.BASE_HTTP_TYPES))
    server = SecurityServiceHTTPServer(ServiceApp(service)).start()
    try:
        print(f"ready {server.port}", flush=True)
        if tracer is not None:
            tracer.uninstall()
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "trace on" and tracer is not None:
                tracer.install()
                reply = "ok"
            elif command == "trace off" and tracer is not None:
                tracer.uninstall()
                reply = "ok"
            elif command == "digest":
                reply = common.model_digest(service.identifier, corpus)
            elif command == "stats":
                reply = f"{common.peak_rss_mb():.6f}"
            else:
                reply = f"error unknown command {command!r}"
            print(reply, flush=True)
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
