"""The chase service process the ``service_mixed`` workload talks to.

Serves ``repro.service`` on an ephemeral localhost port and prints the port
as its first line.  Each line it then reads on standard input is a mark: it
answers with one JSON line holding its own CPU seconds so far (all threads)
and, with ``--trace 1``, how many dispatch and facade samples it has taken.
At the end of standard input it stops and prints one JSON line: its peak
resident memory and, with ``--trace 1``, the seconds spent inside each
``ChaseServer._dispatch`` (request routing, body decoding, executor wait and
the handler) and each ``ChaseService`` call, in order.

    python3 perfbench/serve.py --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service.http import ChaseServer  # noqa: E402
from repro.service.session import ChaseService  # noqa: E402

#: The facade calls the workload's routes reach.
SERVICE_CALLS = ("create_session", "post_facts")


def _timed(method, sink):
    def call(*args, **kwargs):
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    return call


def _timed_async(method, sink):
    async def call(*args, **kwargs):
        started = time.perf_counter()
        try:
            return await method(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    return call


async def _serve(server: ChaseServer, report: dict) -> None:
    await server.start()
    print(server.port, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def on_mark():
        if not sys.stdin.readline():
            loop.remove_reader(sys.stdin.fileno())
            stop.set()
            return
        mark = {"cpu": time.process_time()}
        mark.update((name, len(samples)) for name, samples in report.items())
        print(json.dumps(mark), flush=True)

    loop.add_reader(sys.stdin.fileno(), on_mark)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    service = ChaseService(default_wall_seconds=60.0)
    server = ChaseServer(service=service, host="127.0.0.1", port=0)
    report = {}
    if args.trace:
        calls, dispatches = [], []
        for name in SERVICE_CALLS:
            setattr(service, name, _timed(getattr(service, name), calls))
        server._dispatch = _timed_async(server._dispatch, dispatches)
        report.update(service_calls=calls, dispatches=dispatches)
    asyncio.run(_serve(server, report))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
