"""The gateway server process of the ``gateway-travel`` workload.

Usage::

    PYTHONPATH=src python perfbench/server.py JOURNAL TRACE

Serves a :class:`~repro.gateway.app.GatewayApp`, with its journal at
``JOURNAL``, behind a :class:`~repro.gateway.http.GatewayServer` on a
loopback port, and prints ``ready PORT``.  With ``TRACE`` = 1 the
benchmark's layer wrappers are installed in this process first.  The
workload process then sends one command per line on stdin:

``reset``
    the timed phase starts: zero the traced figures, note the journal
    size; answers ``ok``.
``report``
    the timed phase ended: answers one JSON line with the traced
    figures, the journal bytes written since ``reset`` and the peak RSS.
``stop``
    close the server and the journal, and exit (so does end of input).

No question deadline can expire during a run: the question timeout is an
hour, and nothing here sleeps.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Optional

from layers import Tracer, install


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


async def serve(journal: str, tracer: Optional[Tracer]) -> None:
    from repro.gateway.app import GatewayApp, GatewayConfig
    from repro.gateway.http import GatewayServer

    app = GatewayApp(config=GatewayConfig(question_timeout=3600.0), journal_path=journal)
    server = GatewayServer(app)
    await server.start()
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    print(f"ready {server.port}", flush=True)
    journal_base = 0
    try:
        while True:
            command = (await commands.readline()).decode().strip()
            if command in ("", "stop"):
                break
            if command == "reset":
                if tracer is not None:
                    tracer.reset()
                journal_base = os.path.getsize(journal)
                print("ok", flush=True)
            elif command == "report":
                report = {
                    "trace": tracer.snapshot() if tracer is not None else None,
                    "journal_bytes": os.path.getsize(journal) - journal_base,
                    "peak_rss_mb": _peak_rss_mb(),
                }
                print(json.dumps(report), flush=True)
            else:
                print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    finally:
        await server.close()
        app.close()


def main(argv: list) -> int:
    journal, trace = argv[0], argv[1] == "1"
    tracer = install(Tracer()) if trace else None
    asyncio.run(serve(journal, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
