"""Start the artifact server with the benchmark's layer wrappers installed.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py --dir ARTIFACTS --trace-out TRACE.json

Installs the wrappers of ``layers.py`` and then calls
``repro.service.serve_forever`` — the entry point behind ``repro serve`` —
with the command line's defaults and ``--port 0``.  On SIGTERM the server
drains, returns, and the launcher writes its spans and tallies to
``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer, install  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--run-id", default="serve_n8")
    args = parser.parse_args(argv)
    tracer = Tracer(args.run_id)
    install(tracer)
    from repro.service import serve_forever

    code = serve_forever(args.dir, port=0)
    tracer.finish()
    dump = tracer.dump()
    dump["pid"] = os.getpid()
    tmp = f"{args.trace_out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    os.replace(tmp, args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
