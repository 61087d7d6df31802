"""Machine-speed probe: times a fixed pure-Python kernel every 50 ms.

Usage: ``python3 perfbench/probe.py`` — runs until its standard input
closes, printing one line per sample: the ``perf_counter`` instant the
kernel finished and the CPU milliseconds it took.  ``run.py`` keeps one
probe running beside every operation; the median sample inside an
operation's time window says how fast the machine executed while it ran.
CPU time, not wall time, so that waiting for a CPU the operation itself
keeps busy does not count.
"""

from __future__ import annotations

import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from report import probe_kernel  # noqa: E402

INTERVAL_S = 0.05


def main() -> int:
    stop = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    while not stop.wait(INTERVAL_S):
        start = time.process_time()
        probe_kernel()
        took = time.process_time() - start
        print(f"{time.perf_counter()!r} {1000.0 * took!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
