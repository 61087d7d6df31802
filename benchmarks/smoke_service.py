"""CI smoke: the artifact server must serve CLI-identical answers.

Run as a script (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_service.py --n 5

Drives the real CLI in subprocesses (a real server process, real sockets,
real signals) and checks the whole census-as-a-service chain:

* ``repro serve --dir ... --port 0`` starts, prints the bound port, and
  answers ``/healthz`` with the library version;
* ``/metrics`` is a parseable Prometheus exposition carrying the HTTP
  request counter and latency histogram;
* ``repro query grid`` renders a figure table **byte-identical** to
  ``repro census --load --grid`` computed locally in another process;
* 8 concurrent identical grid requests return identical payloads (and the
  server's request counter shows every grid request answered 200);
* SIGTERM drains the server cleanly (exit code 0).

Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO, "src")

sys.path.insert(0, os.path.join(REPO, "benchmarks"))
from smoke_metrics import parse_exposition  # noqa: E402  (same directory)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=cli_env(), capture_output=True, text=True,
    )


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def start_server(artifact_dir):
    """``(process, base_url)`` for a serve subprocess on a free port."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--dir", artifact_dir, "--port", "0",
        ],
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    check(match is not None, f"serve did not announce a port: {line!r}")
    base = match.group(0)
    # Wait until /healthz answers (the announcement races the first accept
    # only in theory, but a poll keeps the smoke robust on slow machines).
    for _ in range(100):
        try:
            urllib.request.urlopen(base + "/healthz", timeout=1)
            break
        except OSError:
            time.sleep(0.05)
    else:
        check(False, "server never answered /healthz")
    return process, base


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.read().decode("utf-8")


def post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="census size (default 5)")
    parser.add_argument(
        "--points", type=int, default=12, help="grid points (default 12)"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-service-") as tmp:
        artifact = os.path.join(tmp, f"census{args.n}.npz")

        # ---- build the artifact and capture the local CLI answer ------- #
        result = run_cli(["census", "--n", str(args.n), "--save", artifact])
        check(result.returncode == 0, f"census build failed:\n{result.stderr}")
        result = run_cli(
            ["census", "--load", artifact, "--grid", str(args.points)]
        )
        check(result.returncode == 0, f"census --load failed:\n{result.stderr}")
        local_figure = result.stdout.split("\n\n", 1)[1]

        process, base = start_server(tmp)
        try:
            # ---- /healthz carries the library version ------------------ #
            health = json.loads(get(base, "/healthz"))
            check(health["status"] == "ok", f"healthz status {health}")
            check(health["artifacts"] == 1, f"healthz artifacts {health}")
            version = run_cli(["--version"]).stdout.strip()
            check(
                health["version"] == version,
                f"healthz version {health['version']} != CLI {version}",
            )

            # ---- query grid is byte-identical to the local CLI --------- #
            result = run_cli(
                [
                    "query", "grid", "--url", base,
                    "--artifact", f"census{args.n}.npz",
                    "--points", str(args.points),
                ]
            )
            check(result.returncode == 0, f"query grid failed:\n{result.stderr}")
            check(
                result.stdout == local_figure,
                "served figure table differs from census --load --grid",
            )

            # ---- 8 concurrent identical requests, identical payloads --- #
            def one(_):
                return post(
                    base, "/v1/query/grid",
                    {"artifact": f"census{args.n}.npz", "points": args.points},
                )

            with ThreadPoolExecutor(max_workers=8) as pool:
                payloads = list(pool.map(one, range(8)))
            check(
                all(payload == payloads[0] for payload in payloads),
                "concurrent grid responses disagree",
            )

            # ---- /metrics parses and carries the request series -------- #
            series = parse_exposition(get(base, "/metrics"))
            check(
                any(
                    key.startswith("repro_http_requests_total")
                    and 'path="/v1/query/grid"' in key
                    for key in series
                ),
                "request counter for /v1/query/grid missing from /metrics",
            )
            check(
                any(
                    key.startswith("repro_http_request_seconds_count")
                    for key in series
                ),
                "request latency histogram missing from /metrics",
            )
            answered = sum(
                value
                for key, value in series.items()
                if key.startswith("repro_http_requests_total")
                and 'path="/v1/query/grid"' in key
                and 'status="200"' in key
            )
            check(
                answered >= 9,
                f"{answered} grid requests answered 200, expected 9",
            )
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                check(False, "server did not exit within 15 s of SIGTERM")
        check(code == 0, f"server exited {code} on SIGTERM")

    print(
        f"OK: n={args.n} artifact served; healthz/metrics sound, query grid "
        "byte-identical to the local CLI, 8 concurrent requests agree, "
        "SIGTERM drains cleanly"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
