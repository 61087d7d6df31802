"""CI smoke: the telemetry spine must export correct, parseable metrics.

Run as a script (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_metrics.py --n 6

Drives the real CLI in subprocesses (fresh registries, real pool workers,
real files) and checks the whole export chain:

* an instrumented sharded census build writes a Prometheus exposition
  that *parses* (HELP/TYPE headers, cumulative ``le`` buckets ending in
  ``+Inf == count``) and carries the core series — kernel-seconds
  histograms, cache hit/miss counters, shard tallies;
* the shard counters in the exposition **exactly equal** the tallies in
  the run's ``manifest.json`` (compute run and warm resume run);
* ``repro stats`` renders a JSON snapshot written by another process;
* ``REPRO_METRICS=0`` yields an empty exposition — the kill-switch
  reaches every instrumented site.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO, "src")


def run_cli(args, metrics_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if metrics_env is not None:
        env["REPRO_METRICS"] = metrics_env
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True,
    )


def parse_exposition(text):
    """Parse a Prometheus text exposition into ``{series: value}``.

    Validates the line grammar as it goes: every non-comment line must be
    ``name[{labels}] value`` and every TYPE header must precede its
    family's samples.
    """
    series = {}
    typed = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        assert body and value, f"malformed sample line: {line!r}"
        family = body.partition("{")[0]
        base = family
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        assert base in typed or family in typed, f"sample before TYPE: {line!r}"
        series[body] = float(value)
    return series


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="census size (default 6)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-metrics-") as tmp:
        shard_dir = os.path.join(tmp, "shards")
        prom_path = os.path.join(tmp, "census.prom")
        json_path = os.path.join(tmp, "census.json")

        # ---- compute run: exposition parses, core series present ------- #
        result = run_cli(
            [
                "census", "--n", str(args.n), "--no-ucg",
                "--shard-dir", shard_dir, "--metrics-out", prom_path,
            ]
        )
        check(result.returncode == 0, f"census build failed:\n{result.stderr}")
        with open(prom_path, encoding="utf-8") as handle:
            series = parse_exposition(handle.read())
        for needle in (
            'repro_kernel_seconds_count{kernel="batch_stability_deltas"}',
            'repro_kernel_graphs_total{kernel="batch_stability_deltas"}',
            'repro_cache_hits_total{cache="census-store"}',
            'repro_cache_misses_total{cache="census-store"}',
            'repro_shards_computed_total{prefix="shard"}',
            'repro_shards_resumed_total{prefix="shard"}',
            'repro_shard_retries_total{prefix="shard"}',
            'repro_shard_bytes_written_total',
            'repro_stream_classes_total{store="census"}',
        ):
            check(needle in series, f"missing series {needle}")
        bucket_inf = [
            key for key in series
            if key.startswith("repro_kernel_seconds_bucket") and 'le="+Inf"' in key
        ]
        check(bucket_inf, "kernel-seconds histogram has no +Inf bucket")
        for key in bucket_inf:
            # The +Inf bucket of a cumulative histogram must equal _count.
            labels = key[key.index("{") + 1:-1].split(",")
            kept = ",".join(l for l in labels if not l.startswith("le="))
            count_key = f"repro_kernel_seconds_count{{{kept}}}"
            check(
                series[key] == series[count_key],
                f"+Inf bucket {series[key]} != count {series[count_key]} ({kept})",
            )
        with open(os.path.join(shard_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)

        # ---- shard counters exactly equal the manifest tallies --------- #
        pairs = (
            ("repro_shards_computed_total", "computed"),
            ("repro_shards_resumed_total", "resumed"),
            ("repro_shard_retries_total", "retries"),
            ("repro_shard_timeouts_total", "timeouts"),
        )
        for metric, field in pairs:
            got = series[f'{metric}{{prefix="shard"}}']
            want = manifest[field]
            check(
                got == want,
                f"{metric} = {got} but manifest {field} = {want}",
            )
        check(manifest["computed"] == manifest["total"], "compute run resumed shards?")

        # ---- warm resume run: every shard resumed, counters agree ------ #
        result = run_cli(
            [
                "census", "--n", str(args.n), "--no-ucg",
                "--shard-dir", shard_dir, "--metrics-out", json_path,
            ]
        )
        check(result.returncode == 0, f"census resume failed:\n{result.stderr}")
        with open(json_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        with open(os.path.join(shard_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        check(manifest["resumed"] == manifest["total"], "warm resume recomputed shards")
        values = {
            (entry["name"], entry["labels"].get("prefix")): entry.get("value")
            for entry in snapshot["metrics"]
        }
        check(
            values[("repro_shards_resumed_total", "shard")] == manifest["resumed"],
            "resumed counter does not match the resume manifest",
        )
        check(
            values[("repro_shards_computed_total", "shard")] == 0,
            "resume run claims computed shards",
        )

        # ---- repro stats renders another process's snapshot ------------ #
        result = run_cli(["stats", json_path])
        check(result.returncode == 0, f"stats failed:\n{result.stderr}")
        check(
            "repro_shards_resumed_total" in result.stdout,
            "stats table is missing the shard counters",
        )
        result = run_cli(["stats", json_path, "--format", "prom"])
        check(result.returncode == 0, "stats --format prom failed")
        parse_exposition(result.stdout)

        # ---- kill-switch: REPRO_METRICS=0 exports nothing -------------- #
        off_path = os.path.join(tmp, "off.prom")
        result = run_cli(
            ["census", "--n", str(args.n), "--no-ucg", "--metrics-out", off_path],
            metrics_env="0",
        )
        check(result.returncode == 0, f"disabled-telemetry run failed:\n{result.stderr}")
        with open(off_path, encoding="utf-8") as handle:
            check(
                parse_exposition(handle.read()) == {},
                "REPRO_METRICS=0 still exported series",
            )

    print(
        f"OK: n={args.n} sharded census exposition parses, shard counters "
        "match the manifest on compute and resume, stats renders snapshots, "
        "and REPRO_METRICS=0 exports nothing"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
