"""The repository benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload estimate-cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``BENCHMARK.json`` (a layer the workload does not
run reads 0).  Report lines, the environment record among them, start with
``#``; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero,
printing no result, when the checkout has no ``src/repro`` to measure
or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ("estimate-cold", "profile-hot")
SERVICE = ("service-mix",)
#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def probe_seconds(workload: str, seed: int, seconds: float) -> float:
    """Wall time of a fresh process doing the workload's set-up."""
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "probe.py"),
            workload,
            str(seed),
            str(seconds),
        ],
        cwd=ROOT,
        check=True,
        timeout=PROBE_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def source_digest() -> str:
    """sha256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=LIBRARY + SERVICE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT} to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace = bool(args.trace)
    expected = expected_metrics(trace)

    def probe():
        return probe_seconds(args.workload, args.seed, args.seconds)

    if args.workload in LIBRARY:
        from perfbench import library

        result = library.run(
            args.workload, args.seed, args.seconds, trace, probe, SETUP_SAMPLES
        )
        result["server_flags"] = None
    else:
        from perfbench import service

        result = service.run(
            args.seed, args.seconds, trace, ROOT, probe, SETUP_SAMPLES
        )

    metrics = {}
    for name, unit in expected.items():
        value = result["metrics"].get(name, 0.0)
        if isinstance(value, tuple):
            value, unit = value
        metrics[name] = {"value": float(value), "unit": unit}
    unknown = set(result["metrics"]) - set(expected)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "backends": result["backends"],
        "server_flags": result["server_flags"],
        "ops": result["samples"],
    }
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"# {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
