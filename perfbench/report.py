"""Operation records and the metrics computed from them."""

from __future__ import annotations

import resource
import statistics
import sys
from dataclasses import dataclass, field

#: ``op_p90_ms`` needs at least 10 samples above it.
P90_MIN_OPS = 100
#: Failure lines printed per run; every failure is still counted.
MAX_FAILURE_LOGS = 20


@dataclass
class Op:
    """One timed operation."""

    seconds: float
    ok: bool = True
    traced: bool = False
    #: Traced operations only: layer -> self seconds, and the
    #: interpreted steps the op executed.
    layers: dict = field(default_factory=dict)
    steps: int = 0


class Failures:
    """Counts failed operations; logs the first few to stderr."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.count = 0

    def record(self, program: str, reason: str) -> None:
        self.count += 1
        if self.count <= MAX_FAILURE_LOGS:
            print(
                f"FAILED {self.workload} seed={self.seed} "
                f"program={program}: {reason}",
                file=sys.stderr,
            )


def median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def p90_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.quantiles(seconds, n=10, method="inclusive")[8]


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def end_to_end(
    ops: list[Op],
    rates: list[float],
    setup_samples: list[float],
    failed: int,
    attempted: int,
    peak_rss_mb: float,
) -> dict:
    """The end-to-end metrics of one untraced run.

    ``rates`` are ops per timed second over consecutive stretches of
    the run (passes over a corpus, or one-second windows of traffic);
    their median is robust to a stall in one stretch.
    """
    if len(ops) < P90_MIN_OPS:
        raise RuntimeError(
            f"only {len(ops)} operations; op_p90_ms needs {P90_MIN_OPS}"
        )
    seconds = [op.seconds for op in ops]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "op_p50_ms": (median_ms(seconds), "ms"),
        "op_p90_ms": (p90_ms(seconds), "ms"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
