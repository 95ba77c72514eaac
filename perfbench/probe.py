"""One workload's set-up in a fresh process.

    python3 perfbench/probe.py <workload> <seed> <seconds>


``run.py`` times this process from spawn to exit as one ``setup_s``
sample: interpreter start, imports and input generation, plus compile,
plans and emission for ``profile-hot``.  (Server boot is timed by
``perfbench.service``.)
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(workload: str, seed: int, seconds: float) -> None:
    if workload in ("estimate-cold", "profile-hot"):
        import repro.pipeline  # noqa: F401 - what an estimate imports
    if workload == "estimate-cold":
        from perfbench import library

        library.estimate_cold_setup(seed)
    elif workload == "profile-hot":
        from perfbench import library

        library.profile_hot_setup(seed)
    else:
        from perfbench import service

        import repro.service.client  # noqa: F401 - the client's imports

        service.make_inputs(seed, seconds)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
