"""The repository benchmark: cold estimates, hot profiling, service traffic.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  Every operation's output is checked against
the reference interpreter (:mod:`perfbench.checks`).
"""
