"""Per-layer benchmark of the SSSP simulator and its serving tier.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in its own process and prints one JSON
line of metrics; ``BENCHMARK.json`` at the repository root declares the
workloads and every metric name, unit and bound.
"""
