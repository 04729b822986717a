"""The repository benchmark: three workloads, timed end to end, traced per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against the code under ``src/`` and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics; ``perfbench/predictions.json``
says what each end-to-end metric means on each workload and which layer
metric should move which end-to-end metric.
"""
