"""End-to-end and per-layer benchmark of the weilrep verification sweeps.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``perfbench/README.md``.
"""
