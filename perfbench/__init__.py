"""The repo benchmark: closed-loop workloads through the serving API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md`` for the workloads, every
metric's definition and the layer → metric map.
"""
