"""Wall-clock benchmark of the HAIL reproduction: workloads, answer oracle and layer tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``perfbench/README.md`` describes the workloads and metrics.
"""
