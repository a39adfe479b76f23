"""Print the seconds a fresh interpreter spends before a workload's first instance draw.

    PYTHONPATH=src python3 benchmarks/setup_child.py <workload> <seed> <full|tiny> <dir>

The clock starts before ``import onebitcs`` and stops after CLI parsing, the
``SweepConfig`` and ``build_manifest``; run.py starts this script several
times and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    name, seed, scale, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    workload = (workloads.TINY if scale == "tiny" else workloads.WORKLOADS)[name]
    start = time.perf_counter()
    workload.setup(seed, work_dir / "sweep-out")
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
