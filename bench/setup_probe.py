"""Time one workload set-up in a fresh interpreter and print the seconds.

    python bench/setup_probe.py WORKLOAD SEED

`bench/run.py` calls this a few times per run and reports the median
set-up time, so that imports and other work moved into set-up show.
"""

import sys
import time

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    workloads.WORKLOADS[name](seed, workloads.load_goldens())
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
