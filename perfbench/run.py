"""Run one workload of the ReStore benchmark and print its metrics.

    python3 perfbench/run.py --workload pigmix_reuse --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the library is imported from its
``src`` directory.  See perfbench/README.md.
"""

import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))
