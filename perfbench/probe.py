"""Set-up probe: import bnexplain and load every network of one workload.

    python3 perfbench/probe.py WORKLOAD BUNDLE

run.py times whole runs of this script, from process start to exit.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    loaded = workloads.WORKLOADS[sys.argv[1]].load(Path(sys.argv[2]))
    print(len(loaded))
