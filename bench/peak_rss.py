"""Peak RSS of one run of a workload, measured in a fresh process.

    python3 bench/peak_rss.py <workload> <seed> [--smoke]

Prints ``{"peak_rss_kib": ...}`` from ``getrusage`` on this process only.
"""

from __future__ import annotations

import json
import resource
import sys

import harness
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]](int(argv[1]), "--smoke" in argv[2:])
    with harness.registry(workload.registry_class):
        harness.run_once(workload.scenario)
    print(json.dumps({"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
