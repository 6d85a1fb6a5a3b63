"""One checked pass of a workload in a fresh process, for its peak memory.

    python3 perfbench/one_pass.py <workload> <seed>

Run from the root of a checkout.  Prints one JSON object with the
process's peak resident memory and the pass's check results.  ``run.py``
starts it so that ``peak_rss_mb`` is measured on a process that ran the
workload once, as a user's ``ffhyper`` process would, rather than on the
benchmark process, whose heap is shaped by every pass before.
"""

import json
import resource
import sys
from pathlib import Path


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from ffhyper import cli
    from run import run_pass
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    attempted, failed = workload.check(run_pass(cli.run, workload))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak, "attempted": attempted, "failed": failed}))


if __name__ == "__main__":
    main()
