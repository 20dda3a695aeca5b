"""Set-up step of one benchmark run, in a process of its own.

Imports domcover, builds the workload's instances and writes its files, then
prints one JSON object: the instance description the benchmark process needs
and the self time of each traced call made while building.  Running apart
keeps the memory of generation out of the benchmark process's peak RSS.

    python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

from spans import NAME, Tracer
from workloads import WORKLOADS, load_domcover


def main() -> None:
    workload, seed, workdir = WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3])
    load_domcover()
    tracer = Tracer()
    tracer.install()
    info = workload.build(seed, workdir)
    spans = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        spans[span[NAME]].append(own)
    json.dump({"info": info, "spans": spans}, sys.stdout)


if __name__ == "__main__":
    main()
