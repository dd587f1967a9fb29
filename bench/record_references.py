"""Record the output hashes the correctness gate compares against.

    python3 bench/record_references.py

Runs every workload once per seed in SEEDS on one process and rewrites
bench/reference_hashes.json.  Re-record only when a change
is meant to alter qwtopo's outputs, and say so where the change is
described.
"""

import contextlib
import io
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import gate  # noqa: E402
from qwtopo import cli  # noqa: E402
from workloads import WORKLOADS, materialize  # noqa: E402

#: Seeds whose output hashes the gate knows.
SEEDS = range(16)


def main():
    os.environ["QWTOPO_THREADS"] = "1"
    work_dir = os.path.join(ROOT, ".bench_out", "references")
    table = {}
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            hashes = {}
            for run in materialize(workload, seed, work_dir):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.entrypoint(run.argv())
                if code != 0:
                    raise SystemExit(f"{workload.name} seed {seed}: {run.name} "
                                     f"exited {code}")
                hashes.update(gate.output_hashes(run))
            table.setdefault(workload.name, {})[str(seed)] = hashes
            print(f"{workload.name} seed {seed}: {len(hashes)} files", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(gate.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
