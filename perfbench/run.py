"""Benchmark entry point.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: boostfield is imported from its
``src/`` directory, and the run aborts if it would import another copy.
With ``--trace 0`` the last line of standard output is a JSON result with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric instead, and the spans are written to ``perfbench/_out/``.  The
line before it records the environment and the statistics behind the
metrics.  Failed operations are reported on standard error and counted in
``failed``; the run goes on.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("certify", "evolve", "spectral", "cli")


def _cap_blas_threads() -> None:
    """One BLAS thread per CPU this process may use; set before numpy loads."""
    cpus = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = cpus


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="boostfield benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "boostfield" / "__init__.py").is_file():
        print(f"no boostfield source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import runner  # imports numpy and boostfield, so only after the lines above

    return runner.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
