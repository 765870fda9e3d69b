"""Grid ladder for the factorization of the Newton system.

For the seed-0 benchmark start on each rung, assemble the masked Newton
system four times (``assembly_s``: the median ``newton_system`` time of the
three repeats; the first call also builds the grid's stencils) and solve it
four times through ``sparse_linalg.solve``; record the stored factor entries
(the floating-point entries of the arrays the block LU in time keeps for its
slices, counted from the factor itself, an array that slices share once),
the ``factorize`` time of the first call (``factor_first_s``: the pattern's
plan is built, then the numeric factorization runs) and the median of the
three repeats (``factor_repeat_s``: the plan is reused), the relative
residual and the peak RSS.  Each rung runs
in its own process, so its plan cache starts empty and the peak RSS is its
own.  Each labelled entry also records the tree's ``src/`` line count.  From
the repository root, once per source tree (rows are stored in BENCH_4.json
under the label):

    PYTHONPATH=src python bench/ladder.py --label change

``--rung NAME`` runs one rung in this process and prints its row as JSON,
writing nothing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUNGS = {"1d-64-local": (1, 64, "local"), "1d-128-local": (1, 128, "local"),
         "1d-256-local": (1, 256, "local"), "1d-64-kernel": (1, 64, "kernel"),
         "2d-16-local": (2, 16, "local"), "2d-24-local": (2, 24, "local"),
         "2d-32-local": (2, 32, "local"), "2d-16-kernel": (2, 16, "kernel"),
         "2d-24-kernel": (2, 24, "kernel"), "2d-32-kernel": (2, 32, "kernel")}


def stored_entries(x) -> int:
    """Floating-point entries in the arrays a factor keeps, nested or not,
    each array counted once: the kernel coupling's slices share one B."""
    arrays = {}

    def walk(y):
        if isinstance(y, np.ndarray) and y.dtype.kind == "f":
            arrays[id(y)] = y.size
        elif isinstance(y, (tuple, list)):
            for z in y:
                walk(z)

    walk(x)
    return sum(arrays.values())


def rung(name: str) -> dict:
    sys.path.insert(0, str(ROOT))
    import mfg_newton as mn
    from mfg_newton import sparse_linalg as sla
    from perfbench.workloads import KERNEL_SIGMA, newton_start

    dim, n, kind = RUNGS[name]
    grid = mn.GridSpec(dim=dim, nx=n, nt=n, horizon=1.0)
    if kind == "kernel":
        k = mn.gaussian_kernel_coupling(grid, KERNEL_SIGMA)
        h_spec, coupling = mn.separable_quadratic(grid, 1.0), mn.NonlocalCoupling(f=k, g=k)
    else:
        h_spec, coupling = mn.congestion(grid, 1.0, 1.0), mn.LocalCoupling("sigmoid")
    problem, exact = mn.make_manufactured(grid, h_spec, coupling)
    start, assembly = newton_start(mn, exact, 0, 0), []
    for _ in range(4):
        system = None  # the previous system is freed before the next is built
        t0 = time.perf_counter()
        system, _ = mn.newton_system(problem, start)
        assembly.append(time.perf_counter() - t0)
    row = {"rung": name, "unknowns": system.matrix.shape[0], "jac_nnz": system.matrix.nnz,
           "assembly_s": statistics.median(assembly[1:])}
    times, factorize, entries = [], sla.factorize, []

    class CountedLU(sla._SliceLU):  # counts what each factor stores, keeps none alive
        def __init__(self, *args):
            super().__init__(*args)
            entries.append(stored_entries(self.lu))

    def timed_factorize(*args, **kwargs):
        t0 = time.perf_counter()
        solve = factorize(*args, **kwargs)
        times.append(time.perf_counter() - t0)
        return solve

    sla.factorize, sla._SliceLU = timed_factorize, CountedLU  # one rung, then exit
    try:
        for _ in range(4):
            sla.solve(system)
        row["relres"] = system.meta.residual_norm
    except mn.SingularMatrixError as exc:
        row["error"] = str(exc)
    row["factor_entries"] = entries[-1] if entries else None
    row["factor_first_s"] = times[0]
    row["factor_repeat_s"] = statistics.median(times[1:]) if times[1:] else None
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description="Factor the Newton matrix on a grid ladder.")
    ap.add_argument("--label", required=True, help="key of this tree's rows in the output")
    ap.add_argument("--out", default=str(ROOT / "BENCH_4.json"))
    ap.add_argument("--rung", choices=RUNGS, help="run this rung only and print its row")
    args = ap.parse_args()
    if args.rung:
        return print(json.dumps(rung(args.rung)))
    rows = []
    for name in RUNGS:
        cmd = [sys.executable, __file__, "--label", args.label, "--rung", name]
        rows.append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                              text=True).stdout))
        print(rows[-1], file=sys.stderr)
    path = Path(args.out)
    bench = json.loads(path.read_text()) if path.exists() else {}
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    bench[args.label] = {"cpus": os.cpu_count(), "src_lines": src_lines, "rows": rows}
    path.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
