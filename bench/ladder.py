"""Grid ladder for the linear solves of the Newton system.

For the seed-0 benchmark start on each rung, assemble the masked Newton
system four times (``assembly_first_s``: the first ``newton_system`` call,
which also plans the grid's pattern and map, and the mask's index and its
sweep plan; ``assembly_s``: the median of the three repeats), then factor
and solve it four times through ``sparse_linalg.factorize`` on the system's
plan and its operator on A_um (``system.um``; a tree from before that
operator passes its dense addends, ``system.dense``): the ``factorize`` time of the first call (``factor_first_s``), the
median of the three repeats (``factor_repeat_s``), the median count of
minor page faults (``resource.getrusage`` ``ru_minflt``) over those repeats
(``factor_faults``), and the median time of the four solves (``solve_s``).
``path`` is the path that ran (``"schur"`` for the two-field Newton system), ``relres`` and ``lin_iters`` the relative
residual and the GMRES iterations of the last solve, ``gmres_solves`` the
Schur solves it ran (2 with a refinement step), and ``sweeps`` the
``_Sweeps.solve`` calls it made (2 ``lin_iters`` + 2 ``gmres_solves`` on
the Schur path when no solve restarts), and ``sweep_s`` the median time of
one of those calls over the four solves.  One more, untimed
factorization counts the entries the sweeps' slice factors store
(``sweep_entries``: the band storage ``(2 kl + ku + 1) n`` for a slice block
of n unknowns that LAPACK's band LU factors, kl and ku its field's band,
``L.nnz + U.nnz`` for one that SuperLU factors), and ``slice_factor`` names the factor that ran
(``"band"`` or ``"splu"``).
Then ``newton_s`` times one ``solve_newton`` from the same start to
perfbench's residual tolerance, taking ``newton_steps`` steps, and
``peak_rss_mb`` is the process's peak.

Each rung runs in its own process, so its grid cache starts empty and the
peak RSS is its own.  A tree whose systems carry no plan (before the mask
planned its sweeps) is factored as its ``factorize`` takes it, from the
system's slices and split, and plans in its first ``factorize`` call, so
there ``factor_first_s`` holds the plan and ``assembly_first_s`` does not.
Each rung runs once with each slice factor, forced by setting ``sparse_linalg.BAND_MAX`` above every slice block's half-bandwidth
(``band``) or to -1 (``splu``), except that 2D 48 and 64 leave out the band
factor, which at half-bandwidth 95 and 127 stores several times SuperLU's
fill there.  Each labelled entry also records the tree's ``src/`` line
count.  From the repository root, once per source tree (rows are stored in
BENCH_13.json under the label):

    python bench/ladder.py --label change

``--against TREE`` runs each rung ``--repeats`` times (5 by default) with
the slice factor ``sparse_linalg`` chooses, alternately measuring the
package of this tree and the one under ``TREE/src`` with this script, and
which tree goes first alternates too; the entry stores every run and, per
tree and rung, the median of each numeric column, under ``this`` and
``against``:

    python bench/ladder.py --label repeats --against ../parent

``--rung NAME`` runs one rung in this process with the slice factor
``sparse_linalg`` chooses, or with the one ``--path`` names, and prints its
row as JSON, writing nothing.
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


ROOT = Path(__file__).resolve().parents[1]
RUNGS = {"1d-64-local": (1, 64, "local"), "1d-128-local": (1, 128, "local"),
         "1d-256-local": (1, 256, "local"), "1d-64-kernel": (1, 64, "kernel"),
         "1d-128-kernel": (1, 128, "kernel"), "2d-8-local": (2, 8, "local"),
         "2d-12-local": (2, 12, "local"), "2d-16-local": (2, 16, "local"),
         "2d-20-local": (2, 20, "local"), "2d-24-local": (2, 24, "local"), "2d-28-local": (2, 28, "local"),
         "2d-32-local": (2, 32, "local"),
         "2d-48-local": (2, 48, "local"), "2d-64-local": (2, 64, "local"),
         "2d-16-kernel": (2, 16, "kernel"), "2d-20-kernel": (2, 20, "kernel"),
         "2d-24-kernel": (2, 24, "kernel"), "2d-28-kernel": (2, 28, "kernel"),
         "2d-32-kernel": (2, 32, "kernel"), "2d-48-kernel": (2, 48, "kernel"),
         "2d-64-kernel": (2, 64, "kernel")}
PATHS = ("band", "splu")  # the slice factors
SPLU_ONLY = {"2d-48-local", "2d-64-local", "2d-48-kernel", "2d-64-kernel"}  # bands too wide to store


def rung(name: str, path: str | None = None) -> dict:
    sys.path.insert(0, str(ROOT))
    import mfg_newton as mn
    from mfg_newton import sparse_linalg as sla
    from perfbench.workloads import KERNEL_SIGMA, RESIDUAL_TOL, newton_start

    if path:  # one rung, then exit
        sla.BAND_MAX = sys.maxsize if path == "band" else -1
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
    row = {"rung": name, "path": None, "unknowns": system.matrix.shape[0], "jac_nnz": system.matrix.nnz,
           "assembly_first_s": assembly[0], "assembly_s": statistics.median(assembly[1:])}
    extra = system.um if hasattr(system, "um") else system.dense  # a tree with dense addends passes those
    if getattr(system, "plan", None) is not None:
        args, kwargs = (system.matrix, system.plan, extra), {}
    else:  # a tree that plans in factorize
        args, kwargs = (system.matrix, system.slices, extra), {"split": system.split}
    factor_s, faults, solve_s, swept, solved, sweep, schur = [], [], [], [], [], sla._Sweeps.solve, sla._schur
    sweep_s = []  # every sweep of the four solves

    def counting(self, f, b):  # the sweeps of a solve, each timed
        t0 = time.perf_counter()
        x = sweep(self, f, b)
        sweep_s.append(time.perf_counter() - t0)
        swept.append(f)
        return x

    def counted_schur(*args):  # the Schur solves of a solve: 2 with a refinement step
        inner = schur(*args)

        def solve_schur(b):
            solved.append(b.size)
            return inner(b)

        return solve_schur

    sla._Sweeps.solve, sla._schur = counting, counted_schur
    try:
        for _ in range(4):
            solve = None  # the previous factor is freed before the next is built
            f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
            solve = sla.factorize(*args, **kwargs)
            factor_s.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            swept.clear()
            solved.clear()
            t0 = time.perf_counter()
            _, meta = solve(system.rhs)
            solve_s.append(time.perf_counter() - t0)
        row.update(path=meta.method, relres=meta.residual_norm, lin_iters=meta.iterations,
                   gmres_solves=len(solved), sweeps=len(swept), sweep_s=statistics.median(sweep_s))
    except mn.SolverError as exc:
        row["error"] = str(exc)
    finally:
        sla._Sweeps.solve, sla._schur = sweep, schur
    solve, counted, sweeps = None, [], sla._Sweeps

    class CountedSweeps(sweeps):  # counts what the slice factors store, keeps none alive
        def __init__(self, *args):
            super().__init__(*args)
            for _, steps in self.fields:
                for _, lu, *_ in steps:  # (part, lu, layers); an older tree's steps have more
                    band = isinstance(lu, sla._BandLU)
                    counted.append((lu.lu.size if band else lu.L.nnz + lu.U.nnz,
                                    "band" if band else "splu"))

    sla._Sweeps = CountedSweeps
    try:
        sla.factorize(*args, **kwargs)
    except mn.SolverError:
        pass
    sla._Sweeps = sweeps
    row["sweep_entries"] = sum(entries for entries, _ in counted) if counted else None
    row["slice_factor"] = "+".join(sorted({factor for _, factor in counted})) or None
    row["factor_first_s"] = factor_s[0] if factor_s else None
    row["factor_repeat_s"] = statistics.median(factor_s[1:]) if factor_s[1:] else None
    row["factor_faults"] = statistics.median(faults[1:]) if faults[1:] else None
    row["solve_s"] = statistics.median(solve_s) if solve_s else None
    system = args = extra = None
    t0 = time.perf_counter()
    try:
        _, history = mn.solve_newton(problem, start, mn.NewtonConfig(residual_tol=RESIDUAL_TOL))
        row["newton_steps"] = len(history) - 1
    except mn.SolverError as exc:
        row["newton_error"] = str(exc)
    row["newton_s"] = time.perf_counter() - t0
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


def run(name: str, path: str | None = None, tree: Path = ROOT) -> dict:
    """One rung's row from its own process, measuring the package under ``tree/src``."""
    cmd = [sys.executable, __file__, "--label", "-", "--rung", name, *(["--path", path] if path else [])]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    row = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout)
    print(row, file=sys.stderr)
    return row


def src_lines(tree: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (tree / "src").rglob("*.py"))


def median_row(rows: list) -> dict:
    """Per column, the median of the rows' numbers, else the first row's value."""
    return {k: statistics.median(r[k] for r in rows)
            if all(isinstance(r.get(k), (int, float)) for r in rows) else v
            for k, v in rows[0].items()}


def interleaved(against: Path, repeats: int) -> dict:
    """Every rung ``repeats`` times in each tree, the trees alternating."""
    trees = {"this": ROOT, "against": against}
    runs = {tree: {name: [] for name in RUNGS} for tree in trees}
    for name in RUNGS:
        for k in range(repeats):
            for tree in ("this", "against")[::1 if k % 2 == 0 else -1]:
                runs[tree][name].append(run(name, tree=trees[tree]))
    return {"cpus": os.cpu_count(), "repeats": repeats, "src_lines": {t: src_lines(p) for t, p in trees.items()},
            "medians": {t: [median_row(rows) for rows in runs[t].values()] for t in trees}, "runs": runs}


def main() -> None:
    ap = argparse.ArgumentParser(description="Solve the Newton system on a grid ladder.")
    ap.add_argument("--label", required=True, help="key of this tree's rows in the output")
    ap.add_argument("--out", default=str(ROOT / "BENCH_13.json"))
    ap.add_argument("--rung", choices=RUNGS, help="run this rung only and print its row")
    ap.add_argument("--path", choices=PATHS, help="force this slice factor on --rung")
    ap.add_argument("--against", type=Path, help="a second source tree, run interleaved with this one")
    ap.add_argument("--repeats", type=int, default=5, help="runs of each rung per tree with --against")
    args = ap.parse_args()
    if args.rung:
        return print(json.dumps(rung(args.rung, args.path)))
    if args.against:
        entry = interleaved(args.against.resolve(), args.repeats)
    else:
        rows = [run(name, path) for name in RUNGS for path in (PATHS[1:] if name in SPLU_ONLY else PATHS)]
        entry = {"cpus": os.cpu_count(), "src_lines": src_lines(ROOT), "rows": rows}
    path = Path(args.out)
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench[args.label] = entry
    path.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
