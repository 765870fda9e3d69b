"""The benchmark's workloads: seeded inputs, one timed operation each, checks.

Every workload is driven through the package's public API only
(``solve_newton`` or ``cli.main``).  Why each one is in the benchmark:

* ``newton-local-1d``: assembly-bound.  Jacobian assembly is most of a solve
  and the sparse LU is cheap, so vectorised assembly shows here.
* ``newton-local-2d``: factor-bound.  LU fill dominates and assembly is a few
  percent, so orderings and Krylov solvers show here, and assembly work
  should show no change.
* ``newton-kernel-1d``: the same layers used differently.  The dense
  measure-derivative blocks make the Jacobian six times denser, so FFT kernel
  application and the coupling interface show here and not on the local ones.
* ``cli-configs``: the user-facing end to end over the six bundled configs,
  and the only workload that runs Picard, the stability probe (one matrix
  factored once per data draw), config parsing and the CSV writers.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "newton-local-1d": "assembly-bound: Jacobian assembly is most of a solve, LU is small",
    "newton-local-2d": "factor-bound: LU fill and factor time dominate, assembly is a few percent",
    "newton-kernel-1d": "dense kernel blocks make J 6x denser; assembly and factor share the time",
    "cli-configs": "user-facing end to end: Picard, stability probe, config parsing, CSV writes",
}

RESIDUAL_TOL = 1e-10
MASS_TOL = 1e-9
AMPLITUDE = (5e-3, 2e-2)
KERNEL_SIGMA = 0.1

# (dim, nx, nt) per Newton workload; "tiny" is the self-check's size.
GRIDS = {
    "full": {"newton-local-1d": (1, 64, 64), "newton-local-2d": (2, 16, 16),
             "newton-kernel-1d": (1, 64, 64)},
    "tiny": {"newton-local-1d": (1, 8, 8), "newton-local-2d": (2, 6, 4),
             "newton-kernel-1d": (1, 8, 8)},
}
TINY_CLI_GRID = {"nx": 8, "nt": 4}


@dataclass
class OpResult:
    ok: bool
    iters: int = 0
    error: str | None = None
    q: list | None = None      # fitted orders, information only
    summary: str = ""          # cli-configs: the pass's summary.csv files
    bytes: int = 0             # cli-configs: bytes the pass wrote


def _unit_direction(grid, rng) -> np.ndarray:
    """Random mix of the first Fourier modes (|k|_inf = 1), sup norm 1.

    Every mode sums to zero over the uniform periodic grid, so the direction
    has zero slice mass.
    """
    x = grid.x_nodes()
    if grid.dim == 1:
        waves = [2.0 * np.pi * x[0]]
    else:
        waves = [2.0 * np.pi * (kx * x[0] + ky * x[1])
                 for kx, ky in ((1, 0), (0, 1), (1, 1), (1, -1))]
    out = np.zeros(grid.spatial_shape)
    for w in waves:
        out += rng.standard_normal() * np.cos(w) + rng.standard_normal() * np.sin(w)
    return out / np.abs(out).max()


def newton_start(mn, exact, seed: int, index: int, bad: bool = False):
    """Seeded start for operation ``index``: exact root plus a smooth direction.

    du vanishes at t = T and dm at t = 0, so the boundary slices stay exact;
    dm has zero slice mass and amplitude <= 2e-2 against min m* = 0.7, so
    m stays positive.  ``bad`` plants a density of -0.6 below the congestion
    Hamiltonian's floor of -0.5 (the self-check's injected failure).
    """
    rng = np.random.default_rng([seed, index])
    grid = exact.u.grid
    eps = rng.uniform(*AMPLITUDE)
    s = (grid.t_nodes() / grid.horizon).reshape((-1,) + (1,) * grid.dim)
    u = exact.u.values + eps * (1.0 - s) * _unit_direction(grid, rng)
    m = exact.m.values + eps * s * _unit_direction(grid, rng)
    if bad:
        m[grid.nt // 2].flat[0] = -0.6
    elif not np.all(m > 0):
        raise RuntimeError("generated start left the positive density cone")
    return mn.make_state(grid, u, m)


class NewtonWorkload:
    """One ``solve_newton`` to RESIDUAL_TOL from a seeded perturbed start."""

    def __init__(self, mn, name, size, seed):
        dim, nx, nt = GRIDS[size][name]
        self.mn = mn
        self.seed = seed
        self.grid = mn.GridSpec(dim=dim, nx=nx, nt=nt, horizon=1.0)
        if name == "newton-kernel-1d":
            coupling = mn.NonlocalCoupling(
                f=mn.gaussian_kernel_coupling(self.grid, KERNEL_SIGMA),
                g=mn.gaussian_kernel_coupling(self.grid, KERNEL_SIGMA))
            self.problem, self.exact = mn.make_manufactured_nonlocal(
                self.grid, mn.separable_quadratic(self.grid, 1.0), coupling)
        else:
            self.problem, self.exact = mn.make_manufactured(
                self.grid, mn.congestion(self.grid, 1.0, 1.0),
                mn.LocalCoupling("sigmoid"))
        self.config = mn.NewtonConfig(residual_tol=RESIDUAL_TOL)
        self.solver_errors = (mn.DomainError, mn.SingularMatrixError,
                              mn.MaxIterExceededError, mn.NoConvergenceError)

    def prepare(self, index, bad=False):
        return newton_start(self.mn, self.exact, self.seed, index, bad)

    def run(self, start, _tracer):
        try:
            return self.mn.solve_newton(self.problem, start, self.config,
                                        reference=self.exact)
        except self.solver_errors as exc:
            return exc

    def check(self, outcome) -> OpResult:
        if isinstance(outcome, Exception):
            return OpResult(ok=False, error=f"{type(outcome).__name__}: {outcome}")
        final, history = outcome
        r_u, r_m = self.mn.residual(self.problem, final)
        res = max(np.abs(r_u.values).max(), np.abs(r_m.values).max())
        axes = tuple(range(1, 1 + self.grid.dim))
        masses = self.grid.cell_volume * final.m.values.sum(axis=axes)
        mass_dev = float(np.abs(masses - 1.0).max())
        error = None
        if not res <= RESIDUAL_TOL:
            error = f"final residual {res:.3e} > {RESIDUAL_TOL:.0e}"
        elif not mass_dev <= MASS_TOL:
            error = f"slice mass off by {mass_dev:.3e}"
        try:
            q = [self.mn.fit_rate([r.err_sum for r in history],
                                  floor=self.config.error_floor).order]
        except self.mn.InsufficientDataError:
            q = None
        return OpResult(ok=error is None, iters=len(history) - 1, error=error, q=q)

    def close(self):
        pass


class CliWorkload:
    """One pass of ``cli.main(["run", "--config", ...])`` over generated copies
    of the bundled configs, each writing into a temporary directory."""

    def __init__(self, root: Path, size, seed, out_dir: Path):
        from mfg_newton import cli

        self.cli = cli
        out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.runs = []
        for path in sorted((root / "configs").glob("*.json")):
            cfg = json.loads(path.read_text())
            out = self.tmp / path.stem
            cfg["output_dir"] = str(out)
            cfg["seed"] = seed
            if size == "tiny":
                cfg["grid"].update(TINY_CLI_GRID)
            gen = self.tmp / f"{path.stem}.json"
            gen.write_text(json.dumps(cfg))
            self.runs.append((cfg["experiment"], gen, out))

    def prepare(self, _index, bad=False):
        if bad:
            raise ValueError("cli-configs has no injectable bad start")
        for _, _, out in self.runs:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, _start, tracer):
        codes = []
        for experiment, gen, _ in self.runs:
            with tracer.span(f"cli.{experiment}") if tracer else nullcontext():
                codes.append(self.cli.main(["run", "--config", str(gen)]))
        return codes

    def check(self, codes) -> OpResult:
        summary, iters, q, written, error = [], 0, [], 0, None
        for (experiment, _, out), code in zip(self.runs, codes):
            written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            path = out / "summary.csv"
            if not path.is_file():
                error = error or f"{experiment}: no summary.csv"
                continue
            text = path.read_text()
            summary.append(text)
            header, *rows = [line.split(",") for line in text.splitlines()]
            col = {c: i for i, c in enumerate(header)}
            for row in rows:
                if row[col["status"]] != "ok":
                    error = error or f"{experiment}: status {row[col['status']]}"
                if row[col["iterations"]]:
                    iters += int(row[col["iterations"]])
                if row[col["fitted_q"]]:
                    q.append(float(row[col["fitted_q"]]))
            if code != 0:
                error = error or f"{experiment}: exit code {code}"
        return OpResult(ok=error is None, iters=iters, error=error, q=q or None,
                        summary="".join(summary), bytes=written)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def build(mn, name, root: Path, size, seed, out_dir: Path):
    if name == "cli-configs":
        return CliWorkload(root, size, seed, out_dir)
    return NewtonWorkload(mn, name, size, seed)
