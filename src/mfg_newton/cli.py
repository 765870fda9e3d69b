"""Batch front end: run a configured experiment and emit CSV artifacts.

Configuration is a single JSON document (experiments carry too many nested
parameters for positional flags); the only flags are --config and --verbose.
Every experiment writes its artifacts inside the configured output directory:
history CSVs, field snapshots, and a summary.csv with one row per sub-run.
Exit codes: 0 success, 2 config validation error, 3 solver error (the error
class is recorded in summary.csv).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coupling as cpl
from . import diagnostics as diag
from . import hamiltonian as ham
from . import mfg_solver as solver
from . import sparse_linalg as sla
from . import torus_grid as tg
from .errors import (ConfigError, DomainError, InsufficientDataError,
                     MaxIterExceededError, NoConvergenceError,
                     SingularMatrixError)

EXPERIMENTS = (
    "newton-rate",
    "fixed-point-compare",
    "lemma-stability",
    "hessian-sweep",
    "nonlocal-rate",
    "manufactured-verify",
)
H_CHOICES = ("constant", "1+0.5cos(2pix)")

SUMMARY_COLUMNS = (
    "experiment", "sub_run", "method", "dim", "nx", "nt", "T", "hamiltonian",
    "alpha", "coupling", "epsilon", "seed", "iterations", "fitted_q",
    "final_residual", "ratio_max", "status", "error",
)

SOLVER_ERRORS = (DomainError, SingularMatrixError, MaxIterExceededError,
                 NoConvergenceError, InsufficientDataError)

HESSIAN_SWEEP_M = (0.1, 1.0, 10.0, 100.0)
HESSIAN_SWEEP_P = (0.5, 1.0, 2.0)
STABILITY_DRAWS = 20


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    dim: int
    nx: int
    nt: int
    horizon: float
    h_variant: str
    h_profile: str
    alpha: float
    local_variant: str | None
    power_alpha: float
    kernel_sigma: float | None
    kernel_sigma_g: float | None
    max_iter: int
    residual_tol: float
    error_floor: float
    linear_method: str
    theta: float
    epsilons: tuple
    seed: int
    output_dir: str
    draws: int


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


def _number(obj, path, minimum=None, strict=False, integer=False):
    v = obj
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    if integer and int(v) != v:
        raise ConfigError(path, f"expected an integer, got {v}")
    if minimum is not None:
        if strict and not v > minimum:
            raise ConfigError(path, f"must be > {minimum}, got {v}")
        if not strict and not v >= minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {v}")
    return int(v) if integer else float(v)


def _choice(obj, path, choices):
    if obj not in choices:
        raise ConfigError(path, f"must be one of {list(choices)}, got {obj!r}")
    return obj


def _parse_kernel(obj, path):
    _check_keys(obj, path, required=("type", "sigma"))
    _choice(obj["type"], f"{path}.type", ("gaussian",))
    return _number(obj["sigma"], f"{path}.sigma", minimum=0.0, strict=True)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")

    _check_keys(raw, "", required=("experiment", "grid", "output_dir"),
                optional=("hamiltonian", "coupling", "newton", "epsilons",
                          "seed", "draws"))
    experiment = _choice(raw["experiment"], "experiment", EXPERIMENTS)

    grid = raw["grid"]
    _check_keys(grid, "grid", required=("dim", "nx", "nt", "T"))
    dim = _number(grid["dim"], "grid.dim", integer=True)
    if dim not in (1, 2):
        raise ConfigError("grid.dim", f"must be 1 or 2, got {dim}")
    nx = _number(grid["nx"], "grid.nx", minimum=4, integer=True)
    nt = _number(grid["nt"], "grid.nt", minimum=2, integer=True)
    horizon = _number(grid["T"], "grid.T", minimum=0.0, strict=True)

    hml = raw.get("hamiltonian", {})
    _check_keys(hml, "hamiltonian", required=(), optional=("variant", "alpha", "h"))
    h_variant = _choice(hml.get("variant", "congestion"), "hamiltonian.variant",
                        (ham.CONGESTION, ham.SEPARABLE_QUADRATIC))
    alpha = _number(hml.get("alpha", 1.0), "hamiltonian.alpha", minimum=0.0, strict=True)
    h_profile = _choice(hml.get("h", "constant"), "hamiltonian.h", H_CHOICES)

    coup = raw.get("coupling", {})
    _check_keys(coup, "coupling", required=(),
                optional=("local", "power_alpha", "kernel", "kernel_g"))
    local_variant = None
    power_alpha = 2.0
    kernel_sigma = kernel_sigma_g = None
    if "local" in coup:
        if "kernel" in coup or "kernel_g" in coup:
            raise ConfigError("coupling", "choose either local or kernel coupling")
        local_variant = _choice(coup["local"], "coupling.local",
                                (cpl.SIGMOID, cpl.LINEAR, cpl.POWER, cpl.ZERO))
        if "power_alpha" in coup:
            power_alpha = _number(coup["power_alpha"], "coupling.power_alpha", minimum=2.0)
    elif "kernel" in coup:
        kernel_sigma = _parse_kernel(coup["kernel"], "coupling.kernel")
        kernel_sigma_g = (_parse_kernel(coup["kernel_g"], "coupling.kernel_g")
                          if "kernel_g" in coup else kernel_sigma)
    elif "power_alpha" in coup or "kernel_g" in coup:
        raise ConfigError("coupling", "incomplete coupling specification")

    newton = raw.get("newton", {})
    _check_keys(newton, "newton", required=(),
                optional=("max_iter", "residual_tol", "linear_method", "theta",
                          "error_floor"))
    max_iter = _number(newton.get("max_iter", 30), "newton.max_iter", minimum=1, integer=True)
    residual_tol = _number(newton.get("residual_tol", 1e-9), "newton.residual_tol",
                           minimum=0.0, strict=True)
    error_floor = _number(newton.get("error_floor", 1e-10), "newton.error_floor",
                          minimum=0.0)
    linear_method = _choice(newton.get("linear_method", "direct"),
                            "newton.linear_method", ("direct", "iterative"))
    theta = _number(newton.get("theta", 0.5), "newton.theta", minimum=0.0, strict=True)
    if theta > 1.0:
        raise ConfigError("newton.theta", f"must lie in (0, 1], got {theta}")

    epsilons = raw.get("epsilons", [1e-2])
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("epsilons", "expected a non-empty list of positive numbers")
    epsilons = tuple(
        _number(e, f"epsilons[{i}]", minimum=0.0, strict=True)
        for i, e in enumerate(epsilons)
    )
    seed = _number(raw.get("seed", 0), "seed", minimum=0, integer=True)
    draws = _number(raw.get("draws", STABILITY_DRAWS), "draws", minimum=1, integer=True)
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("output_dir", "expected a non-empty string")

    needs_local = experiment in ("newton-rate", "fixed-point-compare",
                                 "lemma-stability", "manufactured-verify")
    if needs_local and local_variant is None and kernel_sigma is None:
        local_variant = cpl.SIGMOID
    if needs_local and local_variant is None:
        raise ConfigError("coupling.local", f"{experiment} requires a local coupling")
    if experiment == "nonlocal-rate":
        if kernel_sigma is None:
            raise ConfigError("coupling.kernel", "nonlocal-rate requires a kernel coupling")
        if h_variant != ham.SEPARABLE_QUADRATIC:
            raise ConfigError("hamiltonian.variant",
                              "nonlocal-rate requires separable_quadratic")

    return RunConfig(
        experiment=experiment, dim=dim, nx=nx, nt=nt, horizon=horizon,
        h_variant=h_variant, h_profile=h_profile, alpha=alpha,
        local_variant=local_variant, power_alpha=power_alpha,
        kernel_sigma=kernel_sigma, kernel_sigma_g=kernel_sigma_g,
        max_iter=max_iter, residual_tol=residual_tol, error_floor=error_floor,
        linear_method=linear_method, theta=theta, epsilons=epsilons,
        seed=seed, output_dir=raw["output_dir"], draws=draws,
    )


# -- experiment building blocks -------------------------------------------------

def _build_grid(cfg: RunConfig) -> tg.GridSpec:
    return tg.GridSpec(dim=cfg.dim, nx=cfg.nx, nt=cfg.nt, horizon=cfg.horizon)


def _build_h(cfg: RunConfig, grid: tg.GridSpec) -> np.ndarray:
    if cfg.h_profile == "constant":
        return np.ones(grid.spatial_shape)
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.x_nodes()[0])


def _build_hamiltonian(cfg: RunConfig, grid: tg.GridSpec) -> ham.HamiltonianSpec:
    h = _build_h(cfg, grid)
    if cfg.h_variant == ham.CONGESTION:
        return ham.congestion(grid, h, cfg.alpha)
    return ham.separable_quadratic(grid, h)


def _build_local_coupling(cfg: RunConfig) -> cpl.LocalCoupling:
    return cpl.LocalCoupling(cfg.local_variant, alpha=cfg.power_alpha)


def _newton_config(cfg: RunConfig) -> solver.NewtonConfig:
    method = sla.Direct() if cfg.linear_method == "direct" else sla.Iterative()
    return solver.NewtonConfig(
        max_iter=cfg.max_iter, residual_tol=cfg.residual_tol,
        error_floor=cfg.error_floor, linear_method=method, damping=cfg.theta)


def _base_row(cfg: RunConfig, sub_run: str, method: str = "") -> dict:
    if cfg.local_variant:
        coupling = cfg.local_variant
    elif cfg.kernel_sigma is not None:
        coupling = f"gaussian:{cfg.kernel_sigma}"
    else:
        coupling = ""
    return {
        "experiment": cfg.experiment, "sub_run": sub_run, "method": method,
        "dim": cfg.dim, "nx": cfg.nx, "nt": cfg.nt, "T": cfg.horizon,
        "hamiltonian": cfg.h_variant, "alpha": cfg.alpha, "coupling": coupling,
        "epsilon": "", "seed": cfg.seed, "iterations": "", "fitted_q": "",
        "final_residual": "", "ratio_max": "", "status": "ok", "error": "",
    }


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_summary(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row.get(c, "")) for c in SUMMARY_COLUMNS) + "\n")


def _history_name(out: Path, tag: str, single: bool) -> Path:
    return out / ("history.csv" if single else f"history_{tag}.csv")


def _final_residual(history) -> float:
    rec = history[-1]
    return max(rec.res_u_sup, rec.res_m_sup)


def _solve_keeping_history(solve, history_path, problem, initial, ncfg, exact):
    """Run one solve; if it exhausts its step budget, write the partial
    history it carries to ``history_path`` before re-raising."""
    try:
        return solve(problem, initial, ncfg, reference=exact)
    except MaxIterExceededError as exc:
        diag.write_history_csv(exc.history, history_path)
        raise


def _sweep(work, cfg, problem, exact, out, verbose):
    """Run ``work`` once per epsilon and concatenate the rows it returns.

    A solver failure becomes an error row, not a crash; the row names the
    failed sub-run by its tag and epsilon.
    """
    rows = []
    for i, eps in enumerate(cfg.epsilons):
        tag = f"eps{i}"
        try:
            rows.extend(work(cfg, problem, exact, eps, tag, out, verbose))
        except SOLVER_ERRORS as exc:
            row = _base_row(cfg, sub_run=tag)
            row["epsilon"] = eps
            row["status"] = "error"
            row["error"] = type(exc).__name__
            print(f"[{cfg.experiment}] sub-run {tag} failed: {exc}", file=sys.stderr)
            rows.append(row)
    return rows


def _rate_sub_run(cfg, problem, exact, eps, tag, out, verbose):
    """One perturb-and-solve sub-run; shared by the rate experiments."""
    row = _base_row(cfg, sub_run=tag, method="newton")
    row["epsilon"] = eps
    initial = diag.perturbed_state(exact, eps)
    history_path = _history_name(out, tag, len(cfg.epsilons) == 1)
    final, history = _solve_keeping_history(
        solver.solve_newton, history_path, problem, initial, _newton_config(cfg), exact)
    tg.write_field_csv(final.u, out / f"fields_u_{tag}.csv")
    tg.write_field_csv(final.m, out / f"fields_m_{tag}.csv")
    errors = [r.err_sum for r in history]
    try:
        fit = diag.fit_rate(errors, floor=cfg.error_floor)
    except InsufficientDataError:
        diag.write_history_csv(history, history_path)  # converged; keep the evidence
        raise
    diag.write_history_csv(history, history_path, fit=fit)
    row["iterations"] = len(history) - 1
    row["fitted_q"] = fit.order
    row["final_residual"] = _final_residual(history)
    if verbose:
        print(f"[{cfg.experiment}] {tag}: {len(history) - 1} iterations, "
              f"q={fit.order:.3f}", file=sys.stderr)
    return [row]


def _run_newton_rate(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    problem, exact = diag.make_manufactured(
        grid, _build_hamiltonian(cfg, grid), _build_local_coupling(cfg))
    return _sweep(_rate_sub_run, cfg, problem, exact, out, verbose)


def _run_nonlocal_rate(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    coupling = solver.NonlocalCoupling(
        f=cpl.gaussian_kernel_coupling(grid, cfg.kernel_sigma),
        g=cpl.gaussian_kernel_coupling(grid, cfg.kernel_sigma_g))
    problem, exact = diag.make_manufactured_nonlocal(
        grid, _build_hamiltonian(cfg, grid), coupling)
    cpl.write_kernel_csv(coupling.f, out / "kernel_f.csv")
    return _sweep(_rate_sub_run, cfg, problem, exact, out, verbose)


def _fixed_point_sub_run(cfg, problem, exact, eps, tag, out, verbose):
    ncfg = _newton_config(cfg)
    initial = diag.perturbed_state(exact, eps)
    rows = []

    row_n = _base_row(cfg, sub_run=tag, method="newton")
    row_n["epsilon"] = eps
    path_n = out / f"history_newton_{tag}.csv"
    _, hist_n = _solve_keeping_history(
        solver.solve_newton, path_n, problem, initial, ncfg, exact)
    diag.write_history_csv(hist_n, path_n)
    row_n["iterations"] = len(hist_n) - 1
    row_n["final_residual"] = _final_residual(hist_n)
    rows.append(row_n)

    row_f = _base_row(cfg, sub_run=tag, method="fixed-point")
    row_f["epsilon"] = eps
    path_f = out / f"history_fixed_point_{tag}.csv"
    _, hist_f = _solve_keeping_history(
        solver.solve_fixed_point, path_f, problem, initial, ncfg, exact)
    diag.write_history_csv(hist_f, path_f)
    row_f["iterations"] = len(hist_f) - 1
    row_f["final_residual"] = _final_residual(hist_f)
    rows.append(row_f)

    if verbose:
        print(f"[fixed-point-compare] eps={eps}: newton {row_n['iterations']} "
              f"vs fixed-point {row_f['iterations']}", file=sys.stderr)
    return rows


def _run_fixed_point_compare(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    problem, exact = diag.make_manufactured(
        grid, _build_hamiltonian(cfg, grid), _build_local_coupling(cfg))
    return _sweep(_fixed_point_sub_run, cfg, problem, exact, out, verbose)


def _run_lemma_stability(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    problem, exact = diag.make_manufactured(
        grid, _build_hamiltonian(cfg, grid), _build_local_coupling(cfg))
    solve = solver.linearized_solver(problem, exact)
    ratios = []
    with open(out / "stability.csv", "w") as fh:
        fh.write("draw,seed,v_c10,rho_c0,ratio\n")
        for j in range(cfg.draws):
            a, b = diag.random_smooth_data(grid, seed=cfg.seed + j)
            v, rho = solve(a, b)
            v_c10 = tg.sup_norm(v.values) + tg.grad_sup_norm(v.values, grid)
            rho_c0 = tg.sup_norm(rho.values)
            ratio = v_c10 + rho_c0  # data pair is normalized to unit sup norms
            ratios.append(ratio)
            fh.write(f"{j},{cfg.seed + j},{v_c10:.17g},{rho_c0:.17g},{ratio:.17g}\n")
    row = _base_row(cfg, sub_run="stability")
    row["iterations"] = cfg.draws
    row["ratio_max"] = max(ratios)
    if verbose:
        print(f"[lemma-stability] max ratio {max(ratios):.4g}", file=sys.stderr)
    return [row]


def _run_hessian_sweep(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    spec = ham.congestion(grid, _build_h(cfg, grid), cfg.alpha)
    rows = []
    n_unsat = 0
    for m in HESSIAN_SWEEP_M:
        for p_mag in HESSIAN_SWEEP_P:
            p = np.full(grid.dim, p_mag)
            rep = ham.hessian_condition(spec, 0, m, p)
            rows.append((cfg.alpha, m, p_mag, rep.min_eigenvalue, rep.satisfied))
            n_unsat += not rep.satisfied
    ham.write_hessian_sweep_csv(rows, out / "hessian_sweep.csv")
    row = _base_row(cfg, sub_run="sweep")
    row["iterations"] = len(rows)
    row["final_residual"] = float(n_unsat)
    if verbose:
        print(f"[hessian-sweep] alpha={cfg.alpha}: {n_unsat} unsatisfied points",
              file=sys.stderr)
    return [row]


def _run_manufactured_verify(cfg: RunConfig, out: Path, verbose: bool):
    grid = _build_grid(cfg)
    problem, exact = diag.make_manufactured(
        grid, _build_hamiltonian(cfg, grid), _build_local_coupling(cfg))
    r_u, r_m = solver.residual(problem, exact)
    sup = max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values))
    masses = tg.slice_masses(exact.m.values, grid)
    tg.write_field_csv(exact.u, out / "fields_u_exact.csv")
    tg.write_field_csv(exact.m, out / "fields_m_exact.csv")
    row = _base_row(cfg, sub_run="verify")
    row["final_residual"] = sup
    row["ratio_max"] = float(np.max(np.abs(masses - 1.0)))
    if sup > 1e-13:
        row["status"] = "error"
        row["error"] = "ResidualNotZero"
    if verbose:
        print(f"[manufactured-verify] residual sup {sup:.3e}", file=sys.stderr)
    return [row]


_RUNNERS = {
    "newton-rate": _run_newton_rate,
    "fixed-point-compare": _run_fixed_point_compare,
    "lemma-stability": _run_lemma_stability,
    "hessian-sweep": _run_hessian_sweep,
    "nonlocal-rate": _run_nonlocal_rate,
    "manufactured-verify": _run_manufactured_verify,
}


def run(config_path, verbose: bool = False) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rows = _RUNNERS[cfg.experiment](cfg, out, verbose)
    except SOLVER_ERRORS as exc:
        row = _base_row(cfg, sub_run="failed")
        row["status"] = "error"
        row["error"] = type(exc).__name__
        _write_summary([row], out / "summary.csv")
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    _write_summary(rows, out / "summary.csv")
    if any(r.get("status") == "error" for r in rows):
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfg-newton",
        description="Run mean-field-game solver experiments from a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the experiment named in the config")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    run_p.add_argument("--verbose", action="store_true", help="progress on stderr")
    args = parser.parse_args(argv)
    return run(args.config, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
