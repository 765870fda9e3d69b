"""Batch front end: run a configured experiment and emit CSV artifacts.

Configuration is a single JSON document (experiments carry too many nested
parameters for positional flags); the only flag is --config.
Every experiment writes its artifacts inside the configured output directory:
history CSVs, field snapshots, and a summary.csv with one row per sub-run.
Exit codes: 0 success, 2 config validation error, 3 a solver error or a rate
sub-run too short to fit (summary.csv records the status and error class).
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
from . import torus_grid as tg
from .errors import ConfigError, InsufficientDataError, SolverError

H_CHOICES = ("constant", "1+0.5cos(2pix)")

SUMMARY_COLUMNS = (
    "experiment", "sub_run", "method", "dim", "nx", "nt", "T", "hamiltonian",
    "alpha", "coupling", "epsilon", "seed", "iterations", "fitted_q",
    "final_residual", "ratio_max", "status", "error",
)

HESSIAN_SWEEP_M = (0.1, 1.0, 10.0, 100.0)
HESSIAN_SWEEP_P = (0.5, 1.0, 2.0)
STABILITY_DRAWS = 20


@dataclass(frozen=True)
class RunConfig:
    """A validated config, holding the solver's own objects.

    ``coupling`` is None for hessian-sweep, which reads none; its label
    still names the configured coupling in the summary.
    """

    experiment: str
    grid: tg.GridSpec
    hamiltonian: ham.HamiltonianSpec
    coupling: cpl.LocalCoupling | cpl.NonlocalCoupling | None
    coupling_label: str
    newton: solver.NewtonConfig
    epsilons: tuple
    seed: int
    draws: int
    output_dir: str


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


def _number(v, path, minimum=None, strict=False, integer=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    if not abs(v) <= sys.float_info.max:  # Infinity, NaN, or a literal such as 1e400
        raise ConfigError(path, "must be a finite number")
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
    sigma = _number(obj["sigma"], f"{path}.sigma", minimum=cpl.MIN_SIGMA)
    if sigma > 1.0:
        raise ConfigError(f"{path}.sigma", f"must be <= 1, the torus's width, got {sigma}")
    return sigma


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
    experiment = _choice(raw["experiment"], "experiment", tuple(_RUNNERS))

    g = raw["grid"]
    _check_keys(g, "grid", required=("dim", "nx", "nt", "T"))
    dim = _number(g["dim"], "grid.dim", integer=True)
    if dim not in (1, 2):
        raise ConfigError("grid.dim", f"must be 1 or 2, got {dim}")
    grid = tg.GridSpec(dim=dim, nx=_number(g["nx"], "grid.nx", minimum=4, integer=True),
                       nt=_number(g["nt"], "grid.nt", minimum=2, integer=True),
                       horizon=_number(g["T"], "grid.T", minimum=0.0, strict=True))

    hml = raw.get("hamiltonian", {})
    _check_keys(hml, "hamiltonian", required=(), optional=("variant", "alpha", "h"))
    h_variant = _choice(hml.get("variant", "congestion"), "hamiltonian.variant",
                        (ham.CONGESTION, ham.SEPARABLE_QUADRATIC))
    alpha = _number(hml.get("alpha", 1.0), "hamiltonian.alpha", minimum=0.0, strict=True)
    if _choice(hml.get("h", "constant"), "hamiltonian.h", H_CHOICES) == "constant":
        h = np.ones(grid.spatial_shape)
    else:
        h = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.x_nodes()[0])
    hamiltonian = ham.HamiltonianSpec(h_variant, grid, h, alpha)

    coup = raw.get("coupling", {})
    _check_keys(coup, "coupling", required=(),
                optional=("local", "power_alpha", "kernel", "kernel_g"))
    local_variant, sigmas = None, ()  # sigmas: the kernel widths, g's only if it differs
    power_alpha = 2.0
    if "local" in coup:
        if "kernel" in coup or "kernel_g" in coup:
            raise ConfigError("coupling", "choose either local or kernel coupling")
        local_variant = _choice(coup["local"], "coupling.local",
                                (cpl.SIGMOID, cpl.LINEAR, cpl.POWER, cpl.ZERO))
        if "power_alpha" in coup:
            power_alpha = _number(coup["power_alpha"], "coupling.power_alpha", minimum=2.0)
    elif "kernel" in coup:
        sigmas = tuple(dict.fromkeys(_parse_kernel(coup[key], f"coupling.{key}")
                                     for key in ("kernel", "kernel_g") if key in coup))
    elif "power_alpha" in coup or "kernel_g" in coup:
        raise ConfigError("coupling", "incomplete coupling specification")

    nwt = raw.get("newton", {})
    _check_keys(nwt, "newton", required=(),
                optional=("max_iter", "residual_tol", "linear_method", "theta",
                          "error_floor"))
    max_iter = _number(nwt.get("max_iter", 30), "newton.max_iter", minimum=1, integer=True)
    residual_tol = _number(nwt.get("residual_tol", 1e-9), "newton.residual_tol",
                           minimum=0.0, strict=True)
    error_floor = _number(nwt.get("error_floor", 1e-10), "newton.error_floor",
                          minimum=0.0)
    theta = _number(nwt.get("theta", 0.5), "newton.theta", minimum=0.0, strict=True)
    if theta > 1.0:
        raise ConfigError("newton.theta", f"must lie in (0, 1], got {theta}")
    # both linear methods solve by the one path, so the key is checked and dropped
    _choice(nwt.get("linear_method", "direct"), "newton.linear_method", ("direct", "iterative"))
    newton = solver.NewtonConfig(max_iter=max_iter, residual_tol=residual_tol,
                                 error_floor=error_floor, damping=theta)

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
    if needs_local and local_variant is None and not sigmas:
        local_variant = cpl.SIGMOID
    if needs_local and local_variant is None:
        raise ConfigError("coupling.local", f"{experiment} requires a local coupling")
    if experiment == "nonlocal-rate":
        if not sigmas:
            raise ConfigError("coupling.kernel", "nonlocal-rate requires a kernel coupling")
        if h_variant != ham.SEPARABLE_QUADRATIC:
            raise ConfigError("hamiltonian.variant",
                              "nonlocal-rate requires separable_quadratic")

    if experiment == "hessian-sweep":
        if h_variant != ham.CONGESTION:
            raise ConfigError("hamiltonian.variant", "hessian-sweep requires congestion")
        coupling = None  # the sweep reads none, and a 2D kernel's dense conv is large
    elif not sigmas:
        coupling = cpl.LocalCoupling(local_variant, alpha=power_alpha)
    else:  # one kernel, and one dense conv, serves f and g when their widths agree
        f = cpl.gaussian_kernel_coupling(grid, sigmas[0])
        g = f if len(sigmas) == 1 else cpl.gaussian_kernel_coupling(grid, sigmas[1])
        coupling = cpl.NonlocalCoupling(f=f, g=g)
    label = local_variant or "/".join(f"gaussian:{sigma}" for sigma in sigmas)
    return RunConfig(
        experiment=experiment, grid=grid, hamiltonian=hamiltonian, coupling=coupling,
        coupling_label=label, newton=newton, epsilons=epsilons, seed=seed, draws=draws,
        output_dir=raw["output_dir"],
    )


# -- experiment building blocks -------------------------------------------------

def _base_row(cfg: RunConfig, sub_run: str, method: str = "") -> dict:
    grid = cfg.grid
    row = dict.fromkeys(SUMMARY_COLUMNS, "")
    row.update(experiment=cfg.experiment, sub_run=sub_run, method=method, dim=grid.dim,
               nx=grid.nx, nt=grid.nt, T=grid.horizon, hamiltonian=cfg.hamiltonian.variant,
               alpha=cfg.hamiltonian.alpha, coupling=cfg.coupling_label, seed=cfg.seed,
               status="ok")
    return row


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_summary(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in SUMMARY_COLUMNS) + "\n")


def _solve_row(cfg, solve, method, problem, exact, eps, tag, history_path):
    """Perturb the exact root by ``eps`` and run ``solve`` from there.

    Returns ``(row, final, history)``.  A solver failure becomes an error row
    naming the sub-run, its epsilon and the method, with ``final`` and
    ``history`` None; a failure that carries records first writes the partial
    history to ``history_path``.
    """
    row = _base_row(cfg, sub_run=tag, method=method)
    row["epsilon"] = eps
    try:
        final, history = solve(problem, diag.perturbed_state(exact, eps), cfg.newton,
                               reference=exact)
    except SolverError as exc:
        if exc.history:
            diag.write_history_csv(exc.history, history_path)
        row.update(status="error", error=type(exc).__name__)
        print(f"[{cfg.experiment}] sub-run {tag} failed: {exc}", file=sys.stderr)
        return row, None, None
    row["iterations"] = len(history) - 1
    row["final_residual"] = max(history[-1].res_u_sup, history[-1].res_m_sup)
    return row, final, history


def _run_rate(cfg: RunConfig, out: Path):
    """One Newton sub-run per epsilon.  A run that converged with too few
    iterates to fit keeps its row, with status no_fit."""
    problem, exact = diag.make_manufactured(cfg.grid, cfg.hamiltonian, cfg.coupling)
    if cfg.coupling.derives_terminal:
        cpl.write_kernel_csv(cfg.coupling.f, out / "kernel_f.csv")
        if cfg.coupling.g is not cfg.coupling.f:
            cpl.write_kernel_csv(cfg.coupling.g, out / "kernel_g.csv")
    rows = []
    for i, eps in enumerate(cfg.epsilons):
        tag = f"eps{i}"
        path = out / ("history.csv" if len(cfg.epsilons) == 1 else f"history_{tag}.csv")
        row, final, history = _solve_row(cfg, solver.solve_newton, "newton",
                                         problem, exact, eps, tag, path)
        rows.append(row)
        if history is None:
            continue
        tg.write_field_csv(final.u, out / f"fields_u_{tag}.csv")
        tg.write_field_csv(final.m, out / f"fields_m_{tag}.csv")
        try:
            fit = diag.fit_rate([r.err_sum for r in history], floor=cfg.newton.error_floor)
            row["fitted_q"] = fit.order
        except InsufficientDataError as exc:
            fit = None
            row.update(status="no_fit", error=type(exc).__name__)
            print(f"[{cfg.experiment}] sub-run {tag} converged, no fit: {exc}",
                  file=sys.stderr)
        diag.write_history_csv(history, path, fit=fit)
    return rows


def _run_fixed_point_compare(cfg: RunConfig, out: Path):
    """Newton, then Picard, from the same start for every epsilon; Picard is
    not run once Newton has failed."""
    problem, exact = diag.make_manufactured(cfg.grid, cfg.hamiltonian, cfg.coupling)
    rows = []
    for i, eps in enumerate(cfg.epsilons):
        tag = f"eps{i}"
        for method, solve in (("newton", solver.solve_newton),
                              ("fixed-point", solver.solve_fixed_point)):
            path = out / f"history_{method.replace('-', '_')}_{tag}.csv"
            row, _, history = _solve_row(cfg, solve, method, problem, exact, eps, tag, path)
            rows.append(row)
            if history is None:
                break
            diag.write_history_csv(history, path)
    return rows


def _run_lemma_stability(cfg: RunConfig, out: Path):
    grid = cfg.grid
    problem, exact = diag.make_manufactured(grid, cfg.hamiltonian, cfg.coupling)
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
    return [row]


def _run_hessian_sweep(cfg: RunConfig, out: Path):
    spec = cfg.hamiltonian
    rows = []
    n_unsat = 0
    for m in HESSIAN_SWEEP_M:
        for p_mag in HESSIAN_SWEEP_P:
            rep = ham.hessian_condition(spec, 0, m, np.full(cfg.grid.dim, p_mag))
            rows.append((spec.alpha, m, p_mag, rep.min_eigenvalue, rep.satisfied))
            n_unsat += not rep.satisfied
    ham.write_hessian_sweep_csv(rows, out / "hessian_sweep.csv")
    row = _base_row(cfg, sub_run="sweep")
    row["iterations"] = len(rows)
    row["final_residual"] = float(n_unsat)
    return [row]


def _run_manufactured_verify(cfg: RunConfig, out: Path):
    problem, exact = diag.make_manufactured(cfg.grid, cfg.hamiltonian, cfg.coupling)
    r_u, r_m = solver.residual(problem, exact)
    sup = max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values))
    masses = tg.slice_masses(exact.m.values, cfg.grid)
    tg.write_field_csv(exact.u, out / "fields_u_exact.csv")
    tg.write_field_csv(exact.m, out / "fields_m_exact.csv")
    row = _base_row(cfg, sub_run="verify")
    row["final_residual"] = sup
    row["ratio_max"] = float(np.max(np.abs(masses - 1.0)))
    if sup > 1e-13:
        row["status"] = "error"
        row["error"] = "ResidualNotZero"
    return [row]


_RUNNERS = {
    "newton-rate": _run_rate,
    "fixed-point-compare": _run_fixed_point_compare,
    "lemma-stability": _run_lemma_stability,
    "hessian-sweep": _run_hessian_sweep,
    "nonlocal-rate": _run_rate,
    "manufactured-verify": _run_manufactured_verify,
}


def run(config_path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output_dir: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    try:
        rows = _RUNNERS[cfg.experiment](cfg, out)
    except SolverError as exc:
        row = _base_row(cfg, sub_run="failed")
        row["status"] = "error"
        row["error"] = type(exc).__name__
        _write_summary([row], out / "summary.csv")
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    _write_summary(rows, out / "summary.csv")
    if any(r["status"] != "ok" for r in rows):
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfg-newton",
        description="Run mean-field-game solver experiments from a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the experiment named in the config")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    return run(parser.parse_args(argv).config)
