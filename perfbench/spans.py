"""Span recording around the public callables of each ``mfg_newton`` module.

Spans are taken from outside the package: while tracing is on, the callables
listed in ``BOUNDARIES`` are replaced by wrappers that record a span (name,
start, end, parent, op id, attributes) and call through.  Tracing is switched
on and off per operation, so untraced operations run the unmodified package.

A boundary whose callable no longer exists is reported as absent, not as an
error, so the benchmark keeps working across refactors that delete or reshape
a function.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import time
import types
from contextlib import contextmanager

PACKAGE = "mfg_newton"

# (module, attribute path, span name).  Several callables may share a span
# name; their spans are summed into one layer.
BOUNDARIES = (
    ("mfg_solver", "newton_system", "mfg_solver.newton_system"),
    ("mfg_solver", "residual", "mfg_solver.residual"),
    ("mfg_solver", "solve_fixed_point", "mfg_solver.solve_fixed_point"),
    ("mfg_solver", "solve_linearized", "mfg_solver.solve_linearized"),
    ("sparse_linalg", "solve", "sparse_linalg.solve"),
    ("sparse_linalg", "SparseMatrix.from_triplets", "sparse_linalg.from_triplets"),
    ("sparse_linalg", "spla.splu", "sparse_linalg.factor"),
    ("hamiltonian", "eval_bundle_arrays", "hamiltonian.eval_bundle_arrays"),
    ("coupling", "local_eval", "coupling.local_eval"),
    ("coupling", "gaussian_kernel_coupling", "coupling.gaussian_kernel_coupling"),
    ("torus_grid", "grad_array", "torus_grid.stencil"),
    ("torus_grid", "lap_array", "torus_grid.stencil"),
    ("torus_grid", "div_array", "torus_grid.stencil"),
    ("diagnostics", "error_norms", "diagnostics.error_norms"),
    ("diagnostics", "make_manufactured", "diagnostics.make_manufactured"),
    ("diagnostics", "make_manufactured_nonlocal", "diagnostics.make_manufactured"),
    ("diagnostics", "write_history_csv", "io.write"),
    ("torus_grid", "write_field_csv", "io.write"),
    ("coupling", "write_kernel_csv", "io.write"),
    ("hamiltonian", "write_hessian_sweep_csv", "io.write"),
    ("cli", "_write_summary", "io.write"),
    ("cli", "load_config", "cli.load_config"),
)


def _matrix_key(a) -> str:
    """Content hash of a compressed sparse matrix, to count distinct matrices."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (a.indptr, a.indices, a.data):
        h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def _after_factor(args, lu, attrs, tracer):
    a = args[0]
    attrs["nnz"] = int(a.nnz)
    attrs["fill"] = int(lu.L.nnz + lu.U.nnz)
    attrs["key"] = _matrix_key(a)
    return _FactorProxy(lu, tracer)


def _after_solve(args, _result, attrs, _tracer):
    meta = getattr(args[0], "meta", None)
    if hasattr(meta, "residual_norm"):
        attrs["relres"] = float(meta.residual_norm)


AFTER = {
    "sparse_linalg.factor": _after_factor,
    "sparse_linalg.solve": _after_solve,
}


class _FactorProxy:
    """SuperLU factor whose ``solve`` (the back-solve) records a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("sparse_linalg.backsolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _ModuleProxy(types.ModuleType):
    """Stands in for a foreign module inside one package module only."""

    def __init__(self, real):
        super().__init__(real.__name__)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder for one worker process.

    ``spans`` holds ``[name, start, end, parent, op, attrs]`` lists; ``parent``
    is the index of the enclosing span or -1.  Spans stay in memory until the
    run writes them out.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.op, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        after = AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    replaced = after(args, result, attrs, tracer)
                    if replaced is not None:
                        result = replaced
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary that exists; return the absent ones."""
        package = importlib.import_module(PACKAGE)
        absent = []
        for mod_name, path, name in boundaries:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                absent.append(f"{mod_name}.{path}")
                continue
            *owners, attr = path.split(".")
            holder = module
            for part in owners:
                holder = getattr(holder, part, None)
                if holder is None:
                    break
            if holder is None or not hasattr(holder, attr):
                absent.append(f"{mod_name}.{path}")
                continue
            if isinstance(holder, types.ModuleType) and holder is not module \
                    and not holder.__name__.startswith(PACKAGE):
                # A foreign module (scipy): interpose on this package module
                # only, so the span covers the call as this module makes it.
                proxy = _ModuleProxy(holder)
                setattr(proxy, attr, self._wrap(getattr(holder, attr), name))
                self._set(module, owners[-1], proxy)
                continue
            static = inspect.getattr_static(holder, attr)
            if isinstance(static, classmethod):
                self._set(holder, attr, classmethod(self._wrap(static.__func__, name)))
                continue
            original = getattr(holder, attr)
            wrapped = self._wrap(original, name)
            self._set(holder, attr, wrapped)
            if package.__dict__.get(attr) is original:
                self._set(package, attr, wrapped)
        return absent

    def _set(self, holder, attr, value):
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)


# -- per-layer metrics from spans ---------------------------------------------

# Matrix assembly is the self time of these spans: the Newton, Picard and
# stability-probe paths build their matrices in private helpers below them.
ASSEMBLY = ("mfg_solver.newton_system", "mfg_solver.solve_fixed_point",
            "mfg_solver.solve_linearized", "sparse_linalg.from_triplets")
SELF_TIMES = (
    "mfg_solver.newton_system", "mfg_solver.solve_fixed_point",
    "mfg_solver.solve_linearized", "mfg_solver.residual", "sparse_linalg.solve",
    "sparse_linalg.from_triplets", "hamiltonian.eval_bundle_arrays",
    "coupling.local_eval", "coupling.gaussian_kernel_coupling",
    "torus_grid.stencil", "diagnostics.error_norms",
    "diagnostics.make_manufactured", "cli.load_config",
)
CALLS = ("mfg_solver.newton_system", "mfg_solver.residual")
# Layers that also run while a worker sets up; their set-up share is added.
SETUP_FED = ("coupling.gaussian_kernel_coupling", "diagnostics.make_manufactured")
EXPERIMENTS = ("newton-rate", "fixed-point-compare", "lemma-stability",
               "hessian-sweep", "nonlocal-rate", "manufactured-verify")


def self_times(spans):
    """Per-span self time: duration minus the duration of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def op_layers(spans, selfs, root):
    """Per-layer figures of one traced operation whose root span is ``root``."""
    total = spans[root][2] - spans[root][1]
    out = {f"{n}.self_s": 0.0 for n in SELF_TIMES}
    out.update({f"{n}.calls": 0 for n in CALLS})
    out.update({f"cli.{e}.s": 0.0 for e in EXPERIMENTS})
    factor_s = backsolve_s = write_s = assembly_s = 0.0
    fills, nnzs, keys, relres = [], [], [], []
    op = spans[root][4]
    for i, (name, start, end, _parent, span_op, attrs) in enumerate(spans):
        if span_op != op or i == root:
            continue
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += selfs[i]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        if name in ASSEMBLY:
            assembly_s += selfs[i]
        if name == "sparse_linalg.factor":
            factor_s += end - start
            fills.append(attrs.get("fill", 0))
            nnzs.append(attrs.get("nnz", 0))
            keys.append(attrs.get("key"))
        elif name == "sparse_linalg.backsolve":
            backsolve_s += end - start
        elif name == "sparse_linalg.solve" and "relres" in attrs:
            relres.append(attrs["relres"])
        elif name == "io.write":
            write_s += selfs[i]
        elif name.startswith("cli.") and f"{name}.s" in out:
            out[f"{name}.s"] += end - start
    out["sparse_linalg.factor_s"] = factor_s
    out["sparse_linalg.factor.calls"] = len(keys)
    out["sparse_linalg.lu_fill"] = max(fills, default=0)
    out["sparse_linalg.jac_nnz"] = max(nnzs, default=0)
    out["sparse_linalg.factor_per_matrix"] = len(keys) / len(set(keys)) if keys else 0.0
    out["sparse_linalg.backsolve_s"] = backsolve_s
    out["sparse_linalg.relres_max"] = max(relres, default=0.0)
    out["io.write_s"] = write_s
    out["io.bytes"] = spans[root][5].get("bytes", 0)
    out["share.assembly"] = assembly_s / total
    out["share.factor"] = factor_s / total
    return out


def factor_waste_by_experiment(spans):
    """Factorizations / distinct matrices inside each ``cli.<experiment>`` span."""
    keys = {}
    for name, _start, _end, parent, _op, attrs in spans:
        if name != "sparse_linalg.factor":
            continue
        while parent >= 0 and spans[parent][0][4:] not in EXPERIMENTS:
            parent = spans[parent][3]
        if parent >= 0:
            keys.setdefault(spans[parent][0][4:], []).append(attrs.get("key"))
    return {exp: len(k) / len(set(k)) for exp, k in keys.items()}


def setup_layers(spans, selfs, op):
    """Self time of the set-up-fed layers inside one worker's set-up."""
    out = dict.fromkeys(SETUP_FED, 0.0)
    for i, s in enumerate(spans):
        if s[4] == op and s[0] in out:
            out[s[0]] += selfs[i]
    return out
