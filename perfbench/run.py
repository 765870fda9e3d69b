"""Benchmark of the mfg_newton solver, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``all`` runs every workload in turn,
each ending in its own result line.  One client drives the package
through its public API, one operation after another (closed loop), in
WORKERS fresh worker processes run one after the other; each gets an equal
share of ``--seconds`` and the operation samples of all of them are pooled.
BLAS threads are capped at the number of usable CPUs.  Every operation is
checked; a raised solver error counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every other operation runs traced and
the line carries the per-layer metrics, and the spans are written to
``perfbench/out/``.  The lines before it print every metric by name with its
unit, and the run's context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKERS = 3
HARD_LIMIT_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MiB",
    "iters_per_op": "count", "ok_rate": "fraction",
}
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in tr.SELF_TIMES},
    **{f"{n}.calls": "count" for n in tr.CALLS},
    "sparse_linalg.factor_s": "s", "sparse_linalg.factor.calls": "count",
    "sparse_linalg.lu_fill": "count", "sparse_linalg.jac_nnz": "count",
    "sparse_linalg.factor_per_matrix": "ratio", "sparse_linalg.backsolve_s": "s",
    "sparse_linalg.relres_max": "ratio", "io.write_s": "s", "io.bytes": "bytes",
    **{f"cli.{e}.s": "s" for e in tr.EXPERIMENTS},
    "share.assembly": "fraction", "share.factor": "fraction",
    "trace.overhead_s": "s", "trace.absent_boundaries": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def tail(samples):
    """Highest percentile with >= TAIL_BEYOND samples beyond it, by nearest
    rank: (value, level, sample count).  With fewer than 2 * TAIL_BEYOND
    samples no level above the median qualifies, and the median is returned."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(samples), 0.5, n
    level = (n - TAIL_BEYOND) / n
    return sorted(samples)[math.ceil(level * n) - 1], level, n


def _launch(spec, env, hard_deadline):
    spec["launch"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, cwd=spec["root"], capture_output=True, text=True,
            timeout=max(1.0, hard_deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec['worker']} overran the run's time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {spec['worker']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layers(results, ok_ops):
    """Per-layer metrics: median over traced operations (relres: max), plus
    the median set-up share of the set-up-fed layers."""
    per_op, setup = [], []
    for i, res in enumerate(results):
        spans = res["spans"]
        selfs = tr.self_times(spans)
        for root, s in enumerate(spans):
            if s[0] == "op" and s[3] == -1 and s[4] in ok_ops:
                per_op.append(tr.op_layers(spans, selfs, root))
        setup.append(tr.setup_layers(spans, selfs, f"setup-{i}"))
    out = {}
    for key, unit in PER_LAYER.items():
        values = [op[key] for op in per_op if key in op]
        if key == "sparse_linalg.relres_max":
            out[key] = max(values, default=0.0)
        elif not values:
            out[key] = 0.0
        else:
            middle = statistics.median_low if unit in ("count", "bytes") else statistics.median
            out[key] = middle(values)
    for key in tr.SETUP_FED:
        out[f"{key}.self_s"] += statistics.median(s[key] for s in setup)
    return out


def run(workload, seed, seconds, trace, size="full", bad_start=False):
    """Run one benchmark; return (result line dict, report lines)."""
    root = HERE.parent
    if not (root / "src" / "mfg_newton" / "__init__.py").is_file():
        raise BenchError(f"no package source at {root / 'src' / 'mfg_newton'}")
    if workload == "cli-configs" and not any((root / "configs").glob("*.json")):
        raise BenchError(f"no configs under {root / 'configs'}")
    nproc = len(os.sched_getaffinity(0))
    caps = {v: str(nproc) for v in THREAD_VARS}
    env = {**os.environ, **caps}

    t_run = time.monotonic()
    hard_deadline = t_run + HARD_LIMIT_S
    results, ops = [], []
    for i in range(WORKERS):
        spec = {"root": str(root), "out_dir": str(OUT), "workload": workload,
                "seed": seed, "size": size, "trace": bool(trace), "worker": i,
                "bad_start": bad_start, "first_op": len(ops),
                "deadline": t_run + seconds * (i + 1) / WORKERS}
        res = _launch(spec, env, hard_deadline)
        results.append(res)
        ops.extend(res["ops"])

    for op in ops[1:]:  # a cli pass must reproduce the run's first pass
        if op["ok"] and op["summary"] != ops[0]["summary"]:
            op["ok"], op["error"] = False, "summary.csv differs from the run's first pass"
    failed = [op for op in ops if not op["ok"]]
    good = [op for op in ops if op["ok"]] or ops
    untraced = [op["t"] for op in good if not op["traced"]]
    traced = [op["t"] for op in good if op["traced"]]
    q = [v for op in good for v in (op["q"] or [])]
    context = {**results[0]["versions"], "nproc": nproc,
               "threads": ",".join(f"{k}={v}" for k, v in caps.items()),
               "commit": _git_commit(root), "src_lines": _src_lines(root),
               "workers": WORKERS, "loop": "closed", "clients": 1}
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(bool(trace))}",
        f"why {wl.WHY[workload]}",
        "context " + " ".join(f"{k}={v}" for k, v in context.items()),
        f"info attempted={len(ops)} failed={len(failed)} fail_rate={len(failed) / len(ops):.6g}",
    ]
    if q:
        lines.append(f"info fitted_q median={statistics.median(q):.6g} min={min(q):.6g} "
                     f"max={max(q):.6g} (information only, not gated)")
    lines += [f"failed op {op['index']}: {op['error']}" for op in failed[:5]]

    if trace:
        absent = sorted({a for res in results for a in res["absent"]})
        metrics = _layers(results, {f"op-{op['index']}" for op in good if op["traced"]})
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                       if traced and untraced else 0.0)
        metrics["trace.absent_boundaries"] = len(absent)
        lines += [f"absent boundary {a}" for a in absent]
        waste = tr.factor_waste_by_experiment(results[0]["spans"])
        if waste:
            lines.append("info factor_per_matrix by experiment, first pass: "
                         + " ".join(f"{e}={r:.4g}" for e, r in waste.items()))
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": seed, "context": context, "absent": absent,
            "span_fields": ["name", "start", "end", "parent", "op", "attrs"],
            "workers": [{"ops": res["ops"], "spans": res["spans"]} for res in results],
        }))
        lines.append(f"trace written to {path}")
    else:
        tail_s, tail_level, tail_n = tail(untraced)
        lines.append(f"info op_s_tail_level=p{100 * tail_level:.4g} op_s_tail_samples={tail_n}")
        metrics = {
            "setup_s": statistics.median(res["setup_s"] for res in results),
            "op_s_p50": statistics.median(untraced),
            "op_s_tail": tail_s,
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
            "iters_per_op": statistics.mean(op["iters"] for op in good),
            "ok_rate": 1.0 - len(failed) / len(ops),
        }
        units = END_TO_END
    lines += [f"metric {k} = {metrics[k]!r} {u}" for k, u in units.items()]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    names = list(wl.WHY) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, lines = run(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
