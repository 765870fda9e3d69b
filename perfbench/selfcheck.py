"""Fast self-check of the benchmark on tiny grids.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on tiny grids and checks
that each run reports exactly the metrics BENCHMARK.json names, with their
units, and that every operation passes.  Then injects a bad start (a density
below the congestion Hamiltonian's floor, which raises DomainError) and checks
that it is counted as a failed operation instead of crashing the run.
"""

from __future__ import annotations

import json
import sys

import run as bench
import spans as tr
import workloads as wl


def _require(cond, message):
    if not cond:
        raise SystemExit(f"selfcheck failed: {message}")


def _check_absent_boundaries():
    """A boundary that no longer exists is reported, and install/uninstall
    leaves the package as it found it."""
    sys.path.insert(0, str(bench.HERE.parent / "src"))
    from mfg_newton import mfg_solver, sparse_linalg

    before = (mfg_solver.newton_system, sparse_linalg.spla,
              sparse_linalg.SparseMatrix.__dict__["from_triplets"])
    gone = (("mfg_solver", "newton_system_v2", "x"),
            ("sparse_linalg", "NoSuchMatrix.from_triplets", "x"),
            ("no_such_module", "solve", "x"))
    tracer = tr.Tracer()
    absent = tracer.install(tr.BOUNDARIES + gone)
    _require(absent == ["mfg_solver.newton_system_v2",
                        "sparse_linalg.NoSuchMatrix.from_triplets",
                        "no_such_module.solve"], f"absent boundaries {absent}")
    _require(mfg_solver.newton_system is not before[0], "boundary not wrapped")
    tracer.uninstall()
    after = (mfg_solver.newton_system, sparse_linalg.spla,
             sparse_linalg.SparseMatrix.__dict__["from_triplets"])
    _require(all(a is b for a, b in zip(before, after)), "uninstall did not restore")
    print("ok absent boundaries reported, package restored")


def main() -> int:
    _check_absent_boundaries()
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    _require({w["name"]: w["why"] for w in spec["workloads"]} == wl.WHY,
             "BENCHMARK.json workloads differ from workloads.WHY")
    for trace, key, units in ((0, "end_to_end", bench.END_TO_END),
                              (1, "per_layer", bench.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        _require(named == units, f"BENCHMARK.json {key} differs from run.py")
        for workload in wl.WHY:
            result, _ = bench.run(workload, seed=0, seconds=1, trace=trace, size="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == named, f"{workload} trace={trace}: metrics {sorted(got)}")
            _require(result["correct"] and result["failed"] == 0,
                     f"{workload} trace={trace}: {result['failed']} failed operations")
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")

    result, lines = bench.run("newton-local-1d", seed=0, seconds=1, trace=0,
                              size="tiny", bad_start=True)
    _require(result["failed"] == 1 and not result["correct"],
             f"injected bad start: failed={result['failed']}")
    _require(result["metrics"]["ok_rate"]["value"] < 1.0, "ok_rate ignores the failure")
    _require(any("DomainError" in line for line in lines), "failure not reported")
    print("ok injected bad start counted as a failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
