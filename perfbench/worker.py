"""One benchmark worker: a fresh process that imports the package, builds one
workload and runs its operations back to back until a deadline.

Started by ``run.py`` with one JSON argument; prints one JSON result line on
standard output.  Set-up time runs from the moment the parent launched this
process to the start of the first timed operation.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import mfg_newton as mn

    here = Path(mn.__file__).resolve()
    if (root / "src").resolve() not in here.parents:
        raise RuntimeError(f"imported mfg_newton from {here}, not from {root / 'src'}")
    import numpy
    import scipy

    import spans as tr
    import workloads as wl

    tracer = tr.Tracer() if spec["trace"] else None
    absent = []
    if tracer is not None:
        tracer.op = f"setup-{spec['worker']}"
        absent = tracer.install()
    workload = wl.build(mn, spec["workload"], root, spec["size"], spec["seed"],
                        Path(spec["out_dir"]))
    if tracer is not None:
        tracer.uninstall()

    ops = []
    setup_s = None
    index = spec["first_op"]
    try:
        while True:
            start = workload.prepare(index, bad=spec["bad_start"] and index == 0)
            traced = tracer is not None and index % 2 == 0
            if setup_s is None:
                setup_s = time.monotonic() - spec["launch"]
            if traced:
                tracer.op = f"op-{index}"
                tracer.install()
                with tracer.span("op") as attrs:
                    t0 = time.perf_counter()
                    outcome = workload.run(start, tracer)
                    elapsed = time.perf_counter() - t0
                tracer.uninstall()
            else:
                t0 = time.perf_counter()
                outcome = workload.run(start, None)
                elapsed = time.perf_counter() - t0
            result = workload.check(outcome)
            if traced:
                attrs["bytes"] = result.bytes
            ops.append({"index": index, "t": elapsed, "traced": traced, **asdict(result)})
            index += 1
            if time.monotonic() >= spec["deadline"]:
                break
    finally:
        workload.close()

    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "spans": tracer.spans if tracer is not None else [],
        "absent": absent,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    out = sys.stdout
    sys.stdout = sys.stderr  # anything the package prints stays off the result line
    result = main(json.loads(sys.argv[1]))
    out.write(json.dumps(result) + "\n")
    out.flush()
