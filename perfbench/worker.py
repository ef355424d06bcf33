"""One benchmark process, started by run.py in a fresh interpreter.

It imports the program from ``src/``, sets the workload up (engine
creation, server spawn, warm-up) and prints ``READY {"import_s": ...}``;
run.py times interpreter start to that line as one ``setup_s`` sample.
With ``--probe`` it then tears down and exits. Otherwise it runs the
workload for ``--seconds`` of measured time, checks the outputs and
prints one JSON line: attempted, failed, metrics and details.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper_pipeline": "wl_pipeline",
    "stream_dense": "wl_stream",
    "serve_open": "wl_serve",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - t0
    module = importlib.import_module(WORKLOADS[args.workload])
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = module.Workload(
        args.workload, ROOT, args.workdir, args.seed, bool(args.trace)
    )
    try:
        workload.setup()
        print("READY " + json.dumps({"import_s": import_s}), flush=True)
        if args.probe:
            return 0
        from repro import obs
        from measure import host_fingerprint, ref_loop_ms

        ref = [ref_loop_ms()]
        if args.trace:
            obs.enable()
        result = workload.run(args.seconds)
        obs.disable()
        ref.append(ref_loop_ms())
        host = host_fingerprint()
        host["ref_loop_ms"] = ref
        result["details"]["host"] = host
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
