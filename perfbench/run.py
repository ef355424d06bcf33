"""The benchmark's one command.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout. Metric names and units come from
``BENCHMARK.json`` beside ``perfbench/``; ``perfbench/NOTES.md`` says why
each workload and design choice is there.

This launcher imports nothing from the program. It starts
``SETUP_SAMPLES`` fresh interpreters of ``worker.py``: all but the last
only set up (``--probe``), the last also runs the workload. Each one's
interpreter-start-to-ready time is a ``setup_s`` sample and the median is
reported, because one cold start is too noisy to compare. Every worker
gets its own process group, so a timed-out worker is killed together
with any server it started.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it holds the details: tail percentiles and sample counts, recovery
samples, host fingerprint and the layers that were skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: a run that has not finished by then is killed with everything it started
DEADLINE_S = 170.0


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, workdir: Path, *, probe: bool, timeout: float) -> dict:
    """Start one worker and wait for it; returns its exit code, the
    seconds from spawn to its READY line, and its output lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.start()
    ready_s = None
    ready = None
    last = None
    try:
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                ready_s = time.perf_counter() - t0
                ready = json.loads(line[len("READY "):])
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.returncode != 0:
            _kill_group(proc)
        proc.wait()
    return {"code": proc.returncode, "ready_s": ready_s, "ready": ready, "last": last}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        samples = []
        for k in range(SETUP_SAMPLES):
            out = run_worker(
                args, workdir / str(k), probe=k < SETUP_SAMPLES - 1,
                timeout=max(deadline - time.perf_counter(), 0.0),
            )
            if out["code"] != 0 or out["ready_s"] is None:
                print(f"run.py: worker failed (exit {out['code']})", file=sys.stderr)
                return 1
            samples.append(out)
        result = json.loads(samples[-1]["last"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ready = [s["ready_s"] for s in samples]
    imports = [s["ready"]["import_s"] for s in samples]
    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(ready)
    measured["setup.ready_s"] = statistics.median(ready)
    measured["setup.import_s"] = statistics.median(imports)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in declared:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                missing.append(m["name"])
            # a layer this workload does not exercise did no work
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    from measure import skipped

    details = result.get("details", {})
    details["setup_samples_s"] = ready
    details["import_samples_s"] = imports
    details["skipped"] = skipped(details.get("host", {}).get("nproc"))
    details["missing_metrics"] = missing
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "details": details}))
    failed = int(result["failed"])
    correct = failed == 0 and not missing
    if not args.trace:
        # every end-to-end metric measures work that always happens
        correct = correct and all(m["value"] > 0 for m in metrics.values())
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
