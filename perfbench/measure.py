"""Measurement helpers shared by the workloads.

Quantiles, the tail rule, peak memory from ``/proc``, aggregation of
``repro.obs`` span trees into per-layer busy times, and the host
fingerprint. Nothing here imports the program under test except where a
function receives its objects as arguments.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: samples the tail percentile must leave beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(samples) -> dict:
    """The highest percentile that leaves at least ``TAIL_BEYOND`` samples
    above it. With fewer than ``TAIL_BEYOND + 1`` samples no percentile
    qualifies and the maximum is reported, marked ``beyond: 0``."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return {
            "value": ordered[n - TAIL_BEYOND - 1],
            "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 3),
            "beyond": TAIL_BEYOND,
            "samples": n,
        }
    return {
        "value": ordered[-1] if ordered else 0.0,
        "percentile": 100.0,
        "beyond": 0,
        "samples": n,
    }


def ref_loop_ms(reps: int = 30) -> float:
    """Median time of a fixed pure-Python loop: a reading of host speed
    taken before and after the timed region and kept in the details line.
    On a shared host that speed wanders by tens of percent over minutes
    (see NOTES.md), and this reading tells a slow-host run from a slow
    program."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, over all of its threads."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        out.extend(int(c) for c in text.split())
    return sorted(set(out))


def busy_s(roots, name: str) -> float:
    """Total duration of spans called ``name``. A span nested inside a
    span of the same name is part of it and not counted again, so a
    benchmark span may share its name with the program span it wraps."""
    total = 0.0
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            total += span.duration_s
        else:
            stack.extend(span.children)
    return total


def host_fingerprint() -> dict:
    import numpy

    from repro.interference.batch import active_backend

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "batch_backend": active_backend(),
    }


def skipped(nproc: int | None) -> list[dict]:
    """Layers the benchmark does not measure here, each with its reason."""
    if (nproc or 0) < 4:
        fanout = (f"shard fan-out needs >= 4 CPUs for its scaling claim; "
                  f"this host has {nproc}")
    else:
        fanout = "the sharded serve cluster is not covered yet"
    return [
        {"layer": "cluster", "reason": fanout},
        {"layer": "runner", "reason": "sweep scheduling is not covered yet; "
         "only its ResultCache is used, by paper_pipeline's recovery_s"},
        {"layer": "opt", "reason": "the certified solver is not covered yet"},
    ]
