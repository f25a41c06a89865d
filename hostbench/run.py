"""Host benchmark of the ``repro`` N-body package.

Run from the repository root::

    python3 hostbench/run.py --workload galaxy-rebuild --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs a fixed amount of the same work untraced
and again with every layer probe installed, prints the per-layer
metrics and writes the spans to ``.hostbench_out/``.  Both check the
program's outputs.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the exit
code is 0 only when every check passed.  See ``hostbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS/OpenMP pools are pinned to one thread before numpy loads:
#: otherwise OpenBLAS starts one thread per core and host times depend
#: on what else the machine runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: glibc ``mallopt`` parameters and the values set before numpy loads.
#: By default glibc maps every block above 32 MiB afresh and returns
#: freed heap to the kernel, so each galaxy-rebuild step page-faults on
#: ~25 000 pages of temporaries; in a VM what those faults cost moves
#: with the host's load (0.1-1 s of kernel time per ~2.4 s step).  Kept
#: in the heap, the pages are faulted once and reused by every step.
#: A trim threshold of -1 disables trimming: any finite one that the
#: free top of the heap can reach (1 GiB does at N=20000) hands the
#: whole top back mid-step.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, -1), "M_MMAP_THRESHOLD": (-3, 1 << 30)}
#: Seed kept out of every tuning run; a performance claim is checked on it.
HELD_OUT_SEED = 20240917
WORKLOAD_NAMES = ("galaxy-rebuild", "plummer-refit", "serve-mixed")


def retain_heap() -> dict:
    """Apply :data:`MALLOPT`; returns what was set (empty without glibc)."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return {}
    return {name: value for name, (param, value) in MALLOPT.items()
            if libc.mallopt(param, value) == 1}


def prepare() -> dict:
    """Pin thread pools, keep freed memory in the heap and put the
    package sources on the path; returns the allocator settings."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    heap = retain_heap()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"package sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return heap


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, heap: dict) -> dict:
    import numpy as np

    blas = {}
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = {k: dep.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "mallopt": heap,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def write_trace(result, env: dict) -> Path:
    out = ROOT / ".hostbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{env['workload']}-seed{env['seed']}.json"
    path.write_text(json.dumps({"env": env, "notes": result.notes,
                                "spans": result.trace.records()}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        heap = prepare()
    except FileNotFoundError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 2

    # Imported only now: numpy must see the pinned thread counts.
    from harness import E2E_UNITS, WORKLOADS
    from layers import per_layer_units

    env = environment(args, heap)
    print("hostbench env " + json.dumps(env), flush=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = workload.trace(args.seed)
        units = per_layer_units()
        print(f"hostbench trace written to {write_trace(result, env)}")
    else:
        result = workload.measure(args.seed, args.seconds)
        units = E2E_UNITS
    print("hostbench notes " + json.dumps(result.notes, default=str))
    print("hostbench checks " + json.dumps(result.checks))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(result.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
