"""Closed-loop benchmark of the gddp library.

Run from the repository root:

    python3 perfbench/run.py --workload certify-frozen --seed 1 --seconds 20 --trace 0

The workload runs in a child process with single-threaded BLAS, so that
its peak memory is its own and the load stays on one core.  The command
prints the environment, every metric with its unit, and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics.  The full record, and the spans of a traced run,
are written under ``.perfbench_out/``.  The exit code is 0 when every
output passed its check, 1 when a check failed or the child failed, and
2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("lqr-converge", "certify-frozen", "ballbeam-budget")
SETUP_ALLOWANCE_S = 140  # set-up, and the time past --seconds to reach the minimum sample count


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def _child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import gddp

    if not Path(gddp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gddp imported from {gddp.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from perfbench.harness import measure

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{_stem(args)}.json" if args.trace else None
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path)
    record["env"] = _environment()
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (ROOT / "src" / "gddp" / "__init__.py").is_file():
        print(f"library sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace)]
    timeout = args.seconds + SETUP_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {timeout:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload process failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    (OUT_DIR / f"result-{_stem(args)}.json").write_text(json.dumps(record, indent=1))

    env_rec = record["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env_rec.items()))
    print(f"op: {record['op']}; units={record['units']} samples={record['samples']}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record["info"].items():
        print(f"  info {name:35s} {value}")
    print(f"  setup times {record['setup_s_all']}; traced/untraced mismatches {record['mismatches']}")
    print(f"  failed {record['failed']} of {record['attempted']} operations, {record['raised']} by a library error")
    print(f"  wall time / scaled time {record['wall_over_scaled']:.4f}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
