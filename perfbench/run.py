"""End-to-end benchmark of the PrIU deletion server (``FleetServer``).

Run from the repository root::

    python3 perfbench/run.py --workload warm-query --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the timed
pass twice, untraced and then traced, and prints every per-layer metric
with the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
premise, correctness or validity check makes ``correct`` false and the
exit code 1.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import ctypes
import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

#: glibc's mmap threshold, pinned before numpy allocates anything.  Left
#: dynamic, the threshold climbs (up to 32 MiB) after the first large
#: free; freed store-sized arrays then stay in the heap, and the RSS a run
#: reports depended on fragmentation: commit-churn read 135 or 158-170 MB
#: by seed.  Pinned, every array of 4 MiB or more is mapped and unmapped
#: on its own, and RSS tracks live state (135-137 MB on those seeds).
MMAP_THRESHOLD = 4 << 20


def _pin_mmap_threshold() -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(-3, MMAP_THRESHOLD))  # -3: M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return False  # not glibc: the allocator runs as it is


MMAP_THRESHOLD_PINNED = _pin_mmap_threshold()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` in the checkout (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 over the program's sources: identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(args, np, harness) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mmap_threshold": MMAP_THRESHOLD if MMAP_THRESHOLD_PINNED else None,
        "scale": harness.SCALE,
        "iteration_share": harness.ITERATION_SHARE,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "n_workers": harness.N_WORKERS,
        "generator_threads": harness.GENERATOR_THREADS,
    }


class Run:
    """Per-invocation state handed to the workload."""

    def __init__(self, seconds: float, work: Path, tracer) -> None:
        self.seconds = seconds
        self.work = work
        self.tracer = tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import harness
    import metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    env = fingerprint(args, np, harness)
    print("fingerprint " + json.dumps(env, sort_keys=True))
    threads = harness.GENERATOR_THREADS + harness.N_WORKERS
    if threads > env["nproc"] + 1:
        print(f"perfbench: refusing to start: {harness.GENERATOR_THREADS} "
              f"generator + {harness.N_WORKERS} worker threads exceed "
              f"nproc {env['nproc']} + 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(args.seconds, work, None)
    deployment = None
    try:
        deployment, setups = harness.timed_setups(
            lambda index: workload.setup(run, index)
        )
        passes = []
        if tracer is not None:
            tracer.uninstall()
            passes.append(workload.play(deployment, run, args.seed))
            if hasattr(workload, "reset"):
                workload.reset(deployment)  # the state setup left, untraced
            tracer.phase = "timed"
            tracer.install()
            run.tracer = tracer
            try:
                passes.append(workload.play(deployment, run, args.seed))
            finally:
                tracer.uninstall()
        else:
            passes.append(workload.play(deployment, run, args.seed))
        problems = [p for result in passes for p in result.problems]
        for result in passes:
            gen = harness.generator_stats(result.queries)
            problem = harness.backlog_problem(gen, args.workload)
            if problem:
                problems.append(problem)
        problems += workload.verify(deployment, passes, args.seed)
        measured = passes[-1]
        if tracer is None:
            values = metrics.end_to_end(measured, statistics.median(setups))
        else:
            values = metrics.per_layer(
                measured, passes[0], tracer, deployment
            )
            tracer.write(work_root / f"trace-{args.workload}-{args.seed}.jsonl")
        attempted = sum(result.attempted for result in passes)
        failed = sum(result.failed for result in passes)
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics.report(values, measured, setups, attempted, failed, problems)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
