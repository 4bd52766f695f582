"""Shared machinery: the benchmark's models, set-up, open-loop generator,
statistics and the correctness reference.

Every model comes from :data:`repro.bench.CONFIGS` at one benchmark scale:
``SCALE`` shrinks the sample counts (``ExperimentConfig.scale``) and
``ITERATION_SHARE`` keeps that share of each configuration's SGD
iterations.  The second knob exists because a run must set up several
times within its time budget: at the configurations' full 300 iterations
the ``Cov (extended)`` store is ~330 MB and one ``save_checkpoint`` spends
~20 s in zlib.  At a tenth of the iterations the store is ~32 MB, a save
takes ~2 s and a cold load ~0.4 s, and the three models keep their store
sizes about 10x apart, as at full length.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import gc
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import AdmissionPolicy, FleetServer, IncrementalTrainer, ModelRegistry
from repro.bench import CONFIGS
from repro.eval.memory import rss_bytes

SCALE = 0.02
ITERATION_SHARE = 0.1
N_WORKERS = 2  # the stock FleetServer pool size
GENERATOR_THREADS = 1  # the main thread sends every request
N_SETUPS = 3  # setup_s is the median of this many complete set-ups
DELETION_RATE = 0.001  # 0.1% of the training set per query
TOLERANCE = 1e-10
#: Every CHECK_EVERY-th request keeps its answer's weights for the
#: correctness checks.  The rest drop them on arrival: tens of thousands
#: of retained answers would otherwise add tens of MB to the RSS the
#: benchmark reports, in proportion to how fast the run went.
CHECK_EVERY = 25

#: Benchmark model name -> (CONFIGS entry, serving method; None = the
#: trainer default, which is ``priu-opt`` for HIGGS (extended)).
MODELS = {
    "cov": ("Cov (extended)", "priu"),
    "higgs": ("HIGGS (extended)", None),
    "rcv1": ("RCV1", "priu"),
}


# ------------------------------------------------------------------ models
@dataclass
class Fitted:
    """One model's training data and its setup checkpoint directory."""

    kind: str
    features: object
    labels: np.ndarray
    checkpoint: Path

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def experiment(kind: str):
    base = CONFIGS[MODELS[kind][0]]
    return dataclasses.replace(
        base,
        scale=SCALE,
        n_iterations=max(1, round(base.n_iterations * ITERATION_SHARE)),
    )


def fit_and_save(kind: str, directory: Path) -> Fitted:
    """Generate the data, fit with capture, ``save_checkpoint``; drop the trainer."""
    config = experiment(kind)
    data = config.load()
    trainer = IncrementalTrainer(**config.trainer_kwargs())
    trainer.fit(data.features, data.labels)
    trainer.save_checkpoint(directory)
    del trainer
    return Fitted(kind, data.features, data.labels, directory)


def clone_checkpoint(source: Path, target: Path) -> Path:
    """A checkpoint directory of its own for another model id."""
    shutil.copytree(source, target)
    return target


def snapshot_checkpoint(source: Path, target: Path) -> Path:
    """Hard-link a checkpoint's files: later saves replace, never rewrite, them."""
    target.mkdir(parents=True)
    for member in source.iterdir():
        if member.is_file():
            os.link(member, target / member.name)
    return target


@dataclass
class Deployment:
    registry: ModelRegistry
    fleet: FleetServer
    fitted: dict[str, Fitted]  # model id -> data + checkpoint
    directory: Path  # this set-up's checkpoints
    extra: dict = field(default_factory=dict)

    def close(self) -> None:
        self.fleet.close()


def start_fleet(
    fitted: dict[str, Fitted],
    directory: Path,
    max_resident: int | None = None,
    commit: tuple[str, ...] = (),
    maintenance=None,
    method_overrides: dict[str, str] | None = None,
) -> Deployment:
    """Register every model by checkpoint path behind a stock FleetServer."""
    registry = ModelRegistry(max_resident=max_resident)
    methods = {}
    for model_id, entry in fitted.items():
        registry.register(
            model_id, entry.checkpoint, entry.features, entry.labels
        )
        methods[model_id] = MODELS[entry.kind][1]
    methods.update(method_overrides or {})
    fleet = FleetServer(
        registry,
        AdmissionPolicy(),
        n_workers=N_WORKERS,
        maintenance=maintenance,
    )
    for model_id, method in methods.items():
        fleet.configure_model(
            model_id,
            method=method,
            commit_mode=True if model_id in commit else None,
        )
    return Deployment(registry, fleet, fitted, directory)


def timed_setups(build, count: int = N_SETUPS):
    """Run ``build(i)`` ``count`` times; return (last deployment, durations).

    Every set-up is complete and independent; all but the last are torn
    down, untimed, before the next begins.
    """
    durations = []
    deployment = None
    for index in range(count):
        if deployment is not None:
            deployment.close()
            shutil.rmtree(deployment.directory, ignore_errors=True)
            deployment = None
            gc.collect()
        start = time.perf_counter()
        deployment = build(index)
        durations.append(time.perf_counter() - start)
    return deployment, durations


# --------------------------------------------------------------- requests
@dataclass
class Query:
    """One request: when it was due, sent and resolved, and its answer."""

    rid: int
    offset: float  # due time relative to the start of its open-loop window
    model: str
    ids: np.ndarray
    lane: str | None
    due: float = math.nan
    sent: float = math.nan
    resolved: float = math.nan
    window: int = 0  # open-loop window (warm-query alternates them with sweeps)
    cold: bool = False
    acked: bool = False  # commit-churn: contained in a saved checkpoint
    outcome: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        return self.resolved - self.due

    @property
    def checked(self) -> bool:
        """Whether this request's answer is kept for the correctness checks."""
        return self.rid % CHECK_EVERY == 0


def _on_done(query: Query, future) -> None:
    query.resolved = time.perf_counter()
    error = future.exception()
    if error is not None:
        query.error = error
    elif query.checked:
        query.outcome = future.result()
    else:
        query.outcome = dataclasses.replace(future.result(), weights=None)


def send(fleet: FleetServer, query: Query, tracer=None):
    """Submit one query and stamp it; returns its future, or None when the
    submit itself failed (the error lands on ``query.error``)."""
    if tracer is not None:
        tracer.set_request(query.rid)
    query.sent = time.perf_counter()
    try:
        future = fleet.submit(query.model, query.ids, lane=query.lane)
    except Exception as exc:  # typed refusals count as failed operations
        query.error = exc
        query.resolved = time.perf_counter()
        return None
    finally:
        if tracer is not None:
            tracer.set_request(None)
    future.add_done_callback(functools.partial(_on_done, query))
    return future


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float):
    """Arrival offsets of a Poisson process of ``rate``/s over ``duration`` s."""
    offsets = []
    t = rng.exponential(1.0 / rate)
    while t < duration:
        offsets.append(t)
        t += rng.exponential(1.0 / rate)
    return offsets


def removal_set(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    size = max(1, int(round(n_samples * DELETION_RATE)))
    return np.sort(rng.choice(n_samples, size=size, replace=False))


def open_loop(fleet, queries, tracer=None, before_send=None) -> None:
    """Send each query at its due time from this thread.

    Latency is measured from the due time, so a generator running late
    charges the wait to the request rather than hiding it.
    """
    start = time.perf_counter() + 0.01
    for query in queries:
        query.due = start + query.offset
        delay = query.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if before_send is not None:
            before_send(query)
        send(fleet, query, tracer)


def drain(fleet: FleetServer, timeout: float = 120.0) -> None:
    if not fleet.flush(timeout=timeout):
        raise RuntimeError(f"fleet did not drain within {timeout} s")


# -------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return math.nan
    return float(np.percentile(values, q))


def ms(seconds: float) -> float:
    return seconds * 1e3


def generator_stats(queries) -> dict:
    """Send lateness and offered vs answered rate of the open-loop windows.

    Rates are counts over the summed span of every window, so the gaps
    between windows count as neither offered nor answering time.
    """
    sent = [q for q in queries if not math.isnan(q.sent)]
    windows: dict[int, list] = {}
    for query in sent:
        windows.setdefault(query.window, []).append(query)
    offered_span = answered_span = 0.0
    for window in windows.values():
        first = min(q.due for q in window)
        offered_span += max(q.due for q in window) - first
        answered_span += max(
            (q.resolved for q in window if q.outcome is not None),
            default=first,
        ) - first
    answered = sum(q.outcome is not None for q in sent)
    return {
        "late_p90_ms": ms(percentile([q.sent - q.due for q in sent], 90)),
        "offered_rps": len(sent) / offered_span,
        "answered_rps": answered / answered_span,
    }


def backlog_problem(stats: dict, what: str) -> str | None:
    """A growing backlog answers slower than the load is offered."""
    if stats["answered_rps"] < 0.9 * stats["offered_rps"]:
        return (
            f"{what}: answered {stats['answered_rps']:.1f}/s < 0.9 x offered "
            f"{stats['offered_rps']:.1f}/s -- backlog growing, run invalid"
        )
    return None


# ------------------------------------------------------------- correctness
def reference_method(outcome) -> str:
    """The reference path a served answer must match at ``TOLERANCE``."""
    return "priu-opt" if outcome.method == "priu-opt" else "priu-seq"


def deviation(trainer: IncrementalTrainer, outcome) -> float:
    expected = trainer.remove(
        outcome.removed, method=reference_method(outcome)
    ).weights
    return float(np.max(np.abs(expected - outcome.weights)))


def resident_megabytes() -> float:
    """Serving-process RSS of live state.

    Unreachable objects are collected first, and free heap pages are
    returned to the system (glibc ``malloc_trim``): without the trim, RSS
    carried a freed ~36 MB ``Cov (extended)`` store in some runs and not in
    others, depending on where the allocator had placed it.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: report RSS as it stands
    return (rss_bytes() or 0) / 1e6


def checkpoint_megabytes(directories) -> float:
    total = 0
    for directory in directories:
        for member in Path(directory).iterdir():
            if member.is_file():
                total += member.stat().st_size
    return total / 1e6
