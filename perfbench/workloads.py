"""The three workloads.  ``perfbench/README.md`` says why each exists, which
layers it loads and which it bypasses, and which end-to-end metric each
per-layer metric should move.

Each workload class has ``setup(run, index)``, which builds one complete
deployment (timed, repeated ``N_SETUPS`` times for ``setup_s``), ``play``,
which runs one timed pass against it, and ``verify``, which checks the
answers after the timed region.  ``cold-rotation`` also has ``reset``,
which restores its resident set between the passes of a traced run.
Inputs come only from the seed handed to ``play``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import IncrementalTrainer
from repro.core.maintenance import MaintenancePolicy

from harness import (
    TOLERANCE,
    Fitted,
    Query,
    clone_checkpoint,
    deviation,
    drain,
    fit_and_save,
    ms,
    open_loop,
    percentile,
    poisson_offsets,
    removal_set,
    resident_megabytes,
    send,
    snapshot_checkpoint,
    start_fleet,
)

DEADLINE_EVERY = 5  # every 5th open-loop query rides the zero-delay lane


@dataclass
class PassResult:
    """What one timed pass measured."""

    queries: list  # open-loop counterfactual queries (Query)
    bulk: list  # bulk-phase requests: sweep Query objects or erasure tickets
    bulk_rps: float
    rss_mb: float
    registry_delta: dict
    maintenance_runs: int = 0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.queries) + len(self.bulk) + self.extra.get("saves", 0)

    @property
    def failed(self) -> int:
        errors = sum(q.error is not None for q in self.queries + self.bulk)
        return errors + self.extra.get("failed_saves", 0)


def _lane(index: int) -> str:
    """Lane by position, so every run has the same lane mix (20% deadline)."""
    return "deadline" if index % DEADLINE_EVERY == DEADLINE_EVERY - 1 else "bulk"


def _registry_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in ("loads", "hits", "evictions")}


def _maintenance_runs(fleet) -> int:
    return sum(s["runs"] for s in fleet.maintenance_stats().values())


def _sweep_round(fleet, burst) -> float:
    """Submit a burst of bulk-lane requests at once and wait for the fleet
    to drain; returns requests per second from the first submit to the
    last answer."""
    start = time.perf_counter()
    for query in burst:
        query.due = start
        send(fleet, query)
    drain(fleet)
    return len(burst) / (max(q.resolved for q in burst) - start)


def _sample_checks(queries, per_group: int, rng, group=lambda q: q.model):
    """A seeded sample of the answered queries that kept their weights
    (``Query.checked``), ``per_group`` per group (default: per model id)."""
    groups: dict[str, list] = {}
    for query in queries:
        if query.outcome is not None and query.checked:
            groups.setdefault(group(query), []).append(query)
    picked = []
    for key in sorted(groups):
        pool = groups[key]
        for i in rng.choice(len(pool), min(per_group, len(pool)), replace=False):
            picked.append(pool[i])
    return picked


# ------------------------------------------------------------- warm-query
class WarmQuery:
    """Replay-bound serving with every model resident."""

    name = "warm-query"
    RATE = 40.0  # open-loop arrivals per second, well below the knee
    #: The timed region is one cycle per CYCLE_SECONDS of --seconds: an
    #: open-loop window of WINDOW_SECONDS, a drain, then one cleanup sweep.
    #: Alternating the two phases spreads each metric's samples over the
    #: whole run, so a passing slowdown of the host moves a few sweeps and
    #: a few queries, not all of one metric's samples.
    CYCLE_SECONDS = 2.5
    WINDOW_SECONDS = 1.8
    SWEEP_SETS = 256  # removal sets per model in one cleanup sweep

    def setup(self, run, index):
        directory = run.work / f"setup{index}"
        fitted = {
            kind: fit_and_save(kind, directory / kind)
            for kind in ("cov", "higgs", "rcv1")
        }
        deployment = start_fleet(fitted, directory)
        for model_id in fitted:
            deployment.registry.get(model_id)
        return deployment

    def play(self, deployment, run, seed: int) -> PassResult:
        rng = np.random.default_rng(seed)
        fleet, registry = deployment.fleet, deployment.registry
        models = sorted(deployment.fitted)
        sizes = {m: deployment.fitted[m].n_samples for m in models}
        cycles = max(1, round(run.seconds / self.CYCLE_SECONDS))
        rid = iter(range(10**9))
        plan = []  # per cycle: (open-loop queries, sweep burst)
        for cycle in range(cycles):
            window = []
            for offset in poisson_offsets(rng, self.RATE,
                                          self.WINDOW_SECONDS):
                model = models[rng.integers(len(models))]
                window.append(Query(next(rid), offset, model,
                                    removal_set(rng, sizes[model]), None,
                                    window=cycle))
            burst = [
                Query(next(rid), 0.0, model, removal_set(rng, sizes[model]),
                      "bulk")
                for _ in range(self.SWEEP_SETS)
                for model in models
            ]
            plan.append((window, burst))
        queries = [q for window, _ in plan for q in window]
        for i, query in enumerate(queries):
            query.lane = _lane(i)
        bulk, rates = [], []
        stats_before = registry.stats()
        for window, burst in plan:
            open_loop(fleet, window, run.tracer)
            drain(fleet)
            rates.append(_sweep_round(fleet, burst))
            bulk.extend(burst)
        rate = float(np.median(rates))
        rss = resident_megabytes()
        stats_after = registry.stats()
        result = PassResult(
            queries, bulk, rate, rss,
            _registry_delta(stats_before, stats_after),
        )
        # Premise: the timed region made no loads and every model stayed
        # resident, so this workload measures replay, not checkpoint I/O.
        if result.registry_delta["loads"]:
            result.problems.append(
                f"warm-query premise: {result.registry_delta['loads']} "
                "registry loads in the timed region"
            )
        if set(registry.resident_ids) != set(models):
            result.problems.append(
                "warm-query premise: not every model resident "
                f"({registry.resident_ids})"
            )
        return result

    def verify(self, deployment, passes, seed: int) -> list:
        rng = np.random.default_rng(seed + 1)
        problems = []
        for result in passes:
            sample = _sample_checks(result.queries, 3, rng)
            sample += _sample_checks(result.bulk, 1, rng)
            for query in sample:
                trainer = deployment.registry.resident_trainer(query.model)
                error = deviation(trainer, query.outcome)
                if not error <= TOLERANCE:
                    problems.append(
                        f"warm-query: {query.model} answer off by {error:.3g}"
                    )
        return problems


# ---------------------------------------------------------- cold-rotation
class ColdRotation:
    """Checkpoint-load-bound serving: more models than the registry holds."""

    name = "cold-rotation"
    #: Open-loop arrivals per second.  Every cold query holds a worker for
    #: a load, and hot queries queue behind loads.  A memory-bandwidth load
    #: run beside the benchmark left set-up time unchanged but raised
    #: query_p90_ms by ~26% at 40/s, and by ~8% at 25/s.
    RATE = 25.0
    #: The hot set (large and small stores) takes all but every
    #: TAIL_EVERY-th query, with skewed popularity HOT_WEIGHTS.
    HOT = ("cov-0", "rcv1-0", "rcv1-1")
    HOT_WEIGHTS = (0.5, 0.3, 0.2)
    #: Every TAIL_EVERY-th query goes to the next tail id in rotation.  The
    #: tail is longer than the room the cache leaves it, so each of those
    #: queries finds its model non-resident: the cold share is
    #: 1/TAIL_EVERY by construction, and the premise check confirms it.
    TAIL = tuple(f"higgs-{i}" for i in range(6))
    TAIL_EVERY = 6
    MAX_RESIDENT = 6
    COLD_BAND = (0.10, 0.20)  # stated share of queries arriving cold
    OPEN_LOOP_SHARE = 0.7  # of --seconds; the rest repeats the sweep
    SWEEP_SETS = 4  # removal sets per model id in one rotation sweep

    @classmethod
    def ids(cls) -> list[str]:
        """Model ids, most popular first; each has its own checkpoint."""
        return list(cls.HOT + cls.TAIL)

    def setup(self, run, index):
        directory = run.work / f"setup{index}"
        originals = {
            kind: fit_and_save(kind, directory / "fit" / kind)
            for kind in ("cov", "higgs", "rcv1")
        }
        fitted = {}
        for model_id in self.ids():
            source = originals[model_id.split("-")[0]]
            fitted[model_id] = Fitted(
                source.kind,
                source.features,
                source.labels,
                clone_checkpoint(source.checkpoint, directory / model_id),
            )
        deployment = start_fleet(
            fitted, directory, max_resident=self.MAX_RESIDENT
        )
        self.reset(deployment)
        return deployment

    def reset(self, deployment) -> None:
        """Make the hot set, and only it, resident.

        Warmed with an explicit ``hotness=``: a fresh registry has no
        admission history, so a bare ``warm_start`` would load nothing.
        """
        registry = deployment.registry
        for model_id in registry.resident_ids:
            registry.evict(model_id)
        hotness = {m: len(self.HOT) - i for i, m in enumerate(self.HOT)}
        registry.warm_start(len(self.HOT), hotness=hotness)

    def play(self, deployment, run, seed: int) -> PassResult:
        rng = np.random.default_rng(seed)
        fleet, registry = deployment.fleet, deployment.registry
        ids = self.ids()
        sizes = {m: deployment.fitted[m].n_samples for m in ids}
        phase1 = run.seconds * self.OPEN_LOOP_SHARE
        queries = []
        for i, offset in enumerate(poisson_offsets(rng, self.RATE, phase1)):
            turn, slot = divmod(i, self.TAIL_EVERY)
            if slot == self.TAIL_EVERY - 1:
                model = self.TAIL[turn % len(self.TAIL)]
            else:
                model = self.HOT[rng.choice(len(self.HOT),
                                            p=self.HOT_WEIGHTS)]
            queries.append(
                Query(i, offset, model, removal_set(rng, sizes[model]),
                      _lane(i))
            )

        def mark_cold(query):
            query.cold = registry.resident_trainer(query.model) is None

        stats_before = registry.stats()
        open_loop(fleet, queries, run.tracer, before_send=mark_cold)
        drain(fleet)
        rid = iter(range(len(queries), 10**9))
        bulk, rates = [], []
        deadline = time.perf_counter() + run.seconds - phase1
        while not rates or time.perf_counter() < deadline:
            # One cleanup job walks every id, least popular first, and
            # waits for each model's answers before the next: a scan
            # longer than the cache, so every id misses, every round.
            start = time.perf_counter()
            for model in reversed(ids):
                burst = [
                    Query(next(rid), 0.0, model,
                          removal_set(rng, sizes[model]), "bulk")
                    for _ in range(self.SWEEP_SETS)
                ]
                for query in burst:
                    query.due = time.perf_counter()
                    send(fleet, query)
                drain(fleet)
                bulk.extend(burst)
            rates.append(
                len(ids) * self.SWEEP_SETS / (time.perf_counter() - start)
            )
        rate = float(np.median(rates))
        rss = resident_megabytes()
        stats_after = registry.stats()
        result = PassResult(
            queries, bulk, rate, rss,
            _registry_delta(stats_before, stats_after),
        )
        cold = [q for q in queries if q.cold]
        share = len(cold) / len(queries)
        result.extra["cold_share"] = share
        result.extra["cold_query_p50_ms"] = ms(
            percentile([q.latency for q in cold], 50)
        )
        result.extra["cold_queries"] = len(cold)
        low, high = self.COLD_BAND
        if not low <= share <= high:
            result.problems.append(
                f"cold-rotation premise: cold share {share:.3f} outside "
                f"[{low}, {high}]"
            )
        return result

    def verify(self, deployment, passes, seed: int) -> list:
        rng = np.random.default_rng(seed + 1)
        problems = []
        for result in passes:
            sample = _sample_checks(
                result.queries + result.bulk, 2, rng,
                group=lambda q: q.model.split("-")[0],
            )
            for query in sample:
                entry = deployment.fitted[query.model]
                trainer = IncrementalTrainer.from_checkpoint(
                    entry.checkpoint, entry.features, entry.labels
                )
                error = deviation(trainer, query.outcome)
                if not error <= TOLERANCE:
                    problems.append(
                        f"cold-rotation: {query.model} answer off by "
                        f"{error:.3g}"
                    )
        return problems


# ------------------------------------------------------------ commit-churn
@dataclass
class Checkpoint:
    """One durable checkpoint of one commit-mode model, kept for checking."""

    model: str
    snapshot: Path  # hard-linked copy of the checkpoint directory
    weights: np.ndarray  # in-memory weights_ when it was saved
    log: np.ndarray  # in-memory deletion_log when it was saved
    acknowledged: np.ndarray  # original ids of every acknowledged erasure


class CommitChurn:
    """Committed erasures and durable checkpoints beside a read stream."""

    name = "commit-churn"
    COMMIT_MODELS = ("cov", "higgs")
    READ_MODEL = "rcv1"
    READ_RATE = 40.0  # open-loop reads per second
    WINDOW = 4  # erasure tickets per round
    TICKET_SIZE = 2  # sample ids per erasure ticket
    EPOCH = 200  # erasures between two save_dirty() calls
    #: The timed region is a whole number of epochs, one per EPOCH_SECONDS
    #: of --seconds: a count fixed by the argument, never by how fast the
    #: epochs ran, so every run of one benchmark does the same work.
    EPOCH_SECONDS = 5.0

    def setup(self, run, index):
        directory = run.work / f"setup{index}"
        fitted = {
            kind: fit_and_save(kind, directory / kind)
            for kind in self.COMMIT_MODELS + (self.READ_MODEL,)
        }
        deployment = start_fleet(
            fitted,
            directory,
            commit=self.COMMIT_MODELS,
            maintenance=MaintenancePolicy(),
            # Commits must match the pre-commit replay at 1e-10; the
            # PrIU-opt tail is an approximation that drifts across commits.
            method_overrides={"higgs": "priu"},
        )
        # The pre-commit state, for the committed-weights reference.
        deployment.extra["originals"] = {
            m: snapshot_checkpoint(fitted[m].checkpoint,
                                   directory / "original" / m)
            for m in self.COMMIT_MODELS
        }
        deployment.extra["alive"] = {
            m: np.arange(fitted[m].n_samples) for m in self.COMMIT_MODELS
        }
        deployment.extra["acknowledged"] = {
            m: np.empty(0, dtype=np.int64) for m in self.COMMIT_MODELS
        }
        deployment.extra["checkpoints"] = []
        for model_id in fitted:
            deployment.registry.get(model_id)
        return deployment

    # The generator is one thread: it sends reads on their schedule, sends
    # erasures in rounds of WINDOW tickets (the next round once the last is
    # answered), and every EPOCH erasures waits for maintenance to go idle
    # and calls save_dirty().  Rounds, not a sliding window: FleetServer.
    # submit busy-waits on the store seqlock while that model's commit
    # compacts, and a sliding window spent ~60% of this one thread's time
    # spinning there, which made every read late by a random amount.
    def play(self, deployment, run, seed: int) -> PassResult:
        rng = np.random.default_rng(seed)
        fleet, registry = deployment.fleet, deployment.registry
        tracer = run.tracer
        read_n = deployment.fitted[self.READ_MODEL].n_samples
        wake = threading.Condition()
        outstanding = [0]

        def ticket_done(future):
            with wake:
                outstanding[0] -= 1
                wake.notify()

        reads, tickets, save_seconds = [], [], []
        failed_saves = 0
        stats_before = registry.stats()
        runs_before = _maintenance_runs(fleet)
        start = time.perf_counter()
        next_read = start + rng.exponential(1.0 / self.READ_RATE)
        rid = iter(range(10**9))
        epoch_sent = 0
        epochs = max(1, round(run.seconds / self.EPOCH_SECONDS))
        state = "erasing"
        while True:
            now = time.perf_counter()
            while next_read <= now:
                query = Query(next(rid), next_read - start, self.READ_MODEL,
                              removal_set(rng, read_n), _lane(len(reads)))
                query.due = next_read
                send(fleet, query, tracer)
                reads.append(query)
                next_read += rng.exponential(1.0 / self.READ_RATE)
            if len(save_seconds) == epochs:
                break  # after sending the reads that fell due during it
            if state == "erasing" and outstanding[0] == 0:
                if epoch_sent == self.EPOCH:
                    state = "quiesce"
                for _ in range(min(self.WINDOW, self.EPOCH - epoch_sent)):
                    model = self.COMMIT_MODELS[rng.integers(2)]
                    n = registry.n_samples(model)
                    ids = np.unique(
                        (rng.random(self.TICKET_SIZE) * n).astype(np.int64)
                    )
                    ticket = Query(next(rid), 0.0, model, ids, "bulk")
                    ticket.due = time.perf_counter()
                    future = send(fleet, ticket, tracer)
                    if future is not None:
                        with wake:
                            outstanding[0] += 1
                        future.add_done_callback(ticket_done)
                    tickets.append(ticket)
                    epoch_sent += 1
            if state == "quiesce" and self._idle(fleet, registry):
                seconds, failures = self._checkpoint(deployment, tickets)
                save_seconds.append(seconds)
                failed_saves += failures
                epoch_sent = 0
                state = "erasing"
                continue
            with wake:
                timeout = next_read - time.perf_counter()
                if state == "quiesce":
                    timeout = min(timeout, 0.002)
                elif outstanding[0] == 0:
                    timeout = 0.0  # the round is answered: send the next
                if timeout > 0:
                    wake.wait(timeout)
        end = time.perf_counter()
        drain(fleet)
        rss = resident_megabytes()
        stats_after = registry.stats()
        acknowledged = sum(t.outcome is not None for t in tickets)
        result = PassResult(
            reads, tickets, acknowledged / (end - start), rss,
            _registry_delta(stats_before, stats_after),
            _maintenance_runs(fleet) - runs_before,
        )
        latencies = [t.resolved - t.sent for t in tickets if t.outcome]
        result.extra.update(
            saves=len(save_seconds),
            failed_saves=failed_saves,
            checkpoint_s=float(np.median(save_seconds)),
            commit_p50_ms=ms(percentile(latencies, 50)),
            commit_p90_ms=ms(percentile(latencies, 90)),
        )
        dirty = registry.dirty_ids()
        if dirty:
            result.problems.append(
                f"commit-churn premise: still dirty after the final "
                f"checkpoint: {dirty}"
            )
        return result

    @staticmethod
    def _idle(fleet, registry) -> bool:
        """No request or maintenance run queued or in flight on any model
        with commits to save (``pending`` counts the maintenance lane)."""
        return all(
            fleet.stats(model_id).pending == 0
            for model_id in registry.dirty_ids()
        )

    def _checkpoint(self, deployment, tickets) -> tuple[float, int]:
        """save_dirty() until every commit model is clean; acknowledge."""
        registry = deployment.registry
        seconds, failures = 0.0, 0
        while True:
            start = time.perf_counter()
            outcomes = registry.save_dirty()
            seconds += time.perf_counter() - start
            failures += sum(not o.ok for o in outcomes.values())
            if not registry.dirty_ids() or failures:
                break
            time.sleep(0.001)  # a pinned model was skipped: retry
        self._acknowledge(deployment, tickets)
        return seconds, failures

    def _acknowledge(self, deployment, tickets) -> None:
        """Map this epoch's erasures to original ids and keep the checkpoint."""
        extra = deployment.extra
        epoch = [t for t in tickets if t.outcome is not None and not t.acked]
        for model in self.COMMIT_MODELS:
            mine = sorted(
                (t for t in epoch if t.model == model),
                key=lambda t: (t.outcome.batch_seq, t.outcome.batch_rank),
            )
            alive = extra["alive"][model]
            batches: dict[int, list] = {}
            for ticket in mine:
                batches.setdefault(ticket.outcome.batch_seq, []).append(ticket)
            for seq in sorted(batches):
                union = np.unique(
                    np.concatenate([t.outcome.removed for t in batches[seq]])
                )
                extra["acknowledged"][model] = np.concatenate(
                    [extra["acknowledged"][model], alive[union]]
                )
                alive = np.delete(alive, union)
            extra["alive"][model] = alive
            trainer = deployment.registry.resident_trainer(model)
            target = deployment.fitted[model].checkpoint
            index = len(extra["checkpoints"])
            extra["checkpoints"].append(
                Checkpoint(
                    model,
                    snapshot_checkpoint(
                        target, target.parent / "epochs" / f"{model}-{index}"
                    ),
                    trainer.weights_.copy(),
                    trainer.deletion_log,
                    extra["acknowledged"][model].copy(),
                )
            )
        for ticket in epoch:
            ticket.acked = True

    def verify(self, deployment, passes, seed: int) -> list:
        problems = []
        extra = deployment.extra
        originals = {
            m: IncrementalTrainer.from_checkpoint(
                extra["originals"][m],
                deployment.fitted[m].features,
                deployment.fitted[m].labels,
            )
            for m in self.COMMIT_MODELS
        }
        for point in extra["checkpoints"]:
            entry = deployment.fitted[point.model]
            reloaded = IncrementalTrainer.from_checkpoint(
                point.snapshot, entry.features, entry.labels
            )
            log = reloaded.deletion_log
            checks = {
                "reloaded weights vs in-memory": float(
                    np.max(np.abs(reloaded.weights_ - point.weights))
                ),
                "pre-commit remove(deletion_log) vs committed": float(
                    np.max(np.abs(
                        originals[point.model].remove(log, method="priu")
                        .weights - point.weights
                    ))
                ),
            }
            for what, error in checks.items():
                if not error <= TOLERANCE:
                    problems.append(
                        f"commit-churn: {point.model} {what} off by "
                        f"{error:.3g}"
                    )
            if not (
                np.array_equal(np.sort(log), np.sort(point.acknowledged))
                and np.array_equal(log, point.log)
            ):
                problems.append(
                    f"commit-churn: {point.model} deletion_log "
                    f"({log.size} ids) != acknowledged erasures "
                    f"({point.acknowledged.size} ids)"
                )
        for result in passes:
            for query in _sample_checks(result.queries, 5,
                                        np.random.default_rng(seed + 1)):
                trainer = deployment.registry.resident_trainer(query.model)
                error = deviation(trainer, query.outcome)
                if not error <= TOLERANCE:
                    problems.append(
                        f"commit-churn: read answer off by {error:.3g}"
                    )
        return problems


WORKLOADS = {w.name: w for w in (WarmQuery(), ColdRotation(), CommitChurn())}
