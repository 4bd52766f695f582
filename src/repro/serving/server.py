"""The deletion server: a request queue over the batched update engine.

:class:`DeletionServer` turns :meth:`repro.IncrementalTrainer.remove_many`
— a K-requests-in-hand batch API — into something deletion traffic can
actually hit: callers :meth:`~DeletionServer.submit` one removal set at a
time and get a :class:`concurrent.futures.Future` back immediately.  A
single worker thread coalesces queued requests under the
:class:`~repro.serving.policy.AdmissionPolicy` (latency budget ×
max-batch-size), dispatches each batch through one ``remove_many`` call,
and resolves every future with a :class:`ServedOutcome` carrying the
updated weights plus that request's queueing/service timings.

Requests carry an SLA *lane* (:class:`~repro.serving.policy.Lane`):
queued requests dispatch in ``(lane priority, submission order)`` order
and a batch's coalescing budget is the minimum of its members' lane
delays, so a zero-delay ``deadline`` request is always in the next batch
out the door and never waits on another lane's coalescing delay.

Backpressure is a bounded queue: once ``max_pending`` requests wait,
further submissions raise :class:`BackpressureError` (or block, caller's
choice) instead of growing memory without bound.  Request validation
happens at submit time, so a malformed removal set fails its own caller
and never poisons a batch; empty sets resolve inline as no-ops (or are
rejected, per :class:`~repro.serving.policy.AdmissionPolicy.on_empty`).

By default every answer is a stateless counterfactual against the
original training set.  ``commit_mode=True`` turns the server into a
deletion *pipeline*: each batch runs ``remove_many(..., commit=True)``,
so admitted requests are applied cumulatively in admission order and
the trainer's store, compiled plan and baseline weights adopt the
post-batch state (see ``docs/architecture.md``, "The commit path").

All deadline math runs on an injectable monotonic
:class:`~repro.serving.clock.Clock`; tests drive the server with a fake
clock (``tests/serving/harness.py``) so timing assertions are exact and
nothing sleeps.  Several servers can share one clock.

Typical use::

    with DeletionServer(trainer, AdmissionPolicy(max_batch=32)) as server:
        futures = [server.submit(ids) for ids in request_stream]
        outcomes = [f.result() for f in futures]

The server is deliberately single-worker: one batched replay already
saturates the BLAS threads, so a second concurrent ``remove_many`` would
fight it for cores rather than add throughput.  To front *several*
models with a shared (bounded) pool, see
:class:`~repro.serving.fleet.FleetServer`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..core.provenance_store import (
    normalize_removed_indices,
    remap_surviving_ids,
)
from ..testing.races import GuardedBy
from .clock import MONOTONIC_CLOCK, Clock
from .errors import (
    BackpressureError,
    ServerClosedError,
    ServerStateError,
    WorkerCrashedError,
)
from .policy import AdmissionPolicy, _PreemptionGuard
from .stats import ServingStats, StatsRecorder

_SHUTDOWN = object()


@dataclass
class ServedOutcome:
    """One answered deletion request, with its queueing economics.

    ``seconds`` is the request's amortized share of its batch's
    ``remove_many`` wall-clock (matching
    :class:`~repro.core.api.UpdateOutcome`); ``latency_seconds`` is what
    the caller actually experienced, enqueue to answer.  ``batch_seq`` /
    ``batch_rank`` locate the request in its server's dispatch history
    (batch number, position within the batch, both 0-based in admission
    order) — the stress harness uses them to prove ordering invariants.
    """

    weights: np.ndarray
    method: str
    removed: np.ndarray
    seconds: float
    wait_seconds: float
    latency_seconds: float
    batch_size: int
    # True when the server runs in commit mode and this answer's removals
    # (plus everything admitted before it) are now folded into the model.
    committed: bool = False
    lane: str | None = None
    model_id: str | None = None
    batch_seq: int = -1
    batch_rank: int = -1
    # The pre-dispatch CostEstimate of the whole batch's removal union
    # (``CostEstimate.as_dict()``), when the serving trainer carries a
    # cost model; every member of a batch shares one estimate.  None on
    # servers without a cost model.
    predicted: dict | None = None


@dataclass
class _Request:
    indices: np.ndarray
    future: Future
    enqueued_at: float
    lane: str
    lane_delay: float
    lane_priority: int
    seq: int = -1
    # Commit mode: the id space the submitted ids are expressed in, as a
    # ``(checkpoint epoch, store version)`` pair ordered lexicographically
    # — requests are translated forward through every commit recorded at a
    # key >= this one at dispatch time.  The epoch counts checkpoint
    # rewrites (``ModelRegistry.save_dirty``): a request validated against
    # a freshly written checkpoint must *not* be replayed through commits
    # that checkpoint already contains, even though store version numbers
    # restart when the model reloads.  Single-model servers never rewrite
    # a checkpoint mid-flight, so their epoch is always 0 and the pair
    # degenerates to the plain version comparison.  ``store_key`` advances
    # as the request is remapped; ``admitted_key`` stays fixed for
    # in-flight accounting (commit-history pruning).
    store_key: tuple = (0, -1)
    admitted_key: tuple = (0, -1)

    def entry(self) -> tuple:
        """Priority-queue entry: lanes first, submission order within."""
        return (self.lane_priority, self.seq, self)


def _consistent_store_snapshot(store) -> tuple[int, int]:
    """A consistent ``(version, n_samples)`` pair via the commit seqlock.

    Odd means the store is installing a new pair mid-read, and a seq
    change across the reads means it installed one — retry either way.
    The odd window spans only the two assignments (see
    ``ProvenanceStore._publish``), so a read that lands during a long
    ``compact()`` returns the pre-commit pair without spinning.
    """
    while True:
        seq = store._commit_seq
        if seq % 2 == 0:
            version = store._version
            n_samples = store.n_samples
            if store._commit_seq == seq:
                return version, n_samples


def _validate_removed(removed: np.ndarray, n_samples: int) -> None:
    """Submit-time bounds checks (``removed`` is normalized, sorted)."""
    if removed[0] < 0 or removed[-1] >= n_samples:
        raise ValueError(
            f"removal ids must lie in [0, {n_samples}); "
            f"got range [{removed[0]}, {removed[-1]}]"
        )
    if removed.size >= n_samples:
        raise ValueError("cannot delete every training sample")


class _CommitTracker:
    """Commit-mode id-space bookkeeping for one trainer.

    Keeps one ``(key_before, removed union)`` entry per committed batch —
    the key a ``(checkpoint epoch, store version)`` pair, the union in
    the id space the batch executed in.  A queued request tagged with
    store key k is remapped through every entry with key_before >= k
    before dispatch, so an id always denotes the sample the submitter
    saw, not whatever later shifted into that slot.  A request tagged
    ``(epoch, -inf)`` was validated against the archive that opened that
    epoch — or against a clean resident model, whose id space equals that
    archive's.  Every same-epoch commit necessarily postdates the
    archive (commits require residency, and the archive was written by
    the load or save that opened the epoch), so the tag sorts below them
    all and they all apply; commits already folded into an earlier
    epoch's archive never do.  Only a *dirty* resident model may tag
    with its in-memory store version: dirty models are unevictable, so
    that version cannot be reset by a reload while the request waits.
    Entries older than every in-flight request's admitted key are pruned
    at dispatch — in-flight, not just this batch, because a submitter
    can block on backpressure and enqueue late.

    Shared by :class:`DeletionServer` (one instance) and
    :class:`~repro.serving.fleet.FleetServer` (one per model).
    """

    # Declared via the descriptor (rather than `# guarded-by:` comments)
    # so debug mode (REPRO_DEBUG_GUARDS=1) also asserts the lock is held
    # on every access at runtime.
    _history = GuardedBy("_lock")
    _inflight_keys = GuardedBy("_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._history: list[tuple[tuple, np.ndarray]] = []
        self._inflight_keys: dict[tuple, int] = {}

    def note_submitted(self, key: tuple) -> None:
        with self._lock:
            self._inflight_keys[key] = self._inflight_keys.get(key, 0) + 1

    def forget(self, key: tuple) -> None:
        """Drop one in-flight registration (a submit that never enqueued)."""
        with self._lock:
            remaining = self._inflight_keys.get(key, 0) - 1
            if remaining > 0:
                self._inflight_keys[key] = remaining
            else:
                self._inflight_keys.pop(key, None)

    def note_finished(self, requests: list[_Request]) -> None:
        for request in requests:
            self.forget(request.admitted_key)

    def note_committed(self, key_before: tuple, union: np.ndarray) -> None:
        with self._lock:
            self._history.append((key_before, union))

    def remap(self, live: list[_Request], current_key: tuple) -> None:
        """Translate queued requests into the current (post-commit) id space."""
        with self._lock:
            oldest = min(self._inflight_keys, default=None)
            if oldest is not None:
                self._history = [
                    entry for entry in self._history if entry[0] >= oldest
                ]
            history = list(self._history)
        for request in live:
            ids = request.indices
            for key_before, committed in history:
                if key_before < request.store_key:
                    continue
                if committed.size == 0 or ids.size == 0:
                    continue
                position = np.searchsorted(committed, ids)
                position = np.minimum(position, committed.size - 1)
                already_removed = committed[position] == ids
                ids = remap_surviving_ids(ids[~already_removed], committed)
            request.indices = ids
            request.store_key = current_key


def _serve_batch(
    trainer,
    live: list[_Request],
    *,
    method: str | None,
    commit_mode: bool,
    tracker: _CommitTracker,
    clock: Clock,
    stats: StatsRecorder,
    batch_seq: int,
    model_id: str | None = None,
    epoch: int = 0,
) -> None:
    """Run one admitted batch through ``remove_many`` and resolve its futures.

    ``live`` holds only requests whose futures are already in the running
    state (cancellation handled by the caller); every future is resolved
    exactly once — with a :class:`ServedOutcome` on success, with the
    dispatch exception on failure.  The caller performs its own in-flight
    accounting after this returns.  ``epoch`` is the trainer's checkpoint
    epoch (see :class:`_Request`); single-model servers pass 0.
    """
    if commit_mode:
        # Earlier batches may have committed (and re-packed the id space)
        # while these requests sat in the queue.  Translate each request
        # forward through the commits it missed: ids already committed
        # drop out (those samples are gone — which is what the caller
        # asked for), survivors shift down.  Without this, a queued id
        # would silently denote whatever sample later moved into its slot.
        tracker.remap(live, (epoch, trainer.store._version))
    key_before = (epoch, trainer.store._version)
    lanes = [request.lane for request in live]
    # Cost-model hook: estimate the batch union's footprint before the
    # replay runs (searchsorted counts — no extra replay), attach it to
    # every member's outcome, and feed the measured service time back
    # into the online calibration afterwards.
    cost_model = getattr(trainer, "cost_model", None)
    union = None
    if commit_mode or cost_model is not None:
        union = live[0].indices
        for request in live[1:]:
            union = np.union1d(union, request.indices)
    predicted = (
        cost_model.estimate(trainer, union).as_dict()
        if cost_model is not None
        else None
    )
    dispatched_at = clock.now()
    try:
        outcomes = trainer.remove_many(
            [r.indices for r in live],
            method=method,
            commit=commit_mode,
        )
    except Exception as exc:  # systemic: fail every request in the batch
        for request in live:
            request.future.set_exception(exc)
        stats.record_failed(len(live), lanes)
        return
    if commit_mode:
        tracker.note_committed(key_before, union)
    answered_at = clock.now()
    service = answered_at - dispatched_at
    if cost_model is not None:
        cost_model.observe_batch(len(live), service)
    waits, services, latencies = [], [], []
    for rank, (request, outcome) in enumerate(zip(live, outcomes)):
        wait = dispatched_at - request.enqueued_at
        latency = answered_at - request.enqueued_at
        request.future.set_result(
            ServedOutcome(
                weights=outcome.weights,
                method=outcome.method,
                removed=outcome.removed,
                seconds=outcome.seconds,
                wait_seconds=wait,
                latency_seconds=latency,
                batch_size=len(live),
                committed=commit_mode,
                lane=request.lane,
                model_id=model_id,
                batch_seq=batch_seq,
                batch_rank=rank,
                predicted=predicted,
            )
        )
        waits.append(wait)
        # Stats record the batch's actual dispatch->answer wall-clock
        # (the same for every member); the per-request *amortized*
        # share lives on ServedOutcome.seconds.
        services.append(service)
        latencies.append(latency)
    stats.record_batch(waits, services, latencies, lanes)


class DeletionServer:
    """Admission-batched facade serving deletion requests from a queue.

    Parameters
    ----------
    trainer:
        A fitted :class:`~repro.core.api.IncrementalTrainer` (via
        :meth:`~repro.core.api.IncrementalTrainer.fit` or
        :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint`).
    policy:
        Coalescing/backpressure/lane knobs; defaults to
        :class:`~repro.serving.policy.AdmissionPolicy()`.
    method:
        Forwarded to ``remove_many`` (``None`` = the trainer's default,
        ``"priu"``, ``"priu-opt"`` or ``"priu-seq"``).
    autostart:
        Start the worker thread immediately.  Benchmarks pass ``False``,
        pre-load the queue, then call :meth:`start` for a deterministic
        single-batch dispatch.
    commit_mode:
        Serve *committed* deletions: each dispatched batch runs
        ``remove_many(..., commit=True)``, so requests are applied
        cumulatively in admission order (a request's answer excludes its
        own samples plus everything admitted before it) and the model,
        store and plan adopt the post-batch state.  Removal ids submitted
        after a commit are interpreted — and validated — in the
        *post-commit* id space, which shrinks with every committed batch
        (``trainer.n_samples`` is the live bound).  Requests still queued
        when an earlier batch commits are translated forward through that
        commit automatically: ids it already removed drop out (those
        samples are gone) and survivors shift down, so an id always
        denotes the sample the submitter addressed; ``ServedOutcome.\
removed`` reports the translated set, in the id space its batch executed
        in.  The trainer must not be queried concurrently from outside
        the server while commits are in flight.
    clock:
        The :class:`~repro.serving.clock.Clock` all deadline math and
        latency measurement runs on.  Defaults to real monotonic time;
        tests inject a fake.
    """

    def __init__(
        self,
        trainer,
        policy: AdmissionPolicy | None = None,
        method: str | None = None,
        autostart: bool = True,
        commit_mode: bool = False,
        clock: Clock | None = None,
    ) -> None:
        trainer._require_fit()
        if method not in (None, "priu", "priu-opt", "priu-seq"):
            raise ValueError(
                "method must be None, 'priu', 'priu-opt' or 'priu-seq'"
            )
        self.trainer = trainer
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.method = method
        self.commit_mode = bool(commit_mode)
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        if self.commit_mode and trainer.clock is None:
            # The serving clock also stamps the commit audit receipts:
            # an injected clock (fake clock in tests, or an operator's
            # custom time source) keeps them deterministic, and the
            # stock monotonic clock answers receipt stamps through
            # Clock.timestamp() — wall time, since receipts persist
            # across restarts and perf_counter seconds are
            # process-relative.
            trainer.clock = self._clock
        self._tracker = _CommitTracker()
        # Lane-priority admission: entries are (lane priority, submission
        # seq, request), so queued deadline traffic always pops before
        # queued bulk traffic while order *within* a lane stays FIFO.  The
        # shutdown sentinel carries +inf priority — it sorts behind every
        # request, preserving drain-then-stop semantics.
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._seq = itertools.count()
        self._batch_seq = itertools.count()
        # Capacity is enforced by the semaphore, not the queue: submitters
        # block on a slot *outside* any lock, the enqueue itself is always
        # non-blocking, and close() can always append its sentinel.  The
        # worker releases a slot for every request it takes off the queue.
        self._slots = threading.BoundedSemaphore(self.policy.max_pending)
        # Deadline-flood starvation guard (AdmissionPolicy
        # max_preemption_ratio); a no-op while no lane carries a ratio.
        self._guard = _PreemptionGuard()
        self._stats = StatsRecorder()
        self._state_lock = threading.Condition()
        # Serializes enqueueing against shutdown: every accepted request is
        # enqueued while holding this lock, and close() flips _closed under
        # it before appending the sentinel — so no request can be admitted
        # after the sentinel and hang undrained.
        self._submit_lock = threading.Lock()
        self._inflight = 0  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _submit_lock
        self._crashed: BaseException | None = None  # guarded-by: _submit_lock
        self._started = False  # guarded-by: _state_lock
        self._worker = threading.Thread(
            target=self._serve_loop, name="deletion-server", daemon=True
        )
        if autostart:
            self.start()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "DeletionServer":
        """Start the worker thread (idempotent)."""
        with self._state_lock:
            if not self._started:
                self._started = True
                self._worker.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, then stop the worker."""
        with self._submit_lock:
            already_closed = self._closed
            self._closed = True
        if already_closed:
            if wait and self._worker.is_alive():
                self._worker.join()
            return
        # Ensure queued work drains even if the caller never start()ed.
        self.start()
        self._queue.put((math.inf, math.inf, _SHUTDOWN))
        if wait:
            self._worker.join()

    def __enter__(self) -> "DeletionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On a clean exit, drain the queue and join the worker.  While an
        # exception is unwinding, don't block on outstanding work (the
        # futures' owners may be the very frames being torn down): stop
        # accepting and let the daemon worker finish in the background.
        self.close(wait=exc_type is None)

    # ---------------------------------------------------------- submission
    def submit(
        self,
        indices,
        block: bool = True,
        timeout: float | None = None,
        lane: str | None = None,
    ) -> Future:
        """Enqueue one removal set; returns a future of :class:`ServedOutcome`.

        Validation (bounds, not-everything, lane name) happens here,
        synchronously, so a bad request raises in its caller instead of
        failing a batch.  ``lane`` names one of the policy's SLA classes
        (default: ``policy.default_lane``).  When the queue is at
        ``max_pending``: ``block=True`` waits (up to ``timeout``),
        ``block=False`` raises :class:`BackpressureError` immediately.
        """
        lane_obj = self.policy.lane(lane)
        removed = normalize_removed_indices(indices)
        if removed.size == 0:
            return self._resolve_empty(lane_obj.name)
        # Register the pruning key BEFORE anything can block: concurrent
        # dispatches prune commit history down to the oldest *registered*
        # in-flight key, so a submitter parked on the backpressure
        # semaphore must already be counted or the history it needs can
        # vanish while it waits.  The request is tagged with a second
        # snapshot taken after registration — it can only move the tag
        # forward, never below the registered key, so the retained
        # history always covers the tag.
        admitted_key = (0, _consistent_store_snapshot(self.trainer.store)[0])
        self._tracker.note_submitted(admitted_key)
        try:
            # The ids are validated against exactly the id space they are
            # tagged with, even if the worker commits a batch mid-submit.
            store_version, n_samples = _consistent_store_snapshot(
                self.trainer.store
            )
            _validate_removed(removed, n_samples)
            request = _Request(
                indices=removed,
                future=Future(),
                enqueued_at=self._clock.now(),
                lane=lane_obj.name,
                lane_delay=self.policy.delay_for(lane_obj.name),
                lane_priority=lane_obj.priority,
                store_key=(0, store_version),
                admitted_key=admitted_key,
            )
            # Backpressure: wait for a slot without holding any lock, so
            # a blocked submitter can never stall close() or other
            # submitters.
            if block:
                got_slot = self._slots.acquire(timeout=timeout)
            else:
                got_slot = self._slots.acquire(blocking=False)
            if not got_slot:
                self._stats.record_rejected(lane_obj.name)
                raise BackpressureError(
                    f"admission queue is full "
                    f"({self.policy.max_pending} pending)"
                )
            # The check-then-enqueue must be atomic w.r.t. close(), else
            # a request could be admitted after the shutdown sentinel and
            # never resolve.  Nothing inside this lock blocks.
            with self._submit_lock:
                if self._crashed is not None:
                    self._slots.release()
                    raise WorkerCrashedError(
                        "cannot submit: the server's worker thread died"
                    ) from self._crashed
                if self._closed:
                    self._slots.release()
                    raise ServerClosedError(
                        "cannot submit to a closed DeletionServer"
                    )
                with self._state_lock:
                    self._inflight += 1
                self._stats.record_submitted(lane_obj.name)
                request.seq = next(self._seq)
                self._queue.put_nowait(request.entry())
        except BaseException:
            # One unwind point for every pre-enqueue failure — validation,
            # rejection, closed server, or an interrupt while parked on
            # the semaphore.  A leaked key would pin commit history (the
            # min() prune could never pass it) for the server's lifetime.
            self._tracker.forget(admitted_key)
            raise
        return request.future

    def _resolve_empty(self, lane: str) -> Future:
        """Answer an empty removal set inline: a no-op that joins no batch.

        An empty set used to pass validation and ride a batch through
        ``remove_many`` — wasting an admission slot and, in commit mode,
        committing nothing while still counting as an applied request.
        Policy ``on_empty="reject"`` turns this into a submit-time error.
        """
        if self.policy.on_empty == "reject":
            raise ValueError(
                "empty removal set (AdmissionPolicy(on_empty='resolve') "
                "answers these with a no-op instead)"
            )
        with self._submit_lock:
            if self._crashed is not None:
                raise WorkerCrashedError(
                    "cannot submit: the server's worker thread died"
                ) from self._crashed
            if self._closed:
                raise ServerClosedError(
                    "cannot submit to a closed DeletionServer"
                )
            self._stats.record_noop(lane)
            weights = self.trainer.weights_.copy()
        future: Future = Future()
        future.set_result(
            ServedOutcome(
                weights=weights,
                method="noop",
                removed=np.empty(0, dtype=np.int64),
                seconds=0.0,
                wait_seconds=0.0,
                latency_seconds=0.0,
                batch_size=0,
                committed=False,
                lane=lane,
            )
        )
        return future

    def submit_many(self, index_sets, **kwargs) -> list[Future]:
        """Enqueue several removal sets (one future each)."""
        return [self.submit(indices, **kwargs) for indices in index_sets]

    def resolve(self, indices, timeout: float | None = None, **kwargs) -> ServedOutcome:
        """Blocking convenience: submit one request and wait for its answer."""
        return self.submit(indices, **kwargs).result(timeout=timeout)

    # ----------------------------------------------------------- observers
    def flush(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has been answered or failed."""
        with self._state_lock:
            if self._inflight and not self._started:
                raise ServerStateError(
                    "flush() would wait forever: requests are queued but the "
                    "worker was never started (autostart=False)"
                )
            return self._state_lock.wait_for(
                lambda: self._inflight == 0, timeout
            )

    def stats(self) -> ServingStats:
        """Lifetime counters and wait/service/latency distributions."""
        return self._stats.snapshot()

    @property
    def pending(self) -> int:
        """Requests submitted but not yet answered."""
        with self._state_lock:
            return self._inflight

    # -------------------------------------------------------------- worker
    def _finish(self, requests: list[_Request]) -> None:
        self._tracker.note_finished(requests)
        with self._state_lock:
            # max() guards the post-abort window: _abort zeroes the count
            # while a dispatch may still be finishing its batch.
            self._inflight = max(0, self._inflight - len(requests))
            if self._inflight == 0:
                self._state_lock.notify_all()

    def _serve_loop(self) -> None:
        carried: _Request | None = None
        batch: list[_Request] = []
        try:
            while True:
                batch = []
                if carried is not None:
                    batch.append(carried)
                    carried = None
                else:
                    _, _, item = self._queue.get()
                    if item is _SHUTDOWN:
                        break
                    self._slots.release()
                    batch.append(item)
                saw_shutdown, yielded, carried = self._collect(batch)
                if batch:
                    self._note_preemption(batch, yielded)
                    self._dispatch(batch)
                if saw_shutdown:
                    break
        except BaseException as exc:
            # The worker is dying with requests possibly in hand (the
            # batch being coalesced or dispatched, a carried head, and
            # everything still queued).  Fail them all loudly: a wedged
            # flush() is strictly worse than a typed error.
            inflight = list(batch)
            if carried is not None:
                inflight.append(carried)
            self._abort(exc, inflight)

    def _abort(self, cause: BaseException, inflight: list[_Request]) -> None:
        """Fail every unresolved request after the worker thread dies."""
        error = WorkerCrashedError("the server's worker thread died")
        error.__cause__ = cause
        with self._submit_lock:
            self._crashed = error
        doomed = list(inflight)
        while True:
            try:
                _, _, item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            self._slots.release()
            doomed.append(item)
        failed_lanes: list[str | None] = []
        cancelled_lanes: list[str | None] = []
        settled: list[_Request] = []
        for request in doomed:
            future = request.future
            if future.cancelled():
                # Cancelled while queued; nobody will pop it now.
                cancelled_lanes.append(request.lane)
                settled.append(request)
                continue
            if future.done():
                continue
            try:
                # Works from PENDING and RUNNING alike; a concurrent
                # cancel() wins the race and is fine — the caller got an
                # answer either way.
                future.set_exception(error)
                failed_lanes.append(request.lane)
                settled.append(request)
            except Exception:
                pass
        if failed_lanes:
            self._stats.record_failed(len(failed_lanes), failed_lanes)
        if cancelled_lanes:
            self._stats.record_cancelled(len(cancelled_lanes), cancelled_lanes)
        self._tracker.note_finished(settled)
        with self._state_lock:
            self._inflight = 0
            self._state_lock.notify_all()

    # ------------------------------------------------- starvation guard
    def _steal_oldest_lower(self, bound_priority: int) -> _Request | None:
        """Pull the oldest queued request of a lane below ``bound_priority``.

        The guard's *yield* operation: direct surgery on the priority
        queue's heap (under its own mutex — only this worker thread pops,
        so removing an entry cannot race another consumer).  Returns None
        when no lower-priority request waits.
        """
        q = self._queue
        with q.mutex:
            candidates = [
                entry
                for entry in q.queue
                if entry[2] is not _SHUTDOWN and entry[0] > bound_priority
            ]
            if not candidates:
                return None
            entry = min(candidates, key=lambda e: e[1])
            q.queue.remove(entry)
            heapq.heapify(q.queue)
        self._slots.release()
        return entry[2]

    def _oldest_lower_seq(self, bound_priority: int) -> int | None:
        """Smallest seq still queued below ``bound_priority`` (None if none)."""
        q = self._queue
        with q.mutex:
            seqs = [
                entry[1]
                for entry in q.queue
                if entry[2] is not _SHUTDOWN and entry[0] > bound_priority
            ]
        return min(seqs) if seqs else None

    def _note_preemption(self, batch: list[_Request], yielded: bool) -> None:
        """Update the starvation guard for one dispatched batch."""
        self._guard.observe_dispatch(
            batch, self._oldest_lower_seq, self.policy, yielded
        )

    def _collect(
        self, batch: list[_Request]
    ) -> tuple[bool, bool, _Request | None]:
        """Coalesce queued requests behind ``batch[0]`` under the policy.

        The batch's coalescing budget is the *minimum* of its members'
        lane delays against its *oldest* member's wait — so a zero-delay
        (deadline-lane) request forces immediate dispatch of whatever
        batch it joins, and nobody's latency budget is silently blown by
        a later, more patient arrival.

        When the starvation guard's preemption debt is due (and the head
        rides a guarded lane), the oldest waiting lower-priority request
        is *yielded* into this batch first — it rides the batch's
        (possibly zero) delay and is served immediately with it.

        Grows ``batch`` (the caller's list) *in place*: every request
        popped off the queue is appended before anything else can fail,
        so a worker crash mid-coalesce still has the full set in hand to
        abort.  Returns ``(saw_shutdown, yielded, carried)``; ``carried``
        is the popped head the worker must serve next when ``max_batch``
        left no room to dispatch it alongside the yielded request.
        """
        first = batch[0]
        batch_delay = first.lane_delay
        oldest_enqueue = first.enqueued_at
        yielded = False
        if self._guard.must_yield() and (
            self.policy.preemption_ratio_for(first.lane) is not None
        ):
            stolen = self._steal_oldest_lower(first.lane_priority)
            if stolen is not None:
                if self.policy.max_batch < 2:
                    # No room to carry both under the batch cap: the
                    # yielded request takes this dispatch and the guarded
                    # head waits for the next one (matching the fleet's
                    # accounting, never exceeding max_batch).
                    batch[0] = stolen
                    return False, True, first
                batch.append(stolen)
                batch_delay = min(batch_delay, stolen.lane_delay)
                oldest_enqueue = min(oldest_enqueue, stolen.enqueued_at)
                yielded = True
        while True:
            oldest_wait = self._clock.now() - oldest_enqueue
            if self.policy.should_dispatch(len(batch), oldest_wait, batch_delay):
                break
            try:
                _, _, item = self._clock.get(
                    self._queue,
                    self.policy.remaining_budget(oldest_wait, batch_delay),
                )
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return True, yielded, None
            self._slots.release()
            batch.append(item)
            batch_delay = min(batch_delay, item.lane_delay)
            oldest_enqueue = min(oldest_enqueue, item.enqueued_at)
        # Budget spent (or batch full): still sweep up whatever is already
        # sitting in the queue, up to the cap — free batching, no waiting.
        while len(batch) < self.policy.max_batch:
            try:
                _, _, item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return True, yielded, None
            self._slots.release()
            batch.append(item)
        return False, yielded, None

    def _dispatch(self, batch: list[_Request]) -> None:
        # Honor cancellations that happened while the request was queued.
        live: list[_Request] = []
        cancelled: list[_Request] = []
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                cancelled.append(request)
        if cancelled:
            self._stats.record_cancelled(
                len(cancelled), [r.lane for r in cancelled]
            )
            self._finish(cancelled)
        # Keep the caller's list tracking exactly the still-unsettled
        # requests, so a crash below aborts precisely those.
        batch[:] = live
        if not live:
            return
        _serve_batch(
            self.trainer,
            live,
            method=self.method,
            commit_mode=self.commit_mode,
            tracker=self._tracker,
            clock=self._clock,
            stats=self._stats,
            batch_seq=next(self._batch_seq),
        )
        self._finish(live)
        del batch[:]
