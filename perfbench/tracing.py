"""In-memory spans around the public callables of each layer.

The benchmark measures end-to-end numbers with nothing installed; a traced
pass installs :class:`Tracer` wrappers on the names the program calls
through (class attributes, and the module-level names ``repro.core.api``
imported from ``repro.core.serialization``), records one span per call and
removes the wrappers again.  Nothing under ``src/`` knows about tracing.

A span is ``(name, start, end, span_id, parent_id, root_id, phase, extra)``:
``parent_id`` is the enclosing span on the same thread (None at top level),
``root_id`` the request id the generator set for a top-level
``FleetServer.submit`` or else the id of the outermost span (a batch),
``phase`` is ``"setup"`` or ``"timed"`` and ``extra`` holds counts read at
the same boundary (set count K, fused/scalar iterations, refresh mode, RSS
delta).  Spans stay in a list and are written out as JSON lines when the
run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

from repro.core import api as core_api
from repro.core.api import IncrementalTrainer
from repro.core.priu_opt import PrIUOptLogisticUpdater
from repro.core.provenance_store import PackedOccurrenceIndex, ProvenanceStore
from repro.core.replay_plan import ReplayPlan
from repro.eval.memory import rss_bytes
from repro.serving.fleet import FleetServer, ModelRegistry


def _remove_many_extra(args, kwargs, result):
    index_sets = args[1] if len(args) > 1 else kwargs["index_sets"]
    return {"k": len(index_sets)}


def _refresh_extra(args, kwargs, result):
    return {
        "mode": result.get("mode"),
        "blocks_rebuilt": int(result.get("kernel_blocks_rebuilt", 0)),
    }


def _kernel_before(args, kwargs):
    return args[0].kernel_stats()


def _run_extra(args, kwargs, result, before):
    after = args[0].kernel_stats()
    return {
        "fused": after["fused_iterations"] - before["fused_iterations"],
        "scalar": after["scalar_iterations"] - before["scalar_iterations"],
    }


def _rss_before(args, kwargs):
    return rss_bytes() or 0


def _rss_extra(args, kwargs, result, before):
    return {"rss_delta": (rss_bytes() or 0) - before}


# (owner, attribute, span name, extra(args, kwargs, result) or None,
#  before(args, kwargs) or None).  When ``before`` is given, ``extra``
# receives its value as a fourth argument.
TARGETS = (
    (FleetServer, "submit", "fleet.submit", None, None),
    (ModelRegistry, "save_dirty", "registry.save_dirty", None, None),
    (IncrementalTrainer, "fit", "api.fit", None, None),
    (IncrementalTrainer, "save_checkpoint", "api.save_checkpoint", None, None),
    (IncrementalTrainer, "from_checkpoint", "api.from_checkpoint",
     _rss_extra, _rss_before),
    (IncrementalTrainer, "remove_many", "api.remove_many",
     _remove_many_extra, None),
    (IncrementalTrainer, "maintain", "api.maintain", None, None),
    (ReplayPlan, "run", "replay_plan.run", _run_extra, _kernel_before),
    (ReplayPlan, "refresh", "replay_plan.refresh", _refresh_extra, None),
    (PrIUOptLogisticUpdater, "update_many", "priu_opt.update_many",
     None, None),
    (PackedOccurrenceIndex, "lookup", "provenance_store.lookup", None, None),
    (ProvenanceStore, "compact", "provenance_store.compact", None, None),
    # api.py imports these by name: wrap them where it looks them up.
    (core_api, "load_store", "serialization.load_store", None, None),
    (core_api, "load_plan", "serialization.load_plan", None, None),
    (core_api, "save_store", "serialization.save_store", None, None),
    (core_api, "save_plan", "serialization.save_plan", None, None),
)


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, extra, before in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, extra, before)
                )
            else:
                wrapped = self._wrap(original, name, extra, before)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def set_request(self, request_id: int | None) -> None:
        """Tag the next top-level span on this thread with a request id."""
        self._local.request = request_id

    def _wrap(self, fn, name, extra, before):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            if stack:
                parent_id, root_id = stack[-1]
            else:
                parent_id = None
                root_id = getattr(local, "request", None) or span_id
            pre = before(args, kwargs) if before is not None else None
            stack.append((span_id, root_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = None
            if extra is not None:
                info = (
                    extra(args, kwargs, result, pre)
                    if before is not None
                    else extra(args, kwargs, result)
                )
            tracer.spans.append(
                (name, start, end, span_id, parent_id, root_id,
                 tracer.phase, info)
            )
            return result

        return traced

    # ------------------------------------------------------------ queries
    def durations(self, name: str, phase: str | None = "timed") -> list[float]:
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (phase is None or s[6] == phase)
        ]

    def extras(self, name: str, phase: str | None = "timed") -> list[dict]:
        return [
            s[7]
            for s in self.spans
            if s[0] == name and (phase is None or s[6] == phase)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "id", "parent", "root", "phase",
                "extra")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
