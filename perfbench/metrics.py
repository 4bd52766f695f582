"""Metric definitions: the end-to-end set, the per-layer set and the report.

End-to-end metrics come from an untraced pass; per-layer metrics from the
traced pass of a ``--trace 1`` run (spans recorded by ``tracing.Tracer``,
counters read from the program's own public stats).  Timings of a layer
are medians over that layer's spans in the traced timed pass, unless the
table below says otherwise.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from harness import checkpoint_megabytes, generator_stats, ms, percentile

#: name -> unit, end-to-end metrics (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "bulk_rps": "1/s",
    "rss_mb": "MB",
}

#: name -> unit, per-layer metrics (every workload's traced run reports all
#: of them; one that its workload never exercises reads 0 and is listed as
#: absent with the reason).
PER_LAYER = {
    "fleet.wait_p50_ms": "ms",
    "fleet.service_p50_ms": "ms",
    "fleet.deadline_p90_ms": "ms",
    "fleet.batch_size_mean": "count",
    "fleet.batches": "count",
    "fleet.submit_p90_us": "us",
    "fleet.commit_p50_ms": "ms",
    "fleet.commit_p90_ms": "ms",
    "registry.loads": "count",
    "registry.hits": "count",
    "registry.evictions": "count",
    "registry.cold_share": "ratio",
    "registry.cold_query_p50_ms": "ms",
    "registry.load_p50_ms": "ms",
    "registry.load_rss_mb": "MB",
    "registry.save_dirty_s": "s",
    "api.fit_s": "s",
    "api.save_checkpoint_s": "s",
    "api.remove_many_ms": "ms",
    "api.remove_many_k": "count",
    "api.maintain_ms": "ms",
    "maintenance.runs": "count",
    "replay_plan.run_ms": "ms",
    "replay_plan.fused_frac": "ratio",
    "replay_plan.refresh_ms": "ms",
    "replay_plan.recompiles": "count",
    "kernels.blocks_rebuilt": "count",
    "priu_opt.update_many_ms": "ms",
    "provenance_store.lookup_us": "us",
    "provenance_store.compact_ms": "ms",
    "serialization.load_store_ms": "ms",
    "serialization.load_plan_ms": "ms",
    "serialization.save_store_s": "s",
    "serialization.save_plan_s": "s",
    "serialization.checkpoint_mb": "MB",
    "gen.late_p90_ms": "ms",
    "gen.offered_rps": "1/s",
    "gen.answered_rps": "1/s",
    "trace.overhead_frac": "ratio",
}

UNITS = {**END_TO_END, **PER_LAYER}


def _latencies(queries) -> list[float]:
    return [q.latency for q in queries if q.outcome is not None]


def end_to_end(result, setup_s: float) -> dict:
    latencies = _latencies(result.queries)
    return {
        "setup_s": setup_s,
        "query_p50_ms": ms(percentile(latencies, 50)),
        "query_p90_ms": ms(percentile(latencies, 90)),
        "bulk_rps": result.bulk_rps,
        "rss_mb": result.rss_mb,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def per_layer(traced, untraced, tracer, deployment) -> dict:
    """Per-layer metrics of the traced pass (``traced``); ``untraced`` is
    the same inputs without wrappers, for the tracing overhead."""
    answered = [q for q in traced.queries if q.outcome is not None]
    served = [q.outcome for q in traced.queries + traced.bulk
              if q.outcome is not None]
    batches = {(o.model_id, o.batch_seq): o.batch_size for o in served}
    deadline = [q.latency for q in answered if q.lane == "deadline"]
    cold = [q.latency for q in answered if q.cold]
    runs = tracer.extras("replay_plan.run")
    fused = sum(e["fused"] for e in runs)
    scalar = sum(e["scalar"] for e in runs)
    refreshes = tracer.extras("replay_plan.refresh")
    loads = tracer.extras("api.from_checkpoint")
    ks = [e["k"] for e in tracer.extras("api.remove_many")]
    gen = generator_stats(traced.queries)
    untraced_p50 = percentile(_latencies(untraced.queries), 50)
    traced_p50 = percentile(_latencies(traced.queries), 50)

    def span_ms(name, phase="timed"):
        return ms(_median(tracer.durations(name, phase)))

    def span_s(name, phase="timed"):
        return _median(tracer.durations(name, phase))

    values = {
        "fleet.wait_p50_ms": ms(percentile(
            [q.outcome.wait_seconds for q in answered], 50)),
        "fleet.service_p50_ms": ms(percentile(
            [q.outcome.latency_seconds - q.outcome.wait_seconds
             for q in answered], 50)),
        "fleet.deadline_p90_ms": ms(percentile(deadline, 90)),
        "fleet.batch_size_mean": (
            float(np.mean(list(batches.values()))) if batches else math.nan
        ),
        "fleet.batches": len(batches),
        "fleet.submit_p90_us": 1e6 * percentile(
            tracer.durations("fleet.submit"), 90),
        "fleet.commit_p50_ms": traced.extra.get("commit_p50_ms", math.nan),
        "fleet.commit_p90_ms": traced.extra.get("commit_p90_ms", math.nan),
        "registry.loads": traced.registry_delta["loads"],
        "registry.hits": traced.registry_delta["hits"],
        "registry.evictions": traced.registry_delta["evictions"],
        "registry.cold_share": traced.extra.get("cold_share", math.nan),
        "registry.cold_query_p50_ms": ms(percentile(cold, 50)),
        "registry.load_p50_ms": span_ms("api.from_checkpoint"),
        "registry.load_rss_mb": (
            _median([e["rss_delta"] for e in loads]) / 1e6
        ),
        "registry.save_dirty_s": span_s("registry.save_dirty"),
        "api.fit_s": span_s("api.fit", phase="setup"),
        "api.save_checkpoint_s": span_s("api.save_checkpoint", phase=None),
        "api.remove_many_ms": span_ms("api.remove_many"),
        "api.remove_many_k": float(np.mean(ks)) if ks else math.nan,
        "api.maintain_ms": span_ms("api.maintain"),
        "maintenance.runs": traced.maintenance_runs,
        "replay_plan.run_ms": span_ms("replay_plan.run"),
        "replay_plan.fused_frac": (
            fused / (fused + scalar) if fused + scalar else math.nan
        ),
        "replay_plan.refresh_ms": span_ms("replay_plan.refresh"),
        "replay_plan.recompiles": sum(
            e["mode"] == "recompile" for e in refreshes),
        "kernels.blocks_rebuilt": sum(e["blocks_rebuilt"] for e in refreshes),
        "priu_opt.update_many_ms": span_ms("priu_opt.update_many"),
        "provenance_store.lookup_us": 1e3 * span_ms(
            "provenance_store.lookup"),
        "provenance_store.compact_ms": span_ms("provenance_store.compact"),
        "serialization.load_store_ms": span_ms("serialization.load_store"),
        "serialization.load_plan_ms": span_ms("serialization.load_plan"),
        "serialization.save_store_s": span_s(
            "serialization.save_store", phase=None),
        "serialization.save_plan_s": span_s(
            "serialization.save_plan", phase=None),
        "serialization.checkpoint_mb": checkpoint_megabytes(
            entry.checkpoint for entry in deployment.fitted.values()
        ),
        "gen.late_p90_ms": gen["late_p90_ms"],
        "gen.offered_rps": gen["offered_rps"],
        "gen.answered_rps": gen["answered_rps"],
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    }
    return values


def report(values, result, setups, attempted, failed, problems) -> None:
    """Human-readable lines before the final JSON line."""
    absent = sorted(n for n, v in values.items()
                    if isinstance(v, float) and math.isnan(v))
    for name, value in values.items():
        if name not in absent:
            print(f"{name:32s} {value:14.6g} {UNITS[name]}")
    if absent:
        print("absent (the workload never exercises the layer; reported "
              "as 0): " + ", ".join(absent))
        for name in absent:
            values[name] = 0.0
    samples = len(_latencies(result.queries))
    print(f"{'samples.queries':32s} {samples:14d} count")
    print(f"{'samples.bulk':32s} {len(result.bulk):14d} count")
    for key, value in sorted(result.extra.items()):
        print(f"{'also.' + key:32s} {value:14.6g}")
    gen = generator_stats(result.queries)
    for key, value in gen.items():
        print(f"{'also.gen.' + key:32s} {value:14.6g}")
    print("setups_s " + " ".join(f"{s:.3f}" for s in setups))
    print(f"{'fail_frac':32s} {failed / max(1, attempted):14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print("CHECK FAILED: " + problem)
