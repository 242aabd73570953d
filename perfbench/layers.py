"""Per-layer metrics from the spans and counters of one traced CLI run.

A layer's time is the sum of its spans' durations; its self time
subtracts the part covered by its direct child spans.  Layers use the
snbd module names.
"""

import json
from collections import defaultdict
from pathlib import Path
from statistics import median

# Direct children of propagate_block: the rest of its time is the SDE
# step and the record-time monitors (eigvalsh, Hermiticity, NaN/norm).
BLOCK_CHILDREN = {"ensemble.on_record", "propagator.noise_draw"}
SPAN_TIMER_SLACK_S = 1e-6


class TraceError(RuntimeError):
    """The traced run did not record what the workload must record."""


def load(trace_dir):
    """Spans, counter sums and peaks, import seconds and the number of
    processes that wrote spans, for one traced run."""
    spans, sums, peaks = [], defaultdict(int), defaultdict(int)
    files = sorted(Path(trace_dir).glob("spans-*.json"))
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans += data["spans"]
        for name, n in data["sums"].items():
            sums[name] += n
        for name, n in data["peaks"].items():
            peaks[name] = max(peaks[name], n)
    meta = json.loads((Path(trace_dir) / "import.json").read_text("utf-8"))
    return spans, sums, peaks, meta["import_s"], len(files)


def layer_metrics(trace_dir, workload, out_dir, traced_wall_s,
                  untraced_wall_s) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    spans, sums, peaks, import_s, n_files = load(trace_dir)
    durations = defaultdict(list)
    covered = defaultdict(float)
    child_names = defaultdict(set)
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        durations[s["name"]].append(s["end"] - s["start"])
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
            child_names[names.get(s["parent"])].add(s["name"])

    missing = sorted(n for n in workload.expected_spans if not durations[n])
    if missing:
        raise TraceError(f"{workload.name}: no calls recorded for {missing}")
    if workload.workers > 1 and n_files < 2:
        raise TraceError(f"{workload.name}: no pool worker wrote its spans")
    stray = child_names["propagator.propagate_block"] - BLOCK_CHILDREN
    if stray:
        raise TraceError(f"unexpected spans inside propagate_block: {stray}")

    def total(name):
        return sum(durations[name])

    def self_time(name):
        return sum(s["end"] - s["start"] - covered[s["id"]]
                   for s in spans if s["name"] == name)

    block_total = total("propagator.propagate_block")
    block_self = self_time("propagator.propagate_block")
    parts = block_self + sum(total(n) for n in BLOCK_CHILDREN)
    if abs(parts - block_total) > SPAN_TIMER_SLACK_S:
        raise TraceError(f"propagate_block spans do not add up: "
                         f"{parts} s of parts vs {block_total} s")

    blocks = durations["propagator.propagate_block"]
    out_bytes = sum(p.stat().st_size for p in Path(out_dir).iterdir())
    s, count, b, frac = "s", "count", "B", "fraction"
    return {
        "cli.import_s": (import_s, s),
        "config.parse_s": (total("config.parse"), s),
        "ensemble.run_ensemble_s": (total("ensemble.run_ensemble"), s),
        "ensemble.on_record_s": (total("ensemble.on_record"), s),
        "ensemble.batched_kron_s": (total("ensemble.batched_kron"), s),
        "ensemble.batched_refvec_s": (total("ensemble.batched_refvec"), s),
        "ensemble.block_s.p50": (median(blocks), s),
        "ensemble.block_s.max": (max(blocks), s),
        "ensemble.pool_efficiency": (
            block_total / (workload.workers
                           * total("ensemble.run_ensemble")), frac),
        "ensemble.jackknife_density_s": (
            total("ensemble.jackknife_density"), s),
        "ensemble.active_frac": (
            sums["active_at_last_record"] / sums["launched"], frac),
        "propagator.propagate_block_s": (block_total, s),
        "propagator.propagate_block_self_s": (block_self, s),
        "propagator.noise_draw_s": (total("propagator.noise_draw"), s),
        "propagator.traj_steps": (sums["traj_steps"], count),
        "propagator.records": (sums["records"], count),
        "propagator.noise_normals": (sums["noise_normals"], count),
        "propagator.skipped": (sums["skipped"], count),
        "propagator.noise_chunk_bytes": (peaks["noise_chunk_bytes"], b),
        "recovery.recover_s": (total("recovery.recover"), s),
        "recovery.jackknife_recovery_s": (
            total("recovery.jackknife_recovery"), s),
        "oracle.propagate_exact_s": (total("oracle.propagate_exact"), s),
        "output.write_s": (total("output.write"), s),
        "output.bytes": (out_bytes, b),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, s),
    }
