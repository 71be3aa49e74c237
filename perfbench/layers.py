"""Per-layer metrics from the traced set-up and the traced workload repetition.

Each metric is named for the mulki module that owns the function whose
calls it times. "_ms" is inclusive time, "_self_ms" excludes the traced
calls made inside; "per iteration" divides by the task-training
iterations the workload configures. See perfbench/NOTES.md for which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import math

from tracer import BATCH_NEXT, ROOT, STUDENT_FORWARD

TEACHER_FORWARD = "encoder.forward[teacher]"

# (name, unit, better) in report order.
METRICS = (
    ("tensor.backward_ms", "ms/iter", "lower"),
    ("tensor.trace_ms", "ms/iter", "lower"),
    ("tensor.tape_nodes", "nodes/iter", "lower"),
    ("tensor.grad_arrays", "arrays/iter", "lower"),
    ("tensor.leaf_grad_ratio", "ratio", "higher"),
    ("encoder.student_forward_ms", "ms/iter", "lower"),
    ("encoder.teacher_forward_ms", "ms/iter", "lower"),
    ("encoder.params_flat_ms", "ms/iter", "lower"),
    ("encoder.params_flat_tensor_ms", "ms/iter", "lower"),
    ("encoder.checkpoint_write_ms", "ms/file", "lower"),
    ("encoder.checkpoint_read_ms", "ms/file", "lower"),
    ("losses.total_loss_self_ms", "ms/iter", "lower"),
    ("losses.mdd_loss_self_ms", "ms/iter", "lower"),
    ("losses.teacher_outputs_self_ms", "ms/iter", "lower"),
    ("losses.teacher_outputs_calls", "calls/iter", "lower"),
    ("losses.teacher_checks_ms", "ms/iter", "lower"),
    ("losses.csa_loss_ms", "ms/iter", "lower"),
    ("losses.wc_loss_ms", "ms/iter", "lower"),
    ("losses.teacher_rows_per_train_row", "ratio", "lower"),
    ("prototypes.ema_update_ms", "ms/iter", "lower"),
    ("prototypes.init_ms_per_task", "ms/task", "lower"),
    ("optim.step_ms", "ms/iter", "lower"),
    ("weightspace.we_step_ms", "ms/iter", "lower"),
    ("weightspace.averagings_per_flatten", "ratio", "higher"),
    ("taskgen.batch_wait_ms", "ms/iter", "lower"),
    ("taskgen.generate_ms", "ms/call", "lower"),
    ("taskgen.save_stream_ms", "ms/call", "lower"),
    ("taskgen.load_stream_ms", "ms/call", "lower"),
    ("taskgen.stream_bytes", "bytes", "lower"),
    ("runner.iter_ms_p50", "ms", "lower"),
    ("runner.iter_ms_p99", "ms", "lower"),
    ("runner.iter_samples", "count", "higher"),
    ("runner.pretrain_ms_per_iter", "ms/iter", "lower"),
    ("runner.save_run_record_ms", "ms/call", "lower"),
    ("runner.artifact_bytes", "bytes", "lower"),
    ("metrics.evaluate_ms_per_row", "ms/row", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("package.src_lines", "lines", "lower"),
)

# Exact tape counts per training iteration, gated only on the source tree
# they were recorded from (sha256 of src/mulki/**/*.py, see common.source_digest).
# ROADMAP's "~273 nodes" counts tensor ops built per iteration (273 on `full`),
# not the traced tape: teacher forwards and logging-only values never join it.
RECORDED_SOURCE = "529a25174f186bdd0f3d59a67fece6207a9251232a98852d89498aa236002e2c"
EXACT_COUNTS = {
    "full_seed": {"tensor.tape_nodes": 195, "tensor.grad_arrays": 170},
    "finetune_seeds": {"tensor.tape_nodes": 37, "tensor.grad_arrays": 34},
}

# Layers the fine-tuning baseline bypasses: they must make no calls there.
FINETUNE_SILENT = (
    "losses.teacher_outputs",
    "losses.mdd_loss",
    "losses.csa_loss",
    "losses.wc_loss",
    TEACHER_FORWARD,
)


def _nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class _Stats:
    def __init__(self, *stats: dict):
        self.spans: dict = {}
        self.counts: dict = {}
        self.values: dict = {}
        for s in stats:
            for name, entry in s["spans"].items():
                into = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in into:
                    into[key] += entry[key]
            for name, n in s["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + n
            for name, v in s["values"].items():
                self.values.setdefault(name, []).extend(v)

    def calls(self, name: str) -> int:
        return self.spans.get(name, {}).get("calls", 0)

    def total_ms(self, name: str) -> float:
        return 1000.0 * self.spans.get(name, {}).get("total_s", 0.0)

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.spans.get(name, {}).get("self_s", 0.0)

    def per_call_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0

    def mean(self, name: str) -> float:
        values = self.values.get(name, [])
        return sum(values) / len(values) if values else 0.0


def per_layer(setup: dict, work: dict, iterations: int, extra: dict) -> dict:
    """Every per-layer metric value, keyed by name.

    `setup` and `work` are Tracer.stats() of the traced set-up and workload;
    `extra` holds what is measured outside the trace (sizes, walls, lines).
    """
    s, w, both = _Stats(setup), _Stats(work), _Stats(setup, work)

    def per_iter(ms: float) -> float:
        return ms / iterations

    grad_arrays = w.mean("grad_arrays")
    gaps = sorted(1000.0 * g for g in w.values.get("iter_gap_s", []))
    teacher_train_rows = w.counts.get("teacher_train_rows", 0)
    flattens = w.counts.get("flattens_for_we_step", 0)
    tasks = w.calls("runner.train_task")
    roots = w.total_ms(ROOT)
    covered = sum(entry["self_s"] for name, entry in w.spans.items() if name != ROOT) * 1000.0
    return {
        "tensor.backward_ms": per_iter(w.total_ms("tensor.Tensor.backward")),
        "tensor.trace_ms": per_iter(w.total_ms("tensor.GradTape.trace")),
        "tensor.tape_nodes": w.mean("tape_nodes"),
        "tensor.grad_arrays": grad_arrays,
        "tensor.leaf_grad_ratio": w.mean("leaf_grads") / grad_arrays if grad_arrays else 0.0,
        "encoder.student_forward_ms": per_iter(w.total_ms(STUDENT_FORWARD)),
        "encoder.teacher_forward_ms": per_iter(w.total_ms(TEACHER_FORWARD)),
        "encoder.params_flat_ms": per_iter(w.total_ms("encoder.params_flat")),
        "encoder.params_flat_tensor_ms": per_iter(w.total_ms("encoder.params_flat_tensor")),
        "encoder.checkpoint_write_ms": both.per_call_ms("encoder.save_checkpoint"),
        "encoder.checkpoint_read_ms": both.per_call_ms("encoder.load_checkpoint"),
        "losses.total_loss_self_ms": per_iter(w.self_ms("losses.total_loss")),
        "losses.mdd_loss_self_ms": per_iter(w.self_ms("losses.mdd_loss")),
        "losses.teacher_outputs_self_ms": per_iter(w.self_ms("losses.teacher_outputs")),
        "losses.teacher_outputs_calls": w.calls("losses.teacher_outputs") / iterations,
        "losses.teacher_checks_ms": per_iter(w.total_ms("losses.TeacherOutputs.__post_init__")),
        "losses.csa_loss_ms": per_iter(w.total_ms("losses.csa_loss")),
        "losses.wc_loss_ms": per_iter(w.total_ms("losses.wc_loss")),
        "losses.teacher_rows_per_train_row": (
            w.counts.get("teacher_rows", 0) / teacher_train_rows if teacher_train_rows else 0.0
        ),
        "prototypes.ema_update_ms": per_iter(w.total_ms("prototypes.PrototypeStore.ema_update")),
        "prototypes.init_ms_per_task": (
            w.total_ms("prototypes.PrototypeStore.init_from_model") / tasks if tasks else 0.0
        ),
        "optim.step_ms": per_iter(w.total_ms("optim.AdamW.step")),
        "weightspace.we_step_ms": per_iter(w.total_ms("weightspace.we_step")),
        "weightspace.averagings_per_flatten": w.counts.get("averagings", 0) / flattens if flattens else 0.0,
        "taskgen.batch_wait_ms": per_iter(w.total_ms(BATCH_NEXT)),
        "taskgen.generate_ms": s.per_call_ms("taskgen.generate_stream"),
        "taskgen.save_stream_ms": s.per_call_ms("taskgen.save_stream"),
        "taskgen.load_stream_ms": both.per_call_ms("taskgen.load_stream"),
        "taskgen.stream_bytes": extra["stream_bytes"],
        "runner.iter_ms_p50": _nearest_rank(gaps, 0.50) if gaps else 0.0,
        "runner.iter_ms_p99": _nearest_rank(gaps, 0.99) if gaps else 0.0,
        "runner.iter_samples": len(gaps),
        "runner.pretrain_ms_per_iter": s.total_ms("runner.pretrain") / extra["pretrain_iterations"],
        "runner.save_run_record_ms": w.per_call_ms("runner.save_run_record"),
        "runner.artifact_bytes": extra["artifact_bytes"],
        "metrics.evaluate_ms_per_row": w.per_call_ms("runner.evaluate_row"),
        "trace.overhead_ratio": extra["traced_wall_s"] / extra["untraced_wall_s"],
        "trace.coverage": covered / roots if roots else 0.0,
        "package.src_lines": extra["src_lines"],
    }


def self_check(workload: str, work: dict, iterations: int, exact: bool) -> tuple[list, list]:
    """(failures, notes) of the traced run's own checks.

    `exact` says whether the source tree is the one EXACT_COUNTS was
    recorded from; elsewhere the counts are printed as notes, not gated.
    """
    failures, notes = [], []
    w = _Stats(work)
    if workload == "finetune_seeds":
        for name in FINETUNE_SILENT:
            if w.calls(name):
                failures.append(f"{name}: {w.calls(name)} call(s) on the fine-tuning baseline, expected 0")
    observed = [("iterations", {w.counts.get("iterations", 0)}, iterations)]
    for name, want in EXACT_COUNTS.get(workload, {}).items():
        observed.append((name, set(w.values.get(name.split(".", 1)[1], [])), want))
    for name, seen, want in observed:
        if seen != {want}:
            message = f"{name}: saw {sorted(seen)[:5]}, recorded value {want}"
            (failures if exact else notes).append(message)
    if work.get("missing"):
        notes.append("not found, so not traced: " + ", ".join(work["missing"]))
    return failures, notes
