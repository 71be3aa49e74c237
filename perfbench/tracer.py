"""Outside-in span tracer for mulki.

The tracer replaces public functions at the name their caller looks up
(a module global such as `mulki.runner.params_flat`, or a class attribute
such as `DualEncoder.encode_images`) with a wrapper that records a span,
and puts the original objects back on `restore`. Nothing under `src/`
changes. Spans live in flat in-memory lists and are written out once,
after the traced run.

Only work done in this process is seen: a later change that moves
training into worker processes must keep its layers visible some other
way (for example by tracing inside the worker).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute path) of every name the tracer wraps. One function may
# be wrapped at several lookup sites; every site records the same span name,
# taken from the function's own module and qualified name.
TARGETS = (
    # command layer -> training/IO layers
    ("mulki.cli", "generate_stream"),
    ("mulki.cli", "save_stream"),
    ("mulki.cli", "load_stream"),
    ("mulki.cli", "pretrain"),
    ("mulki.cli", "evaluate_row"),
    ("mulki.cli", "run_stream"),
    ("mulki.cli", "save_run_record"),
    ("mulki.cli", "save_checkpoint"),
    ("mulki.cli", "load_checkpoint"),
    ("mulki.cli", "snapshot"),
    ("mulki.cli", "write_canonical"),
    # runner -> its own stages and the layers below it
    ("mulki.runner", "train_task"),
    ("mulki.runner", "evaluate_row"),
    ("mulki.runner", "params_flat"),
    ("mulki.runner", "load_flat"),
    ("mulki.runner", "save_checkpoint"),
    ("mulki.runner", "snapshot"),
    ("mulki.runner", "we_init"),
    ("mulki.runner", "we_step"),
    ("mulki.runner", "ewe_step"),
    ("mulki.runner", "final_params"),
    ("mulki.runner", "write_canonical"),
    ("mulki.taskgen", "batches"),
    ("mulki.taskgen", "write_canonical"),
    # losses: runner calls `losses.X`, losses calls its own globals
    ("mulki.losses", "total_loss"),
    ("mulki.losses", "student_outputs"),
    ("mulki.losses", "teacher_outputs"),
    ("mulki.losses", "mdd_loss"),
    ("mulki.losses", "csa_loss"),
    ("mulki.losses", "fd_loss"),
    ("mulki.losses", "ird_loss"),
    ("mulki.losses", "i2t_loss"),
    ("mulki.losses", "pt_loss"),
    ("mulki.losses", "sample_weights"),
    ("mulki.losses", "wc_loss"),
    ("mulki.losses", "cross_entropy"),
    ("mulki.losses", "image_text_dist"),
    ("mulki.losses", "params_flat_tensor"),
    ("mulki.losses", "TeacherOutputs.__post_init__"),
    ("mulki.metrics", "evaluate"),
    ("mulki.metrics", "evaluation_candidates"),
    ("mulki.metrics", "metrics_document"),
    # encoder internals reached through ModelSnapshot and the checkpoint code
    ("mulki.encoder", "params_flat"),
    ("mulki.encoder", "load_flat"),
    ("mulki.encoder", "DualEncoder.encode_images"),
    ("mulki.encoder", "DualEncoder.encode_texts"),
    ("mulki.prototypes", "PrototypeStore.init_from_model"),
    ("mulki.prototypes", "PrototypeStore.ema_update"),
    ("mulki.prototypes", "PrototypeStore.matrix"),
    ("mulki.prototypes", "PrototypeStore.purge"),
    ("mulki.optim", "AdamW.step"),
    ("mulki.optim", "AdamW.zero_grad"),
    ("mulki.optim", "AdamW.reset_moments"),
    ("mulki.tensor", "Tensor.backward"),
    ("mulki.tensor", "GradTape.trace"),
    ("mulki.tensor", "GradTape.run"),
)

# An encoder forward pass is attributed to the innermost of these callers
# on the span stack; anything else is the student's own forward pass.
FORWARD_CONTEXTS = (
    ("losses.teacher_outputs", "encoder.forward[teacher]"),
    ("metrics.evaluate", "encoder.forward[eval]"),
    ("prototypes.PrototypeStore.init_from_model", "encoder.forward[proto_init]"),
    ("runner.pretrain", "encoder.forward[pretrain]"),
)
STUDENT_FORWARD = "encoder.forward[student]"
BATCH_NEXT = "taskgen.batches.next"
ROOT = "cli.main"


def span_name(fn) -> str:
    module = fn.__module__
    if module.startswith("mulki."):
        module = module[len("mulki."):]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Spans as parallel lists (name, start, end, parent) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.values: dict[str, list] = defaultdict(list)
        self._patched: list[tuple] = []  # (owner, attribute, original raw object)
        self.missing: list[str] = []
        self._last_flat = None
        self._task_teachers: set = set()

    # ----------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        return end

    def _forward_context(self) -> str:
        for idx in reversed(self._stack[1:]):
            name = self.names[idx]
            for caller, label in FORWARD_CONTEXTS:
                if name == caller:
                    return label
        return STUDENT_FORWARD

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        for module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._wrapper(fn)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._patched.append((owner, attr, raw))

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not come back."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw in self._patched
            if owner.__dict__.get(attr) is not raw
        ]
        self._patched.clear()
        return leaked

    def _wrapper(self, fn):
        name = span_name(fn)
        tracer = self
        if name == "taskgen.batches":
            return self._batches_wrapper(fn)
        after = {
            "tensor.GradTape.trace": self._after_trace,
            "tensor.GradTape.run": self._after_run,
            "encoder.params_flat": self._after_params_flat,
            "weightspace.we_step": self._after_we_step,
        }.get(name)

        if name in ("encoder.DualEncoder.encode_images", "encoder.DualEncoder.encode_texts"):
            images = name.endswith("encode_images")

            @functools.wraps(fn)
            def forward(model, batch, *args, **kwargs):
                label = tracer._forward_context()
                if images and label == "encoder.forward[teacher]":
                    tracer.counts["teacher_rows"] += batch.shape[0]
                    tracer._task_teachers.add(id(model))
                idx = tracer.open(label)
                try:
                    return fn(model, batch, *args, **kwargs)
                finally:
                    tracer.close(idx)

            return forward

        if name == "runner.train_task":

            @functools.wraps(fn)
            def train_task(*args, **kwargs):
                task = kwargs.get("task", args[3] if len(args) > 3 else None)
                tracer._task_teachers = set()
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    if task is not None:
                        # rows each teacher would encode if it saw the task's training set once
                        tracer.counts["teacher_train_rows"] += len(tracer._task_teachers) * len(task.train_x)

            return train_task

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _batches_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def batches(*args, **kwargs):
            source = fn(*args, **kwargs)
            previous = None
            while True:
                idx = tracer.open(BATCH_NEXT)
                try:
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    now = tracer.close(idx)
                if previous is not None:
                    tracer.values["iter_gap_s"].append(now - previous)
                previous = now
                tracer.counts["iterations"] += 1
                yield item

        return batches

    # ------------------------------------------------------------ counters

    def _after_trace(self, args, tape) -> None:
        self.values["tape_nodes"].append(len(tape.nodes))

    def _after_run(self, args, result) -> None:
        holders = [node for node in args[0].nodes if node.grad is not None]
        self.values["grad_arrays"].append(len(holders))
        self.values["leaf_grads"].append(sum(1 for node in holders if node._backward is None))

    def _after_params_flat(self, args, result) -> None:
        self._last_flat = result

    def _after_we_step(self, args, averaged) -> None:
        if len(args) > 1 and args[1] is self._last_flat:
            self.counts["flattens_for_we_step"] += 1
        if averaged:
            self.counts["averagings"] += 1

    # ------------------------------------------------------------- results

    def stats(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        spans: dict[str, list] = {}
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            entry = spans.setdefault(self.names[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(spans.items())},
            "counts": dict(self.counts),
            "values": {k: list(v) for k, v in self.values.items()},
            "missing": list(self.missing),
        }

    def dump(self, path) -> None:
        """Write every span as [name index, start s, end s, parent index]."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        doc = {
            "names": list(index),
            "spans": [
                [index[name], start, end, parent]
                for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
