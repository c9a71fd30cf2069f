"""Traced mode: spans around calls into each layer of the program.

Tracing wraps the program's public functions from outside, on the
module attribute the program calls through (`trainer.forward`, not only
`encoder.forward`), records one span per call (name, start, end, parent,
run id) in memory, and derives the per-layer metrics from the spans when
the traced round ends. A training step is a span of its own: it opens at
`EncoderModel.zero_grads` and closes when `trainer.adamw_step` returns.
Backward time per op lives in closures the program builds at run time,
so it is not visible from here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from adsorbtext import analysis, autograd, cli, encoder, featurize, pairs, trainer

LAYERS = ("cli", "systems", "featurize", "tokens", "encoder", "autograd",
          "trainer", "analysis", "pairs")

AUTOGRAD_OPS = ("add", "mul", "scale", "matmul", "transpose", "reshape", "take",
                "embedding", "softmax", "layer_norm", "tanh", "gelu", "absolute",
                "tensor_sum", "mean", "dropout", "cross_entropy", "l1_loss")
REPORTED_OPS = ("matmul", "gelu", "softmax", "layer_norm", "add", "embedding",
                "cross_entropy", "l1_loss")

# (module, attribute the program calls through, span name)
TARGETS = [
    (cli, "run", "cli.run"),
    (cli, "write_run_manifest", "cli.write_run_manifest"),
    (cli, "load_dataset", "systems.load_dataset"),
    (cli, "featurize_systems", "featurize.featurize_systems"),
    (featurize, "detect_configuration", "featurize.detect_configuration"),
    (featurize, "serialize", "featurize.serialize"),
    (cli, "write_corpus", "featurize.write_corpus"),
    (cli, "read_corpus", "featurize.read_corpus"),
    (cli, "build_vocab", "tokens.build_vocab"),
    (trainer, "encode", "tokens.encode"),
    (trainer, "dynamic_mask", "tokens.dynamic_mask"),
    (trainer, "mlm_logits", "encoder.mlm_logits"),
    (cli, "save_checkpoint", "encoder.save_checkpoint"),
    (cli, "load_checkpoint", "encoder.load_checkpoint"),
    (autograd, "backward", "autograd.backward"),
    *((autograd, op, f"autograd.{op}") for op in AUTOGRAD_OPS),
    (cli, "train_regression", "trainer.train_regression"),
    (cli, "pretrain_mlm", "trainer.pretrain_mlm"),
    (trainer, "predict_energies", "trainer.predict_energies"),
    (cli, "predict_energies", "trainer.predict_energies"),
    (analysis, "attention_profile", "analysis.attention_profile"),
    (pairs, "read_predictions", "pairs.read_predictions"),
    (pairs, "write_predictions", "pairs.write_predictions"),
    (pairs, "split_pair_stats", "pairs.split_pair_stats"),
    (pairs, "format_pairs_report", "pairs.format_pairs_report"),
]
FORWARD_TARGETS = [(trainer, "forward"), (encoder, "forward")]
STEP_PARTS = ("encoder.forward.train", "encoder.mlm_logits", "autograd.backward",
              "trainer.adamw_step")

NAME, START, END, PARENT = range(4)


class Tracer:
    """Installs the wrappers on entry and restores the program on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent id]; id = index
        self.missing: list[str] = []  # targets the program no longer has
        self.real_tokens = 0
        self.positions = 0
        self._stack: list[int] = []
        self._step: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.remove(sid)

    def _end_step(self) -> None:
        if self._step is not None:
            self._close(self._step)
            self._step = None

    def _wrap(self, fn, name, name_of=None, after=None):
        def traced(*args, **kwargs):
            sid = self._open(name if name_of is None else name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if after is not None:
                    after()
        traced.__wrapped__ = fn
        return traced

    def _count_tokens(self, args, kwargs) -> None:
        seqs = args[1] if len(args) > 1 else kwargs["seqs"]
        self.real_tokens += sum(int(s.attention_mask.sum()) for s in seqs)
        self.positions += len(seqs) * len(seqs[0])

    def _forward_name(self, args, kwargs) -> str:
        self._count_tokens(args, kwargs)
        if kwargs.get("capture_attention") or (len(args) > 2 and args[2]):
            return "encoder.forward.capture"
        parent = self.spans[self._stack[-1]][NAME] if self._stack else None
        return "encoder.forward.train" if parent == "trainer.step" else "encoder.forward.infer"

    def _mlm_name(self, args, kwargs) -> str:
        self._count_tokens(args, kwargs)
        return "encoder.mlm_logits"

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def __enter__(self) -> "Tracer":
        for module, attr, name in TARGETS:
            name_of = self._mlm_name if name == "encoder.mlm_logits" else None
            self._patch(module, attr, lambda fn, n=name, f=name_of: self._wrap(fn, n, f))
        for module, attr in FORWARD_TARGETS:
            self._patch(module, attr, lambda fn: self._wrap(fn, None, self._forward_name))
        self._patch(trainer, "adamw_step", lambda fn: self._wrap(
            fn, "trainer.adamw_step", after=self._end_step))

        def step_marker(fn):
            def zero_grads(model):
                self._end_step()
                self._step = self._open("trainer.step")
                return fn(model)
            return zero_grads
        self._patch(encoder.EncoderModel, "zero_grads", step_marker)
        return self

    def __exit__(self, *exc) -> None:
        self._end_step()
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -------------------------------------------------------------- output
    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "run_id"],
                       "spans": [[i, *s, self.run_id] for i, s in enumerate(self.spans)]},
                      fh)

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: the summed self time of its spans, a span's self time
        being its duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - inner
        return out

    def metrics(self, pretrain_epochs: int, overhead_s: float) -> dict[str, float]:
        spans = self.spans
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        step_of: list[int | None] = []
        step_ops: dict[str, float] = {}
        step_op_calls = 0
        step_self = 0.0
        validation = predict = 0.0
        for sid, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            step = sid if name == "trainer.step" else (
                step_of[parent] if parent is not None else None)
            step_of.append(step)
            if name == "trainer.step":
                step_self += dur
            elif step is not None and parent == step and name in STEP_PARTS:
                step_self -= dur
            if step is not None and name.startswith("autograd.") and name != "autograd.backward":
                step_ops[name] = step_ops.get(name, 0.0) + dur
                step_op_calls += 1
            if name == "trainer.predict_energies":
                in_training = parent is not None and spans[parent][NAME] == "trainer.train_regression"
                if in_training:
                    validation += dur
                else:
                    predict += dur

        def per(value, count, scale=1.0):
            return value * scale / count if count else 0.0

        def mean(name, scale):
            return per(total.get(name, 0.0), calls.get(name, 0), scale)

        steps = calls.get("trainer.adamw_step", 0)
        systems = calls.get("encoder.forward.capture", 0)
        m = {f"{layer}.self_s": t for layer, t in self.layer_self_times().items()}
        m.update({
            "cli.write_run_manifest_s": total.get("cli.write_run_manifest", 0.0),
            "systems.load_dataset_s": total.get("systems.load_dataset", 0.0),
            "featurize.detect_configuration_us_per_system":
                mean("featurize.detect_configuration", 1e6),
            "featurize.serialize_us_per_system": mean("featurize.serialize", 1e6),
            "featurize.write_corpus_s": total.get("featurize.write_corpus", 0.0),
            "featurize.read_corpus_s": total.get("featurize.read_corpus", 0.0),
            "tokens.encode_us_per_seq": mean("tokens.encode", 1e6),
            "tokens.build_vocab_s": total.get("tokens.build_vocab", 0.0),
            "tokens.dynamic_mask_ms_per_epoch":
                per(total.get("tokens.dynamic_mask", 0.0), pretrain_epochs, 1e3),
            "encoder.forward_train_ms_per_step": mean("encoder.forward.train", 1e3),
            "encoder.forward_infer_ms_per_batch": mean("encoder.forward.infer", 1e3),
            "encoder.forward_capture_ms_per_system": mean("encoder.forward.capture", 1e3),
            "encoder.mlm_logits_ms_per_step": mean("encoder.mlm_logits", 1e3),
            "encoder.real_token_fraction": per(self.real_tokens, self.positions),
            "encoder.save_checkpoint_s": total.get("encoder.save_checkpoint", 0.0),
            "encoder.load_checkpoint_s": total.get("encoder.load_checkpoint", 0.0),
            "autograd.backward_ms_per_step": per(total.get("autograd.backward", 0.0), steps, 1e3),
            **{f"autograd.{op}_fwd_ms_per_step": per(step_ops.get(f"autograd.{op}", 0.0), steps, 1e3)
               for op in REPORTED_OPS},
            "autograd.op_calls_per_step": per(step_op_calls, steps),
            "trainer.adamw_ms_per_step": mean("trainer.adamw_step", 1e3),
            "trainer.steps": float(steps),
            "trainer.validation_s": validation,
            "trainer.step_self_ms": per(step_self, steps, 1e3),
            "trainer.predict_energies_s": predict,
            "analysis.attention_profile_ms_per_system":
                per(total.get("analysis.attention_profile", 0.0), systems, 1e3),
            "pairs.read_predictions_s": total.get("pairs.read_predictions", 0.0),
            "pairs.split_pair_stats_s": total.get("pairs.split_pair_stats", 0.0),
            "pairs.format_pairs_report_s": total.get("pairs.format_pairs_report", 0.0),
            "trace.overhead_s": overhead_s,
        })
        return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_us_per_system", "us"), ("_us_per_seq", "us"),
                         ("_ms_per_step", "ms"), ("_ms_per_batch", "ms"),
                         ("_ms_per_system", "ms"), ("_ms_per_epoch", "ms"),
                         ("_ms", "ms"), ("_s", "s"), ("_fraction", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"
