"""What the frozen benchmark's tracer (`perfbench/trace.py`) reaches in the
program: the targets it no longer finds, every op call it wraps, and
training that writes the same bytes traced and untraced."""

import sys
from pathlib import Path

from adsorbtext import autograd as ag
from adsorbtext import cli

sys.path.append(str(Path(__file__).resolve().parent.parent))  # perfbench
from perfbench.trace import AUTOGRAD_OPS, Tracer  # noqa: E402


def test_traced_training_sees_every_op_call_and_writes_the_same_checkpoint(tmp_path):
    corpus, vocab = tmp_path / "corpus.jsonl", tmp_path / "vocab.txt"
    assert cli.run(["featurize", "--in", str(cli.fixture_dataset_path()), "--out", str(corpus),
                    "--format", "s4"]) == cli.EXIT_OK
    assert cli.run(["build-vocab", "--in", str(corpus), "--out", str(vocab)]) == cli.EXIT_OK

    def train(name):
        ckpt = tmp_path / name
        assert cli.run(["train", "--corpus", str(corpus), "--vocab", str(vocab),
                        "--out", str(ckpt), "--layers", "1", "--heads", "2", "--hidden", "8",
                        "--max-positions", "64", "--epochs", "2", "--patience", "2",
                        "--lr", "1e-3", "--dropout", "0.1", "--dtype", "float32"]) == cli.EXIT_OK
        return ckpt.read_bytes()

    untraced = train("untraced.ckpt")
    before = ag.op_totals()
    with Tracer("test") as tracer:
        traced = train("traced.ckpt")
    after = ag.op_totals()
    assert traced == untraced
    assert tracer.missing == ["adsorbtext.autograd.absolute", "adsorbtext.autograd.mean"]
    spans = [span[0] for span in tracer.spans]
    traced_ops = [op for op in AUTOGRAD_OPS if op in after]
    assert {"add", "dropout", "gelu", "layer_norm"} <= {
        op for op in traced_ops if after[op][0] > before[op][0]}
    for op in traced_ops:
        assert spans.count(f"autograd.{op}") == after[op][0] - before[op][0], op
