"""Transformer encoder with a first-token regression head.

Learned absolute positional embeddings, multi-head self-attention,
position-wise GELU feed-forward blocks, and residual connections with
post-norm by default (pre-norm available per config). The regression
head is dense -> activation -> dense over the final-layer state at
position 0.

The stack runs on packed tokens: hidden states are (N, hidden), one row
per real token, the sequences' ids one after another (`_pack_batch`), so
projections, GELU and layer norms never see padding. `_encode` builds one
`autograd.AttentionLayout` per batch from the sequence lengths, and every
layer's `autograd.attention`, forward and backward, reuses it: the op
runs each length bucket on a grid padded only to that bucket's longest
sequence, with padded keys masked to -inf, so their weights and their
gradients are exactly zero. A bucket's smaller grid drops only trailing
exact zeros from the sums over keys and queries, and the results equal
those of one padded grid (bit for bit at the shipped 16 dimensions per
head; see `autograd`). Captured attention is laid back out on the full
(batch, heads, length, length) grid, length being the encoded length.

A loss that reads only some rows passes them to `_encode`. The last
layer still runs attention on every row, since its keys and values need
them all, and then keeps only those rows: its output projection,
residual add, feed-forward block and layer norms run on them alone (in
pre-norm the first layer norm feeds the queries and still sees every
row). `forward` reads every row; `mlm_logits` reads only the masked
positions, about 15 % of the tokens, and projects only those onto the
vocabulary.

Parameters live in two flat buffers per model, one for values and one
for gradients, in checkpoint order (see EncoderModel).

Checkpoints are a single file: magic, JSON manifest (config, vocabulary
hash, step, seed, tensor order) and the raw little-endian parameter blob.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .tokens import TokenSequence

CHECKPOINT_MAGIC = b"ADTXCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Corrupt, truncated or incompatible checkpoint file."""


@dataclass
class EncoderConfig:
    vocab_size: int
    n_layers: int = 4
    n_heads: int = 4
    hidden_size: int = 64
    ffn_size: int | None = None  # defaults to 4x hidden
    max_positions: int = 512
    dropout_rate: float = 0.1
    head_activation: str = "tanh"  # "tanh" | "gelu"
    pre_norm: bool = False
    dtype: str = "float64"  # float32 permitted for training speed

    def __post_init__(self):
        if self.hidden_size % self.n_heads:
            raise ValueError("hidden_size must be divisible by n_heads")
        if self.ffn_size is None:
            self.ffn_size = 4 * self.hidden_size
        if self.head_activation not in ("tanh", "gelu"):
            raise ValueError(f"unknown head activation {self.head_activation!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class EncoderModel:
    """A config and its named parameters, laid out in two flat buffers.

    Each parameter's data is a view into `data_buffer` and, once backward
    has written a gradient, its grad a view into `grad_buffer`, both in the
    order of `params` (the checkpoint order), so the optimizer and the
    checkpoint work on whole arrays. The part of `grad_buffer` under a
    parameter whose grad is None holds no meaningful values. `buffers()`
    lays both out again when a parameter was added, replaced or rebound.
    """

    config: EncoderConfig
    params: dict[str, Tensor]  # insertion order defines the checkpoint layout

    def __post_init__(self):
        self._pack()

    def _pack(self) -> None:
        tensors = list(self.params.values())
        data = np.empty(sum(p.data.size for p in tensors), dtype=self.config.np_dtype)
        grad = np.empty_like(data)  # a view is written before it is read, see grad_view
        start = 0
        for p in tensors:
            stop = start + p.data.size
            view = data[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data, p.grad_view = view, grad[start:stop].reshape(view.shape)
            if p.grad is not None:
                p.grad_view[...] = p.grad
                p.grad = p.grad_view
            start = stop
        self.data_buffer, self.grad_buffer = data, grad
        self._packed = [(p, p.data) for p in tensors]

    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat data and gradient buffers, in `params` order."""
        if len(self._packed) != len(self.params) or any(
                t is not p or p.data is not view
                or (p.grad is not None and p.grad is not p.grad_view)
                for (t, view), p in zip(self._packed, self.params.values())):
            self._pack()
        return self.data_buffer, self.grad_buffer

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def clone(self) -> "EncoderModel":
        return EncoderModel(  # packing copies the values into new buffers
            self.config,
            {n: Tensor(p.data, requires_grad=p.requires_grad) for n, p in self.params.items()},
        )

    def load_values(self, other: "EncoderModel",
                    skip_prefixes: tuple[str, ...] = ()) -> list[str]:
        """Copy parameter values by name; returns the names actually copied."""
        copied = []
        for name, p in other.params.items():
            if name in self.params and not any(name.startswith(s) for s in skip_prefixes):
                if self.params[name].data.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name}")
                self.params[name].data[...] = p.data  # into the view, cast to this dtype
                copied.append(name)
        return copied


def _layout(config: EncoderConfig) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Parameter name -> (initializer, shape), in checkpoint order."""
    h, f = config.hidden_size, config.ffn_size
    layout = {"tok_emb": ("normal", (config.vocab_size, h)),
              "pos_emb": ("normal", (config.max_positions, h))}
    for i in range(config.n_layers):
        pre = f"layer{i}."
        layout.update({pre + mat: ("normal", (h, h)) for mat in ("wq", "wk", "wv", "wo")})
        layout.update({pre + vec: ("zeros", (h,)) for vec in ("bq", "bk", "bv", "bo")})
        layout.update({pre + "ln1_g": ("ones", (h,)), pre + "ln1_b": ("zeros", (h,)),
                       pre + "w1": ("normal", (h, f)), pre + "b1": ("zeros", (f,)),
                       pre + "w2": ("normal", (f, h)), pre + "b2": ("zeros", (h,)),
                       pre + "ln2_g": ("ones", (h,)), pre + "ln2_b": ("zeros", (h,))})
    layout.update({"head.w1": ("normal", (h, h)), "head.b1": ("zeros", (h,)),
                   "head.w2": ("normal", (h, 1)), "head.b2": ("zeros", (1,))})
    return layout


def _mlm_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The optional masked-token head: bias always, projection when untied."""
    return {"mlm.bias": (config.vocab_size,),
            "mlm.w": (config.hidden_size, config.vocab_size)}


def init_model(config: EncoderConfig, seed: int = 0) -> EncoderModel:
    """Seeded N(0, 0.02) weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, (init, shape) in _layout(config).items():
        data = (rng.normal(0.0, 0.02, shape) if init == "normal"
                else np.full(shape, 1.0 if init == "ones" else 0.0))
        params[name] = Tensor(data.astype(config.np_dtype), requires_grad=True)
    return EncoderModel(config, params)


def ensure_mlm_head(model: EncoderModel, tied: bool = True, seed: int = 0) -> None:
    """Add the vocabulary projection used by masked-token pretraining."""
    dt = model.config.np_dtype
    shapes = _mlm_shapes(model.config)
    if "mlm.bias" not in model.params:
        model.params["mlm.bias"] = Tensor(np.zeros(shapes["mlm.bias"], dtype=dt),
                                          requires_grad=True)
    if not tied and "mlm.w" not in model.params:
        rng = np.random.default_rng(seed)
        model.params["mlm.w"] = Tensor(
            rng.normal(0.0, 0.02, shapes["mlm.w"]).astype(dt), requires_grad=True)


def scaled_dot_attention(q, k, v, mask=None) -> tuple[Tensor, Tensor]:
    """softmax(QK^T / sqrt(d_head) + mask) V over the last two axes.

    Works for single (L, d) matrices and batched (..., L, d) stacks; mask
    is an additive bias broadcast onto the score matrix (-inf blocks a key).
    The encoder runs the fused `autograd.attention`; this composition of
    elementary ops is the reference the tests hold it to.
    """
    q, k, v = ag._wrap(q), ag._wrap(k), ag._wrap(v)
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("Q/K/V shape mismatch")
    axes = list(range(k.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ag.scale(ag.matmul(q, ag.transpose(k, axes)), 1.0 / math.sqrt(q.data.shape[-1]))
    if mask is not None:
        scores = ag.add(scores, mask)
    weights = ag.softmax(scores, axis=-1)
    return ag.matmul(weights, v), weights


@dataclass
class AttentionRecord:
    """Per-layer, per-head attention matrices for one encoded sequence."""

    layers: list[np.ndarray]  # each (n_heads, L, L)
    n_real: int

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass
class ForwardResult:
    pooled: Tensor        # (B, hidden)
    energy: Tensor        # (B,)
    attention: list[np.ndarray] | None = None  # per layer (B, heads, L, L)

    def energies(self) -> np.ndarray:
        return self.energy.data

    def attention_record(self, b: int, n_real: int) -> AttentionRecord:
        if self.attention is None:
            raise ValueError("attention was not captured; pass capture_attention=True")
        return AttentionRecord([layer[b] for layer in self.attention], n_real)


def _pack_batch(
    model: EncoderModel,
    seqs: list[TokenSequence],
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The batch's ids packed one sequence after another, the sequences'
    real lengths and their longest encoded length, checked against the
    model."""
    cfg = model.config
    lengths = np.array([s.n_real for s in seqs], dtype=np.int64)
    if lengths.max() > cfg.max_positions:
        raise ValueError("sequence longer than max_positions")
    ids = np.concatenate([s.ids for s in seqs])
    if ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if train and rng is None:
        raise ValueError("training forward needs an rng for dropout")
    return ids, lengths, max(len(s) for s in seqs)


def _encode(
    model: EncoderModel,
    ids: np.ndarray,
    lengths: np.ndarray,
    length: int,
    capture_attention: bool,
    train: bool,
    rng: np.random.Generator | None,
    rows: np.ndarray | None = None,
) -> tuple[Tensor, ag.AttentionLayout, list[np.ndarray]]:
    """Shared encoder stack on packed tokens.

    ids are the packed ids of sequences of the given lengths, on a grid of
    `length` positions. Returns the final hidden states, the batch's
    attention layout and the captured attention. The states are (N, H),
    one row per id, or, when rows (distinct packed row indices) is given,
    (M, H) at those rows in that order: the last layer keeps them right
    after attention.
    """
    cfg = model.config
    p = model.params
    dt = cfg.np_dtype
    batch = lengths.size
    drop = cfg.dropout_rate if train else 0.0
    layout = ag.AttentionLayout(lengths, length)  # one per batch, shared by every layer
    positions = np.arange(ids.size) - np.repeat(layout.starts, lengths)

    x = ag.add(ag.embedding(p["tok_emb"], ids),
               ag.embedding(p["pos_emb"], positions))
    captured: list[np.ndarray] = []

    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        last_cut = rows is not None and i == cfg.n_layers - 1

        def cut(t: Tensor) -> Tensor:  # keep the rows the loss reads
            return ag.take(t, (rows,)) if last_cut else t

        def attention_block(inp: Tensor) -> Tensor:
            q = ag.linear(inp, p[pre + "wq"], p[pre + "bq"])
            k = ag.linear(inp, p[pre + "wk"], p[pre + "bk"])
            v = ag.linear(inp, p[pre + "wv"], p[pre + "bv"])
            keep = None
            if drop:  # drawn as ag.dropout draws its mask
                shape = (batch, cfg.n_heads, length, length)
                keep = (rng.random(shape) >= drop).astype(dt) / (1.0 - drop)
            ctx, weights = ag.attention(q, k, v, layout, cfg.n_heads, keep)
            if capture_attention:
                captured.append(layout.padded_weights(weights))
            return ag.linear(cut(ctx), p[pre + "wo"], p[pre + "bo"])

        def ffn_block(inp: Tensor) -> Tensor:
            hidden = ag.gelu(ag.linear(inp, p[pre + "w1"], p[pre + "b1"]))
            out = ag.linear(hidden, p[pre + "w2"], p[pre + "b2"])
            return ag.dropout(out, drop, rng) if drop else out

        if cfg.pre_norm:
            attended = attention_block(ag.layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"]))
            x = ag.add(cut(x), attended)
            x = ag.add(x, ffn_block(
                ag.layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])))
        else:
            attended = attention_block(x)
            x = ag.layer_norm(ag.add(cut(x), attended),
                              p[pre + "ln1_g"], p[pre + "ln1_b"])
            x = ag.layer_norm(ag.add(x, ffn_block(x)),
                              p[pre + "ln2_g"], p[pre + "ln2_b"])
    if rows is not None and not cfg.n_layers:
        x = ag.take(x, (rows,))
    return x, layout, captured


def forward(
    model: EncoderModel,
    seqs: list[TokenSequence],
    capture_attention: bool = False,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Run a batch through the encoder and the first-token regression head.

    Dropout (attention weights and feed-forward outputs) is active only
    when train=True, in which case rng must be provided. The head reads
    each sequence's first token. The grid is cut to the longest real
    sequence, since later positions are padding in every row; captured
    attention keeps the encoded (B, heads, L, L) shape.
    """
    cfg = model.config
    ids, lengths, length = _pack_batch(model, seqs, train, rng)
    if not capture_attention:
        length = int(lengths.max())

    x, layout, captured = _encode(model, ids, lengths, length, capture_attention, train, rng)
    p = model.params
    batch = lengths.size
    pooled = ag.take(x, (layout.starts,))
    act = ag.tanh if cfg.head_activation == "tanh" else ag.gelu
    hidden = act(ag.linear(pooled, p["head.w1"], p["head.b1"]))
    energy = ag.reshape(ag.linear(hidden, p["head.w2"], p["head.b2"]), (batch,))
    return ForwardResult(pooled=pooled, energy=energy,
                         attention=captured if capture_attention else None)


def mlm_logits(
    model: EncoderModel,
    seqs: list[TokenSequence],
    positions: tuple[np.ndarray, np.ndarray],
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Vocabulary logits (M, V) at M (sequence index, position) pairs.

    positions is a pair of integer arrays (sequence index into seqs,
    position in that sequence); row m of the result belongs to pair m.
    Each pair must name a distinct real token. Projects with the
    transposed token-embedding table (tied) unless an untied "mlm.w"
    parameter exists; "mlm.bias" is always added.
    """
    p = model.params
    if "mlm.bias" not in p:
        raise ValueError("model has no MLM head; call ensure_mlm_head first")
    ids, lengths, length = _pack_batch(model, seqs, train, rng)
    seq_index, pos = (np.asarray(a, dtype=np.int64).reshape(-1) for a in positions)
    if seq_index.shape != pos.shape:
        raise ValueError("positions: sequence indices and positions differ in length")
    batch = lengths.size
    outside = (seq_index < 0) | (seq_index >= batch) | (pos < 0) | (pos >= length)
    bad = np.flatnonzero(outside | (lengths[np.where(outside, 0, seq_index)] <= pos))
    if bad.size:
        b, at = seq_index[bad[0]], pos[bad[0]]
        what = "out of range" if outside[bad[0]] else "padded"
        raise ValueError(f"batch row {b} position {at} is {what}")
    rows = (np.cumsum(lengths) - lengths)[seq_index] + pos  # packed, as in the layout
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    if (counts > 1).any():
        m = first[np.argmax(counts > 1)]
        raise ValueError(f"batch row {seq_index[m]} position {pos[m]} is repeated")
    x, _, _ = _encode(model, ids, lengths, length, False, train, rng, rows)
    w = p["mlm.w"] if "mlm.w" in p else ag.transpose(p["tok_emb"], (1, 0))
    return ag.linear(x, w, p["mlm.bias"])


def save_checkpoint(
    model: EncoderModel,
    path: str | Path,
    vocab_sha256: str | None = None,
    step: int = 0,
    seed: int = 0,
) -> None:
    names = list(model.params)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab_sha256": vocab_sha256,
        "step": int(step),
        "seed": int(seed),
        "params": [
            {"name": n, "shape": list(model.params[n].data.shape)} for n in names
        ],
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    wire_dtype = "<f8" if model.config.dtype == "float64" else "<f4"
    data, _ = model.buffers()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(data.astype(wire_dtype, copy=False).tobytes())


def _read_header(path: str | Path) -> tuple[dict, int]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError(f"{path}: truncated header")
        (header_len,) = struct.unpack("<I", raw_len)
        header = fh.read(header_len)
        if len(header) != header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt manifest ({exc})") from None
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')}")
    return manifest, len(CHECKPOINT_MAGIC) + 4 + header_len


def _check_layout(path, config: EncoderConfig, entries) -> None:
    """Names and shapes must be those init_model(config) makes, plus the
    optional MLM head, each once."""
    required = {name: shape for name, (_, shape) in _layout(config).items()}
    allowed = {**required, **_mlm_shapes(config)}
    seen = set()
    for name, shape in entries:
        if name not in allowed:
            raise CheckpointError(f"{path}: tensor {name!r} is not in the layout "
                                  "its config implies")
        if name in seen:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        if shape != allowed[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {list(shape)}, "
                                  f"its config implies {list(allowed[name])}")
        seen.add(name)
    missing = [name for name in required if name not in seen]
    if missing:
        raise CheckpointError(f"{path}: tensor {missing[0]!r} is missing")


def load_checkpoint(
    path: str | Path, expected_vocab_sha256: str | None = None
) -> tuple[EncoderModel, dict]:
    """Bit-exact inverse of save_checkpoint; warns on vocabulary-hash mismatch."""
    manifest, offset = _read_header(path)
    try:
        config = EncoderConfig(**manifest["config"])
    except TypeError as exc:  # an unknown or a missing config key
        raise CheckpointError(f"{path}: config does not fit EncoderConfig ({exc})") from None
    wire_dtype = "<f8" if config.dtype == "float64" else "<f4"
    itemsize = 8 if config.dtype == "float64" else 4
    if (
        expected_vocab_sha256 is not None
        and manifest["vocab_sha256"] is not None
        and manifest["vocab_sha256"] != expected_vocab_sha256
    ):
        warnings.warn(
            f"{path}: checkpoint was saved with a different vocabulary "
            f"({manifest['vocab_sha256'][:12]}... != {expected_vocab_sha256[:12]}...)",
            stacklevel=2,
        )
    entries = []
    for index, entry in enumerate(manifest["params"]):
        try:
            entries.append((entry["name"], tuple(entry["shape"])))
        except KeyError as exc:
            raise CheckpointError(
                f"{path}: manifest params[{index}] has no key {exc}") from None
    _check_layout(path, config, entries)
    params: dict[str, Tensor] = {}
    with open(path, "rb") as fh:
        fh.seek(offset)
        for name, shape in entries:
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * itemsize)
            if len(buf) != count * itemsize:
                raise CheckpointError(f"{path}: truncated blob at {name}")
            params[name] = Tensor(np.frombuffer(buf, dtype=wire_dtype).reshape(shape),
                                  requires_grad=True)  # EncoderModel copies it into its buffer
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after parameter blob")
    return EncoderModel(config, params), manifest
