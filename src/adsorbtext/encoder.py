"""Transformer encoder with a first-token regression head.

Learned absolute positional embeddings, multi-head self-attention,
position-wise GELU feed-forward blocks, and residual connections with
post-norm by default (pre-norm available per config). The regression
head is dense -> activation -> dense over the final-layer state at
position 0.

The stack runs on packed tokens: hidden states are (N, hidden), one row
per real token, the sequences' ids one after another (`_pack_batch`), so
projections, GELU and layer norms never see padding. `_pack_batch` builds
the batch's one `autograd.AttentionLayout` from the real lengths, and
every layer's `autograd.attention`, forward and backward, reuses it: the op
runs each length bucket on a grid padded only to that bucket's longest
sequence, with padded keys masked to -inf, so their weights and their
gradients are exactly zero. A bucket's smaller grid drops only trailing
exact zeros from the sums over keys and queries, and the results equal
those of one padded grid (bit for bit at the shipped 16 dimensions per
head; see `autograd`). Captured attention stays in those buckets: a
sequence's record is its real block, cut from its bucket. Only
`ForwardResult.attention` reads the encoded length: on first read it lays
each record out on a (heads, length, length) grid, with exact zeros on
padded keys and 1/n on the n real keys of each padded query row.

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
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .systems import is_count, is_real
from .tokens import TokenSequence, Vocabulary

CHECKPOINT_MAGIC = b"ADTXCKPT"
CHECKPOINT_VERSION = 1
HEAD_ACTIVATIONS = ("tanh", "gelu")
DTYPES = ("float64", "float32")


class CheckpointError(RuntimeError):
    """Corrupt, truncated or incompatible checkpoint file."""


class ConfigError(ValueError):
    """A config field holds a value the model or the run cannot use."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field


def check_fields(config, *rules: tuple[str, bool, str]) -> None:
    """Raise ConfigError on the first (field, holds, requirement) rule
    that does not hold."""
    for name, holds, requirement in rules:
        if not holds:
            raise ConfigError(name, f"must be {requirement}, got {getattr(config, name)!r}")


@dataclass
class EncoderConfig:
    vocab_size: int
    n_layers: int = 4
    n_heads: int = 4
    hidden_size: int = 64
    ffn_size: int | None = None  # defaults to 4x hidden
    max_positions: int = 512
    dropout_rate: float = 0.1
    head_activation: str = "tanh"  # one of HEAD_ACTIVATIONS
    pre_norm: bool = False
    dtype: str = "float64"  # one of DTYPES; float32 permitted for training speed

    def __post_init__(self):
        check_fields(  # types first: the range rules below compare values
            self,
            *((f, is_count(getattr(self, f)), "an integer") for f in (
                "vocab_size", "n_layers", "n_heads", "hidden_size", "max_positions")),
            ("ffn_size", self.ffn_size is None or is_count(self.ffn_size), "an integer or None"),
            ("dropout_rate", is_real(self.dropout_rate), "a real number"),
            ("pre_norm", isinstance(self.pre_norm, bool), "a bool"),
            *((f, isinstance(getattr(self, f), str), "a string")
              for f in ("head_activation", "dtype")),
        )
        for f in ("vocab_size", "n_layers", "n_heads", "hidden_size", "ffn_size",
                  "max_positions", "dropout_rate"):
            if isinstance(getattr(self, f), np.generic):  # as Python numbers, which JSON takes
                setattr(self, f, getattr(self, f).item())
        if self.ffn_size is None:
            self.ffn_size = 4 * self.hidden_size
        check_fields(
            self,
            ("n_layers", self.n_layers >= 0, ">= 0"),
            ("n_heads", self.n_heads >= 1, ">= 1"),
            ("hidden_size", self.hidden_size >= 1, ">= 1"),
            ("hidden_size", self.n_heads < 1 or self.hidden_size % self.n_heads == 0,
             f"divisible by n_heads ({self.n_heads})"),
            ("ffn_size", self.ffn_size >= 1, ">= 1"),
            ("max_positions", self.max_positions >= 2, ">= 2 (room for <s> and </s>)"),
            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "in [0, 1)"),
            *((f, getattr(self, f) in allowed, " or ".join(map(repr, allowed)))
              for f, allowed in (("head_activation", HEAD_ACTIVATIONS), ("dtype", DTYPES))),
        )

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class EncoderModel:
    """A config and its named parameters, laid out in two flat buffers.

    Each parameter's data is a view into `data_buffer` and its `grad_view`
    the same place in `grad_buffer`, in `params` (checkpoint) order;
    `offsets` maps each name to its (start, stop) in both. The layout is
    fixed when the model is built; only `ensure_mlm_head`, which adds
    parameters, lays it out again. Under a parameter whose grad is None,
    `grad_buffer` holds no meaningful values. Write values into the views:
    a rebound tensor still runs through `forward`, `backward` and
    `save_checkpoint`, but `trainer.adamw_step` refuses the model.
    """

    config: EncoderConfig
    params: dict[str, Tensor]  # insertion order defines the checkpoint layout

    def __post_init__(self):
        self._pack()

    def _pack(self) -> None:
        """Copy every parameter into new buffers; drops every gradient."""
        tensors = list(self.params.values())
        data = np.empty(sum(p.data.size for p in tensors), dtype=self.config.np_dtype)
        grad = np.empty_like(data)  # a view is written before it is read, see grad_view
        offsets, start = {}, 0
        for name, p in self.params.items():
            stop = start + p.data.size
            view = data[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data, p.grad_view, p.grad = view, grad[start:stop].reshape(view.shape), None
            offsets[name], start = (start, stop), stop
        self.data_buffer, self.grad_buffer, self.offsets = data, grad, offsets

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
    """Add the vocabulary projection used by masked-token pretraining and lay
    the model out again: call it before the first optimizer step."""
    dt = model.config.np_dtype
    shapes = _mlm_shapes(model.config)
    if "mlm.bias" not in model.params:
        model.params["mlm.bias"] = Tensor(np.zeros(shapes["mlm.bias"], dtype=dt),
                                          requires_grad=True)
    if not tied and "mlm.w" not in model.params:
        rng = np.random.default_rng(seed)
        model.params["mlm.w"] = Tensor(
            rng.normal(0.0, 0.02, shapes["mlm.w"]).astype(dt), requires_grad=True)
    model._pack()


@dataclass
class AttentionRecord:
    """Per-layer, per-head attention matrices over one sequence's real tokens."""

    layers: list[np.ndarray]  # each (n_heads, n_real, n_real), C-contiguous
    n_real: int

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass
class ForwardResult:
    pooled: Tensor        # (B, hidden)
    energy: Tensor        # (B,)
    layout: ag.AttentionLayout
    length: int           # the batch's encoded length
    # per layer, each bucket's (n_b, heads, query, key) weights; None unless captured
    weights: list[list[np.ndarray]] | None = None

    def energies(self) -> np.ndarray:
        return self.energy.data

    @cached_property
    def attention(self) -> list[np.ndarray] | None:
        """Per layer (B, heads, L, L) at the encoded length L, laid out on
        first read from the records: 0 on padded keys and, as the op gives
        a padded query inside its bucket, 1/n on each of the n real keys."""
        if self.weights is None:
            return None
        heads, dtype = self.weights[0][0].shape[1], self.weights[0][0].dtype
        shape = (self.layout.lengths.size, heads, self.length, self.length)
        grids = [np.zeros(shape, dtype) for _ in self.weights]
        for b, n in enumerate(self.layout.lengths.tolist()):
            for grid, block in zip(grids, self.attention_record(b, n).layers):
                grid[b, :, :n, :n] = block
                grid[b, :, n:, :n] = np.divide(1, dtype.type(n))
        return grids

    def attention_record(self, b: int, n_real: int) -> AttentionRecord:
        """Sequence b's (heads, n_real, n_real) block of every layer, copied
        from its bucket."""
        if self.weights is None:
            raise ValueError("attention was not captured; pass capture_attention=True")
        b = range(self.layout.lengths.size)[b]  # IndexError when out of range
        if n_real > self.layout.lengths[b]:
            raise ValueError(f"sequence {b} has {self.layout.lengths[b]} real tokens, "
                             f"not {n_real}")
        bucket, slot = next((i, np.flatnonzero(seqs == b)[0])
                            for i, (seqs, *_) in enumerate(self.layout.buckets) if b in seqs)
        return AttentionRecord([w[bucket][slot, :, :n_real, :n_real].copy()
                                for w in self.weights], n_real)


def _pack_batch(
    model: EncoderModel,
    seqs: list[TokenSequence],
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, ag.AttentionLayout, int]:
    """The batch's ids packed one sequence after another, checked against
    the model, the batch's one attention layout, built from the real
    lengths, and the sequences' longest encoded length."""
    cfg = model.config
    lengths = np.array([s.n_real for s in seqs], dtype=np.int64)
    if lengths.max() > cfg.max_positions:
        raise ValueError("sequence longer than max_positions")
    ids = np.concatenate([s.ids for s in seqs])
    if ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if train and rng is None:
        raise ValueError("training forward needs an rng for dropout")
    return ids, ag.AttentionLayout(lengths), max(len(s) for s in seqs)


def _encode(
    model: EncoderModel,
    ids: np.ndarray,
    layout: ag.AttentionLayout,
    capture_attention: bool,
    train: bool,
    rng: np.random.Generator | None,
    rows: np.ndarray | None = None,
) -> tuple[Tensor, list[list[np.ndarray]]]:
    """Shared encoder stack on packed tokens.

    ids are the packed ids the layout places; every layer's attention
    reuses it, and the dropout keep mask takes its side, the longest real
    length, whatever length the batch was encoded to. Returns the final
    hidden states and, when capturing, each layer's bucket weights from
    `autograd.attention` (else no layers). The states
    are (N, H), one row per id, or, when rows (distinct packed row
    indices) is given, (M, H) at those rows in that order: the last layer
    keeps them right after attention.
    """
    cfg = model.config
    p = model.params
    dt = cfg.np_dtype
    drop = cfg.dropout_rate if train else 0.0
    positions = np.arange(ids.size) - np.repeat(layout.starts, layout.lengths)

    x = ag.add(ag.embedding(p["tok_emb"], ids),
               ag.embedding(p["pos_emb"], positions))
    captured: list[list[np.ndarray]] = []

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
                shape = (layout.lengths.size, cfg.n_heads, layout.side, layout.side)
                keep = (rng.random(shape) >= drop).astype(dt) / (1.0 - drop)
            ctx, weights = ag.attention(q, k, v, layout, cfg.n_heads, keep)
            if capture_attention:
                captured.append(weights)
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
    return x, captured


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
    each sequence's first token. With capture_attention the result keeps
    each layer's bucket weights, from which `ForwardResult.attention_record`
    cuts a sequence's block and `ForwardResult.attention` lays out the
    encoded (B, heads, L, L) grid.
    """
    cfg = model.config
    ids, layout, length = _pack_batch(model, seqs, train, rng)
    x, captured = _encode(model, ids, layout, capture_attention, train, rng)
    p = model.params
    batch = layout.lengths.size
    pooled = ag.take(x, (layout.starts,))
    act = ag.tanh if cfg.head_activation == "tanh" else ag.gelu
    hidden = act(ag.linear(pooled, p["head.w1"], p["head.b1"]))
    energy = ag.reshape(ag.linear(hidden, p["head.w2"], p["head.b2"]), (batch,))
    return ForwardResult(pooled=pooled, energy=energy, layout=layout, length=length,
                         weights=captured if capture_attention else None)


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
    ids, layout, length = _pack_batch(model, seqs, train, rng)
    lengths = layout.lengths
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
    rows = layout.starts[seq_index] + pos
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    if (counts > 1).any():
        m = first[np.argmax(counts > 1)]
        raise ValueError(f"batch row {seq_index[m]} position {pos[m]} is repeated")
    x, _ = _encode(model, ids, layout, False, train, rng, rows)
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
    dtype = np.dtype(model.config.np_dtype).newbyteorder("<")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for n in names:  # each tensor's own data, so a rebound one is saved as it is
            fh.write(model.params[n].data.astype(dtype, copy=False).tobytes())


def _read_header(path: str | Path, raw: bytes) -> tuple[dict, int]:
    """The manifest of the checkpoint bytes raw and where its blob starts."""
    start = len(CHECKPOINT_MAGIC) + 4
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < start:
        raise CheckpointError(f"{path}: truncated header")
    (header_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    if len(raw) < start + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        manifest = json.loads(raw[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')}")
    missing = [key for key in ("config", "params", "vocab_sha256") if key not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest has no key {missing[0]!r}")
    if not (manifest["vocab_sha256"] is None or isinstance(manifest["vocab_sha256"], str)):
        raise CheckpointError(f"{path}: manifest vocab_sha256 must be a string or null, "
                              f"got {manifest['vocab_sha256']!r}")
    return manifest, start + header_len


def _param_entries(path, params) -> list[tuple[str, tuple[int, ...]]]:
    """The manifest's (name, shape) entries, each checked for its types."""
    if not isinstance(params, list):
        raise CheckpointError(f"{path}: manifest params must be a list, got {params!r}")
    entries = []
    for index, entry in enumerate(params):
        where = f"{path}: manifest params[{index}]"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{where} is not an object")
        for key in ("name", "shape"):
            if key not in entry:
                raise CheckpointError(f"{where} has no key {key!r}")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise CheckpointError(f"{where} name must be a string, got {name!r}")
        if not (isinstance(shape, list) and all(is_count(d) and d >= 0 for d in shape)):
            raise CheckpointError(f"{where} shape must be a list of sizes, got {shape!r}")
        entries.append((name, tuple(shape)))
    return entries


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
    path: str | Path, vocab: Vocabulary | None = None
) -> tuple[EncoderModel, dict]:
    """Bit-exact inverse of save_checkpoint. Given the vocabulary the caller
    encodes with, refuses a checkpoint built on another one, before any tensor
    is built: a recorded vocab_sha256 other than vocab's, or a vocab_size
    other than len(vocab). Its token embedding rows would be read as other
    tokens, even at equal size."""
    raw = Path(path).read_bytes()
    manifest, offset = _read_header(path, raw)
    try:
        config = EncoderConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:  # a missing, unknown or invalid config key
        raise CheckpointError(f"{path}: config does not fit EncoderConfig ({exc})") from None
    recorded = manifest["vocab_sha256"]
    if vocab is not None and (recorded not in (None, vocab.sha256)
                              or config.vocab_size != len(vocab)):
        raise CheckpointError(f"{path}: built on another vocabulary ({config.vocab_size} "
                              f"tokens, sha256 {str(recorded)[:12]}) than the one given "
                              f"({len(vocab)} tokens, sha256 {vocab.sha256[:12]})")
    entries = _param_entries(path, manifest["params"])
    _check_layout(path, config, entries)
    model = EncoderModel(config, {name: Tensor(np.empty(shape, dtype=config.np_dtype),
                                               requires_grad=True) for name, shape in entries})
    data, blob = model.data_buffer, memoryview(raw)[offset:]
    if len(blob) < data.nbytes:
        cut = next(n for n, (_, stop) in model.offsets.items() if stop * data.itemsize > len(blob))
        raise CheckpointError(f"{path}: truncated blob at {cut}")
    if len(blob) > data.nbytes:
        raise CheckpointError(f"{path}: trailing bytes after parameter blob")
    data[...] = np.frombuffer(blob, dtype=data.dtype.newbyteorder("<"))
    return model, manifest
