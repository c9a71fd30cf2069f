"""Transformer encoder with a first-token regression head.

Learned absolute positional embeddings, multi-head self-attention,
position-wise GELU feed-forward blocks, and residual connections with
post-norm by default (pre-norm available per config). The regression
head is dense -> activation -> dense over the final-layer state at
position 0. Padded key positions are masked to -inf before the attention
softmax, so their weights and their gradients are exactly zero.

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

# Full-scale reference configuration (12 layers / 12 heads / 768 hidden);
# the desk-scale defaults below run the whole suite in minutes on a CPU.
PAPER_SCALE = {"n_layers": 12, "n_heads": 12, "hidden_size": 768}


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
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class EncoderModel:
    config: EncoderConfig
    params: dict[str, Tensor]  # insertion order defines the checkpoint layout

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def clone(self) -> "EncoderModel":
        return EncoderModel(
            self.config,
            {n: Tensor(p.data.copy(), requires_grad=p.requires_grad)
             for n, p in self.params.items()},
        )

    def load_values(self, other: "EncoderModel",
                    skip_prefixes: tuple[str, ...] = ()) -> list[str]:
        """Copy parameter values by name; returns the names actually copied."""
        copied = []
        for name, p in other.params.items():
            if name in self.params and not any(name.startswith(s) for s in skip_prefixes):
                if self.params[name].data.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name}")
                self.params[name].data = p.data.astype(self.config.np_dtype).copy()
                copied.append(name)
        return copied


def init_model(config: EncoderConfig, seed: int = 0) -> EncoderModel:
    """Seeded N(0, 0.02) weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    params: dict[str, Tensor] = {}

    def weight(name, *shape):
        params[name] = Tensor(rng.normal(0.0, 0.02, shape).astype(dt), requires_grad=True)

    def zeros(name, *shape):
        params[name] = Tensor(np.zeros(shape, dtype=dt), requires_grad=True)

    def ones(name, *shape):
        params[name] = Tensor(np.ones(shape, dtype=dt), requires_grad=True)

    h, f = config.hidden_size, config.ffn_size
    weight("tok_emb", config.vocab_size, h)
    weight("pos_emb", config.max_positions, h)
    for i in range(config.n_layers):
        pre = f"layer{i}."
        for mat in ("wq", "wk", "wv", "wo"):
            weight(pre + mat, h, h)
        for vec in ("bq", "bk", "bv", "bo"):
            zeros(pre + vec, h)
        ones(pre + "ln1_g", h)
        zeros(pre + "ln1_b", h)
        weight(pre + "w1", h, f)
        zeros(pre + "b1", f)
        weight(pre + "w2", f, h)
        zeros(pre + "b2", h)
        ones(pre + "ln2_g", h)
        zeros(pre + "ln2_b", h)
    weight("head.w1", h, h)
    zeros("head.b1", h)
    weight("head.w2", h, 1)
    zeros("head.b2", 1)
    return EncoderModel(config, params)


def ensure_mlm_head(model: EncoderModel, tied: bool = True, seed: int = 0) -> None:
    """Add the vocabulary projection used by masked-token pretraining."""
    dt = model.config.np_dtype
    if "mlm.bias" not in model.params:
        model.params["mlm.bias"] = Tensor(
            np.zeros(model.config.vocab_size, dtype=dt), requires_grad=True)
    if not tied and "mlm.w" not in model.params:
        rng = np.random.default_rng(seed)
        model.params["mlm.w"] = Tensor(
            rng.normal(0.0, 0.02,
                       (model.config.hidden_size, model.config.vocab_size)).astype(dt),
            requires_grad=True)


def _attention_weights(q: Tensor, k: Tensor, mask) -> Tensor:
    d_head = q.data.shape[-1]
    axes = list(range(k.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ag.scale(ag.matmul(q, ag.transpose(k, axes)), 1.0 / math.sqrt(d_head))
    if mask is not None:
        scores = ag.add(scores, mask)
    return ag.softmax(scores, axis=-1)


def scaled_dot_attention(q, k, v, mask=None) -> tuple[Tensor, Tensor]:
    """softmax(QK^T / sqrt(d_head) + mask) V over the last two axes.

    Works for single (L, d) matrices and batched (..., L, d) stacks; mask
    is an additive bias broadcast onto the score matrix (-inf blocks a key).
    """
    q, k, v = ag._wrap(q), ag._wrap(k), ag._wrap(v)
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("Q/K/V shape mismatch")
    weights = _attention_weights(q, k, mask)
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


def _stack_batch(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.stack([s.ids for s in seqs])
    mask = np.stack([s.attention_mask for s in seqs])
    return ids, mask


def _encode(
    model: EncoderModel,
    ids: np.ndarray,
    mask: np.ndarray,
    capture_attention: bool,
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[Tensor, list[np.ndarray]]:
    """Shared encoder stack; returns final hidden states (B, L, H)."""
    cfg = model.config
    p = model.params
    batch, length = ids.shape
    drop = cfg.dropout_rate if train else 0.0

    # -inf on padded keys makes their softmax weight exactly zero
    key_bias = np.where(mask == 1, 0.0, -np.inf).astype(cfg.np_dtype)[:, None, None, :]

    x = ag.add(ag.embedding(p["tok_emb"], ids),
               ag.take(p["pos_emb"], slice(0, length)))
    captured: list[np.ndarray] = []

    def heads(t: Tensor) -> Tensor:
        t = ag.reshape(t, (batch, length, cfg.n_heads, cfg.head_dim))
        return ag.transpose(t, (0, 2, 1, 3))

    for i in range(cfg.n_layers):
        pre = f"layer{i}."

        def attention_block(inp: Tensor) -> Tensor:
            q = heads(ag.add(ag.matmul(inp, p[pre + "wq"]), p[pre + "bq"]))
            k = heads(ag.add(ag.matmul(inp, p[pre + "wk"]), p[pre + "bk"]))
            v = heads(ag.add(ag.matmul(inp, p[pre + "wv"]), p[pre + "bv"]))
            weights = _attention_weights(q, k, key_bias)
            if capture_attention:
                captured.append(weights.data.copy())
            if drop:
                weights = ag.dropout(weights, drop, rng)
            ctx = ag.matmul(weights, v)
            ctx = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)),
                             (batch, length, cfg.hidden_size))
            return ag.add(ag.matmul(ctx, p[pre + "wo"]), p[pre + "bo"])

        def ffn_block(inp: Tensor) -> Tensor:
            hidden = ag.gelu(ag.add(ag.matmul(inp, p[pre + "w1"]), p[pre + "b1"]))
            out = ag.add(ag.matmul(hidden, p[pre + "w2"]), p[pre + "b2"])
            return ag.dropout(out, drop, rng) if drop else out

        if cfg.pre_norm:
            x = ag.add(x, attention_block(
                ag.layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])))
            x = ag.add(x, ffn_block(
                ag.layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])))
        else:
            x = ag.layer_norm(ag.add(x, attention_block(x)),
                              p[pre + "ln1_g"], p[pre + "ln1_b"])
            x = ag.layer_norm(ag.add(x, ffn_block(x)),
                              p[pre + "ln2_g"], p[pre + "ln2_b"])
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
    when train=True, in which case rng must be provided. The batch is cut
    to its longest real sequence, since later positions are padding in
    every row and masked keys never reach a real position; captured
    attention keeps the full padded (B, heads, L, L) shape.
    """
    cfg = model.config
    ids, mask = _stack_batch(seqs)
    if ids.shape[1] > cfg.max_positions:
        raise ValueError("sequence longer than max_positions")
    if ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if train and rng is None:
        raise ValueError("training forward needs an rng for dropout")
    if not capture_attention:
        real = np.flatnonzero(mask.any(axis=0))
        if real.size:
            ids, mask = ids[:, :real[-1] + 1], mask[:, :real[-1] + 1]

    x, captured = _encode(model, ids, mask, capture_attention, train, rng)
    p = model.params
    pooled = ag.take(x, (slice(None), 0))
    act = ag.tanh if cfg.head_activation == "tanh" else ag.gelu
    hidden = act(ag.add(ag.matmul(pooled, p["head.w1"]), p["head.b1"]))
    energy = ag.reshape(ag.add(ag.matmul(hidden, p["head.w2"]), p["head.b2"]),
                        (ids.shape[0],))
    return ForwardResult(pooled=pooled, energy=energy,
                         attention=captured if capture_attention else None)


def mlm_logits(
    model: EncoderModel,
    seqs: list[TokenSequence],
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Vocabulary logits at every position, (B, L, V).

    Projects with the transposed token-embedding table (tied) unless an
    untied "mlm.w" parameter exists; "mlm.bias" is always added.
    """
    p = model.params
    if "mlm.bias" not in p:
        raise ValueError("model has no MLM head; call ensure_mlm_head first")
    ids, mask = _stack_batch(seqs)
    x, _ = _encode(model, ids, mask, False, train, rng)
    if "mlm.w" in p:
        return ag.add(ag.matmul(x, p["mlm.w"]), p["mlm.bias"])
    return ag.add(ag.matmul(x, ag.transpose(p["tok_emb"], (1, 0))), p["mlm.bias"])


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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data,
                                          dtype=wire_dtype).tobytes())


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
    params: dict[str, Tensor] = {}
    with open(path, "rb") as fh:
        fh.seek(offset)
        for index, entry in enumerate(manifest["params"]):
            try:
                name, shape = entry["name"], tuple(entry["shape"])
            except KeyError as exc:
                raise CheckpointError(
                    f"{path}: manifest params[{index}] has no key {exc}") from None
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * itemsize)
            if len(buf) != count * itemsize:
                raise CheckpointError(f"{path}: truncated blob at {name}")
            data = np.frombuffer(buf, dtype=wire_dtype).reshape(shape).astype(
                config.np_dtype)
            params[name] = Tensor(data.copy(), requires_grad=True)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after parameter blob")
    return EncoderModel(config, params), manifest
