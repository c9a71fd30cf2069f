"""Word-level vocabulary, encoding and dynamic masking.

Tokens are whitespace-delimited words with the sequence markers and the
closed punctuation set { <s> </s> [ ] ( ) , } isolated as standalone
tokens. The string grammars have a small closed vocabulary (element
symbols, digits, site names, brackets), so subword methods are
unnecessary; multi-token surface words only arise in description text
where punctuation splits a word.

An encoded sequence keeps the ids of its real tokens and the length it
was encoded to (CatBERTa pads every text to one length); the padding
itself is never stored, and the encoder packs the ids as they are.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

SPECIALS = ("<s>", "</s>", "<pad>", "<unk>", "<mask>")
BOS, EOS, PAD, UNK, MASK = range(5)
N_SPECIALS = len(SPECIALS)

_SPLIT_RE = re.compile(r"(<s>|</s>|\[|\]|\(|\)|,)")
_MARKER_RE = re.compile(r"(<s>|</s>)")


def tokenize(text: str) -> list[str]:
    """Split into word tokens with markers and punctuation isolated."""
    out: list[str] = []
    for chunk in text.split():
        out.extend(p for p in _SPLIT_RE.split(chunk) if p)
    return out


def tokenize_words(text: str) -> list[tuple[str, list[str]]]:
    """Surface words paired with their token pieces.

    A surface word is a whitespace chunk with any embedded <s>/</s>
    markers split off as words of their own; punctuation splitting below
    the word level is what makes some words span several tokens.
    """
    words: list[tuple[str, list[str]]] = []
    for chunk in text.split():
        for piece in _MARKER_RE.split(chunk):
            if not piece:
                continue
            if piece in ("<s>", "</s>"):
                words.append((piece, [piece]))
            else:
                words.append((piece, [p for p in _SPLIT_RE.split(piece) if p]))
    return words


class Vocabulary:
    """Dense token<->id mapping; ids 0-4 are the special tokens."""

    def __init__(self, id_to_token: list[str]):
        if tuple(id_to_token[:N_SPECIALS]) != SPECIALS:
            raise ValueError("vocabulary must start with the five special tokens")
        if len(set(id_to_token)) != len(id_to_token):
            raise ValueError("duplicate token in vocabulary")
        self.id_to_token = list(id_to_token)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def token(self, idx: int) -> str:
        return self.id_to_token[idx]

    @property
    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.id_to_token).encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# adsorbtext vocabulary v1\n")
            fh.write("# specials: " + " ".join(SPECIALS) + "\n")
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not tokens and line.startswith("#"):  # the header; `#b` is a token
                    continue
                token = line.rstrip("\n")
                if token:
                    tokens.append(token)
        return cls(tokens)


def build_vocab(corpus: Iterable[str], min_freq: int = 1) -> Vocabulary:
    """Count tokens over the corpus; order by (frequency desc, token asc)."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    saw_text = False
    for line in corpus:
        for token in tokenize(line):
            saw_text = True
            if token not in SPECIALS:
                counts[token] += 1
    if not saw_text:
        raise ValueError("empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(SPECIALS) + kept)


@dataclass(frozen=True)
class TokenSequence:
    """The ids of a text's real tokens and the length it was encoded to.

    Padding is never stored: positions ids.size..length-1 are padding.
    """

    ids: np.ndarray
    length: int

    def __post_init__(self):
        if not self.ids.size or self.ids[0] != BOS:
            raise ValueError("sequence must start with <s>")
        if self.ids.size > self.length:
            raise ValueError("more ids than the encoded length")

    def __len__(self) -> int:
        return self.length

    @property
    def n_real(self) -> int:
        return int(self.ids.size)

    @property
    def attention_mask(self) -> np.ndarray:
        # read by perfbench/trace.py, which changes only with the benchmark
        return (np.arange(self.length) < self.ids.size).astype(np.int64)


def encode(text: str, vocab: Vocabulary, max_positions: int) -> TokenSequence:
    """bos + body + eos, truncated keeping bos/eos, encoded to max_positions."""
    toks = tokenize(text)
    if not toks or toks[0] != "<s>":
        toks = ["<s>"] + toks
    if toks[-1] != "</s>":
        toks = toks + ["</s>"]
    ids = [vocab.id_of(t) for t in toks]
    if len(ids) > max_positions:
        ids = ids[: max_positions - 1] + [EOS]
    return TokenSequence(np.array(ids, dtype=np.int64), max_positions)


def _glue(prev: str, nxt: str, tokens: list[str], i: int) -> bool:
    if prev in ("<s>", "</s>") or nxt in ("<s>", "</s>"):
        return True
    if nxt in (",", ")", "]", "."):
        return True
    if prev in ("(", "["):
        return True
    if prev == "]" and nxt == "[":
        # property blocks are juxtaposed (]`[X, ...`), nested lists spaced
        return i + 2 < len(tokens) and tokens[i + 2] == ","
    return False


def decode(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Inverse of encode for the string grammars (exact round-trip there)."""
    tokens = [vocab.token(int(i)) for i in seq.ids]
    if not tokens:
        return ""
    parts = [tokens[0]]
    for i in range(1, len(tokens)):
        if not _glue(tokens[i - 1], tokens[i], tokens, i):
            parts.append(" ")
        parts.append(tokens[i])
    return "".join(parts)


def dynamic_mask(
    seq: TokenSequence,
    vocab: Vocabulary,
    rate: float,
    seed: int | list[int] = 0,
) -> tuple[TokenSequence, list[tuple[int, int]]]:
    """Independently mask non-special positions at the given rate.

    Selected positions get the <mask> id 80% of the time, a random
    regular token 10%, and stay unchanged 10%; returns the masked
    sequence and (position, original id) labels for the selected spots.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("mask rate must be in (0, 1)")
    rng = np.random.default_rng(seed)
    ids = seq.ids.copy()
    maskable = np.flatnonzero(ids >= N_SPECIALS)
    selected = maskable[rng.random(maskable.size) < rate]
    labels = [(int(p), int(ids[p])) for p in selected]
    branch = rng.random(selected.size)
    random_ids = rng.integers(N_SPECIALS, len(vocab), selected.size)
    for p, r, rid in zip(selected, branch, random_ids):
        if r < 0.8:
            ids[p] = MASK
        elif r < 0.9:
            ids[p] = rid
        # else: keep the original token
    return TokenSequence(ids, seq.length), labels
