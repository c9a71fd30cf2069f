"""Attention-score aggregation and first-token embedding export.

Per-token scores are "received attention": average the attention
matrices over heads, then average each column over the real (non-pad)
query positions. Word-level scores merge token scores by summation so a
word's mass does not depend on how punctuation split it; the markers
<s>/</s> are reported separately from surface words.

Output files round-trip through this module's own readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autograd import no_tape
from .elements import formula_elements
from .encoder import AttentionRecord, EncoderModel, forward
from .systems import AtomicSystem
from .tokens import TokenSequence, tokenize_words

# bulk-content flags follow the most common bulk elements of the
# large-scale corpus this toolkit mirrors
FLAG_ELEMENTS = ("Zr", "Al", "Ni")


def token_attention(record: AttentionRecord, layer: int) -> np.ndarray:
    """Received-attention score of every real token at one layer."""
    if record.layers is None or not len(record.layers):
        raise ValueError("attention was not captured")
    if not 0 <= layer < record.n_layers:
        raise ValueError(f"layer {layer} out of range (n_layers={record.n_layers})")
    n = record.n_real
    head_mean = record.layers[layer].mean(axis=0)
    return head_mean[:n, :n].mean(axis=0)


@dataclass(frozen=True)
class WordScore:
    word: str
    score: float
    positions: tuple[int, ...]
    is_special: bool


@dataclass(frozen=True)
class TokenAttentionProfile:
    layer: int
    words: tuple[WordScore, ...]  # text order; markers flagged as special

    @property
    def specials(self) -> tuple[WordScore, ...]:
        return tuple(w for w in self.words if w.is_special)

    @property
    def total(self) -> float:
        return float(sum(w.score for w in self.words))


def build_word_alignment(text: str, seq: TokenSequence) -> list[tuple[str, list[int]]]:
    """Map each surface word of the text to its encoded token positions.

    Mirrors encode(): a bos/eos marker is prepended/appended when the text
    does not carry one, and truncation drops trailing words.
    """
    words = tokenize_words(text)
    if not words or words[0][0] != "<s>":
        words = [("<s>", ["<s>"])] + words
    if words[-1][0] != "</s>":
        words = words + [("</s>", ["</s>"])]
    out: list[tuple[str, list[int]]] = []
    pos = 0
    for word, toks in words:
        positions = list(range(pos, min(pos + len(toks), seq.n_real)))
        if not positions:
            break
        out.append((word, positions))
        pos += len(toks)
        if pos >= seq.n_real:
            break
    return out


def merge_per_word(
    scores: np.ndarray,
    alignment: list[tuple[str, list[int]]],
    layer: int = 0,
) -> TokenAttentionProfile:
    """Merge per-token scores into per-word scores by summation.

    Summation preserves total attention mass, so the profile is invariant
    to how a word was tokenized.
    """
    covered = [p for _, positions in alignment for p in positions]
    if sorted(covered) != list(range(len(scores))):
        raise ValueError("alignment does not cover every scored token exactly once")
    words = []
    for word, positions in alignment:
        score = sum(float(scores[p]) for p in positions)
        words.append(WordScore(word, score, tuple(positions),
                               word in ("<s>", "</s>")))
    return TokenAttentionProfile(layer, tuple(words))


def attention_profile(record: AttentionRecord, layer: int, text: str,
                      seq: TokenSequence) -> TokenAttentionProfile:
    scores = token_attention(record, layer)
    return merge_per_word(scores, build_word_alignment(text, seq), layer)


def export_heatmap(profiles: Iterable[TokenAttentionProfile],
                   path: str | Path) -> None:
    """TSV heatmap data: layer, word position, word, raw score, intensity.

    Intensity is max-normalized within each layer, so the strongest word
    of a layer has intensity 1.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layer\tposition\tword\traw_score\tintensity\n")
        for profile in profiles:
            peak = max((w.score for w in profile.words), default=0.0)
            for i, w in enumerate(profile.words):
                intensity = w.score / peak if peak > 0 else 0.0
                fh.write(f"{profile.layer}\t{i}\t{w.word}\t{w.score!r}\t{intensity!r}\n")


def read_heatmap(path: str | Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            row = dict(zip(header, parts))
            row["layer"] = int(row["layer"])
            row["position"] = int(row["position"])
            row["raw_score"] = float(row["raw_score"])
            row["intensity"] = float(row["intensity"])
            rows.append(row)
    return rows


def adsorbate_size_class(n_atoms: int) -> str:
    """Fewer than 3 atoms is small, more than 5 is large, 3-5 is medium."""
    if n_atoms < 3:
        return "small"
    if n_atoms > 5:
        return "large"
    return "medium"


def export_embeddings(
    model: EncoderModel,
    systems: Sequence[AtomicSystem],
    seqs: Sequence[TokenSequence],
    path: str | Path,
    batch_size: int = 32,
) -> None:
    """First-token embeddings with the metadata columns used for coloring
    latent-space plots (adsorbate type and size class, bulk-content flags,
    split)."""
    if len(systems) != len(seqs):
        raise ValueError("systems and encoded sequences must align")
    hidden = model.config.hidden_size
    with open(path, "w", encoding="utf-8") as fh:
        meta_cols = ["system_id", "split", "adsorbate_smiles", "bulk_formula",
                     "n_ads_atoms", "size_class"]
        meta_cols += [f"contains_{el}" for el in FLAG_ELEMENTS]
        vec_cols = [f"e{i:04d}" for i in range(hidden)]
        fh.write("\t".join(meta_cols + vec_cols) + "\n")
        for start in range(0, len(systems), batch_size):
            chunk_sys = systems[start:start + batch_size]
            with no_tape():
                pooled = forward(model, list(seqs[start:start + batch_size])).pooled.data
            for row, system in enumerate(chunk_sys):
                n_ads = system.adsorbate_atom_count
                bulk_els = set(formula_elements(system.bulk_formula))
                fields = [
                    system.id, system.split, system.adsorbate_smiles,
                    system.bulk_formula, str(n_ads), adsorbate_size_class(n_ads),
                ]
                fields += ["1" if el in bulk_els else "0" for el in FLAG_ELEMENTS]
                fields += [repr(float(x)) for x in pooled[row]]
                fh.write("\t".join(fields) + "\n")


def read_embeddings(path: str | Path) -> tuple[list[dict], np.ndarray]:
    meta, vectors = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        first_vec = next(i for i, c in enumerate(header) if c.startswith("e0"))
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            meta.append(dict(zip(header[:first_vec], parts[:first_vec])))
            vectors.append([float(x) for x in parts[first_vec:]])
    return meta, np.asarray(vectors)
