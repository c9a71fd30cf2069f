"""Correctness checks of the program's outputs, computed apart from it.

Nothing here imports adsorbtext: the checks read the files the program
wrote (checkpoints, corpora, vocabularies, predictions, reports) with
their own parsers and recompute the expected values with plain numpy.
Each check returns a `Check`; `ok` is False when the output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------- file formats

def read_vocab(path: Path) -> dict[str, int]:
    """Token -> id; ids follow line order, comment lines excluded."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and line.rstrip("\n"):
                tokens.append(line.rstrip("\n"))
    return {t: i for i, t in enumerate(tokens)}


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_tsv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config and parameters of a checkpoint: magic, u32 header length,
    JSON header, then the little-endian parameters in header order."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"ADTXCKPT":
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + header_len])
    dtype = np.dtype("<f8" if header["config"]["dtype"] == "float64" else "<f4")
    offset = 12 + header_len
    params = {}
    for entry in header["params"]:
        count = math.prod(entry["shape"])
        params[entry["name"]] = np.frombuffer(
            raw, dtype, count, offset).reshape(entry["shape"]).astype(np.float64)
        offset += count * dtype.itemsize
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} bytes after the parameters")
    return header["config"], params


_SPLIT = re.compile(r"(<s>|</s>|\[|\]|\(|\)|,)")


def token_ids(text: str, vocab: dict[str, int], max_positions: int) -> list[int]:
    """Unpadded ids: whitespace words with markers and ( ) [ ] , split off,
    bos/eos added when missing, unknown words mapped to <unk>."""
    toks = [p for chunk in text.split() for p in _SPLIT.split(chunk) if p]
    if not toks or toks[0] != "<s>":
        toks.insert(0, "<s>")
    if toks[-1] != "</s>":
        toks.append("</s>")
    ids = [vocab.get(t, vocab["<unk>"]) for t in toks]
    if len(ids) > max_positions:
        ids = ids[:max_positions - 1] + [vocab["</s>"]]
    return ids


# ------------------------------------------------------ reference forward pass

def _layer_norm(x, gain, bias):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def reference_energy(config: dict, params: dict[str, np.ndarray], ids: list[int]) -> float:
    """Regression output for one unpadded sequence, in float64, no autograd.

    Padded keys get zero attention weight in the program and position 0
    never reads a padded position, so evaluating the real tokens alone
    must give the same energy as the program's padded batch.
    """
    p = params
    n_heads = config["n_heads"]
    n = len(ids)
    x = p["tok_emb"][ids] + p["pos_emb"][:n]
    d_head = x.shape[1] // n_heads

    def split(t):
        return t.reshape(n, n_heads, d_head).transpose(1, 0, 2)

    for i in range(config["n_layers"]):
        w = {k[len(f"layer{i}."):]: v for k, v in p.items() if k.startswith(f"layer{i}.")}

        def attention(h):
            q, k, v = (split(h @ w["w" + c] + w["b" + c]) for c in "qkv")
            s = q @ k.transpose(0, 2, 1) / math.sqrt(d_head)
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            ctx = (s / s.sum(axis=-1, keepdims=True)) @ v
            return ctx.transpose(1, 0, 2).reshape(n, -1) @ w["wo"] + w["bo"]

        def ffn(h):
            return _gelu(h @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"]

        if config["pre_norm"]:
            x = x + attention(_layer_norm(x, w["ln1_g"], w["ln1_b"]))
            x = x + ffn(_layer_norm(x, w["ln2_g"], w["ln2_b"]))
        else:
            x = _layer_norm(x + attention(x), w["ln1_g"], w["ln1_b"])
            x = _layer_norm(x + ffn(x), w["ln2_g"], w["ln2_b"])
    act = np.tanh if config["head_activation"] == "tanh" else _gelu
    hidden = act(x[0] @ p["head.w1"] + p["head.b1"])
    return float((hidden @ p["head.w2"] + p["head.b2"])[0])


def check_reference_forward(ckpt: Path, vocab_path: Path, corpus: Path,
                            predictions: Path, sample: int, tol: float) -> Check:
    """`predict` must match the plain-numpy forward pass on `sample` systems
    spread over the corpus, within `tol` eV."""
    config, params = read_checkpoint(ckpt)
    vocab = read_vocab(vocab_path)
    records = read_jsonl(corpus)
    predicted = {r["system_id"]: float(r["prediction"]) for r in read_tsv(predictions)}
    picks = np.linspace(0, len(records) - 1, sample).round().astype(int)
    worst = 0.0
    for i in picks:
        rec = records[i]
        ref = reference_energy(config, params,
                               token_ids(rec["text"], vocab, config["max_positions"]))
        worst = max(worst, abs(ref - predicted[rec["system_id"]]))
    return Check("reference_forward", worst <= tol,
                 f"max |predict - reference| {worst:.2e} eV over {len(picks)} systems "
                 f"(tolerance {tol:g})")


# -------------------------------------------------------------------- learning

def check_learning(corpus: Path, predictions: Path, train_split: str = "train") -> Check:
    """Validation MAE of the predictions must beat the constant predictor
    that always answers the mean train label."""
    train = [r["energy_ev"] for r in read_jsonl(corpus) if r["split"] == train_split]
    mean = sum(train) / len(train)
    val = [(float(r["label"]), float(r["prediction"]))
           for r in read_tsv(predictions) if r["split"] != train_split]
    mae = sum(abs(p - y) for y, p in val) / len(val)
    const = sum(abs(mean - y) for y, _ in val) / len(val)
    return Check("learning", mae < const,
                 f"validation MAE {mae:.4f} vs train-mean predictor {const:.4f} "
                 f"over {len(val)} systems")


# ------------------------------------------------------------------- attention

def check_attention(captures) -> Check:
    """captures: (n_real, per-layer (1, heads, L, L) weights, profiles of the
    first and last layer) per system. Rows over real queries sum to 1,
    padded keys get exactly 0, word scores sum to the token total."""
    worst_row = worst_total = 0.0
    padded_nonzero = 0
    for n_real, layers, profiles in captures:
        for weights in layers:
            rows = weights[0, :, :n_real, :].sum(axis=-1, dtype=np.float64)
            worst_row = max(worst_row, float(np.abs(rows - 1.0).max()))
            padded_nonzero += int(np.count_nonzero(weights[..., n_real:]))
        for layer, profile in zip((0, len(layers) - 1), profiles):
            received = layers[layer][0].astype(np.float64).mean(axis=0)[:n_real, :n_real]
            token_total = float(received.mean(axis=0).sum())
            word_total = sum(w.score for w in profile.words)
            worst_total = max(worst_total, abs(word_total - token_total))
    ok = worst_row <= 1e-5 and padded_nonzero == 0 and worst_total <= 1e-5
    return Check("attention", ok,
                 f"max |row sum - 1| {worst_row:.1e}, nonzero padded weights "
                 f"{padded_nonzero}, max |word total - token total| {worst_total:.1e} "
                 f"over {len(captures)} systems")


# -------------------------------------------------------------------- contacts

_IMAGES = np.array([[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1)
                    for k in (-1, 0, 1)], dtype=float)
_SITES = {1: "ontop", 2: "bridge", 3: "hollow"}
_DESC = re.compile(r"The (\S+) atom of the adsorbate is placed on the (\S+) site "
                   r"and is binding to the catalytic surface atoms (.+)\.$")


def read_covalent_radii(element_table: Path) -> dict[str, float]:
    with open(element_table, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {r["symbol"]: float(r["covalent_radius"]) for r in rows}


def binding_contacts(system: dict, radii: dict[str, float],
                     tolerance: float = 0.25) -> tuple[str, list[str]]:
    """Binding element and its contacting surface elements, by a vectorized
    minimum-image search over the 27 neighbouring cells."""
    atoms = system["atoms"]
    pos = np.array([a["position"] for a in atoms], dtype=float)
    tags = np.array([a["tag"] for a in atoms])
    rad = np.array([radii[a["element"]] for a in atoms])
    ads, surf = np.flatnonzero(tags == 2), np.flatnonzero(tags == 1)
    shifts = _IMAGES @ np.asarray(system["cell"], dtype=float)
    delta = pos[surf][None, :, None, :] + shifts[None, None] - pos[ads][:, None, None, :]
    dist = np.sqrt((delta ** 2).sum(axis=-1).min(axis=-1))          # (ads, surf)
    contact = dist <= rad[ads][:, None] + rad[surf][None, :] + tolerance
    counts = contact.sum(axis=1)
    nearest = np.where(contact, dist, np.inf).min(axis=1)
    # most contacts, then the shortest contact, then the lowest index
    best = min((i for i in range(len(ads)) if counts[i]),
               key=lambda i: (-counts[i], nearest[i], i))
    return atoms[ads[best]]["element"], [atoms[j]["element"] for j in surf[contact[best]]]


def check_contacts(systems_path: Path, corpus: Path, element_table: Path) -> Check:
    """Each DESC text must name the binding element, site and surface atoms
    found by the contact search; no system may fall back to S1."""
    radii = read_covalent_radii(element_table)
    systems = {s["id"]: s for s in read_jsonl(systems_path)}
    records = read_jsonl(corpus)
    bad = [r["system_id"] for r in records if r["format"] != "DESC"]
    for rec in records:
        if rec["format"] != "DESC":
            continue
        match = _DESC.search(rec["text"])
        binding, surface = binding_contacts(systems[rec["system_id"]], radii)
        if (match is None or match.group(1) != binding
                or match.group(2) != _SITES.get(len(surface), "fourfold")
                or sorted(match.group(3).split(", ")) != sorted(surface)):
            bad.append(rec["system_id"])
    ok = not bad and len(records) == len(systems)
    return Check("contacts", ok,
                 f"{len(records) - len(bad)}/{len(systems)} DESC texts agree with the "
                 f"contact search" + (f"; first mismatch {bad[0]}" if bad else ""))


# ------------------------------------------------------------------- MLM loss

def check_mlm_loss(history: Path, vocab_path: Path) -> Check:
    """The final-epoch MLM loss must be finite and below ln(vocab size),
    the loss of a uniform guess."""
    rows = [line.rstrip("\n").split("\t") for line in open(history, encoding="utf-8")]
    losses = [(int(r[0]), float(r[3])) for r in rows if r[2] == "mlm_loss"]
    final = max(losses)[1]
    bound = math.log(len(read_vocab(vocab_path)))
    return Check("mlm_loss", math.isfinite(final) and final < bound,
                 f"final MLM loss {final:.4f} vs ln(vocab size) {bound:.4f}")


# --------------------------------------------------------------------- pairs

def _pair_sum(errors: np.ndarray, groups: np.ndarray) -> tuple[int, float]:
    """Pairs i<j in the same group and their sum of (e_i - e_j)^2, from
    sum_{i<j} (e_i - e_j)^2 = n * sum (e - mean)^2 within each group."""
    sizes = np.bincount(groups)
    means = np.bincount(groups, weights=errors) / np.maximum(sizes, 1)
    centred = np.bincount(groups, weights=(errors - means[groups]) ** 2)
    return int((sizes * (sizes - 1) // 2).sum()), float((sizes * centred).sum())


def closed_form_pair_stats(errors: np.ndarray, ads: np.ndarray,
                           bulk: np.ndarray) -> dict:
    """Counts, total RMSE and SECR of every subgroup of one split, by group sums.
    ads and bulk are integer codes."""
    n = len(errors)
    n_pairs, sq_total = _pair_sum(errors, np.zeros(n, dtype=np.int64))
    a = _pair_sum(errors, ads)
    b = _pair_sum(errors, bulk)
    both = _pair_sum(errors, ads * (int(bulk.max()) + 1) + bulk)
    rmse_total = math.sqrt(sq_total / n_pairs)
    subgroups = {
        "sharing_one": (a[0] + b[0] - 2 * both[0], a[1] + b[1] - 2 * both[1]),
        "sharing_two": both,
        "chemically_similar": (a[0] + b[0] - both[0], a[1] + b[1] - both[1]),
    }
    out = {"systems": n, "pairs": n_pairs, "rmse_total": rmse_total, "subgroups": {}}
    for name, (count, sq) in subgroups.items():
        secr = 100.0 * (1.0 - math.sqrt(sq / count) / rmse_total) if count else None
        out["subgroups"][name] = (count, secr)
    return out


def read_pairs_report(path: Path) -> dict[str, dict]:
    """The per-split table of a `pairs` report, keyed by split."""
    out: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            if not line.strip():
                break
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            entry = out.setdefault(row["split"], {
                "systems": int(row["systems"]), "pairs": int(row["pairs"]),
                "rmse_total": float(row["rmse_total"]), "subgroups": {}})
            secr = None if row["secr_pct"] == "undefined" else float(row["secr_pct"])
            entry["subgroups"][row["subgroup"]] = (int(row["count"]), secr)
    return out


def _rel(a: float | None, b: float | None) -> float:
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def check_pairs(report: Path, expected: dict[str, dict], rel_tol: float = 1e-9) -> Check:
    """The report's counts must equal the closed form exactly, and its total
    RMSE and subgroup SECRs within rel_tol."""
    got = read_pairs_report(report)
    problems = []
    worst = 0.0
    if set(got) != set(expected):
        problems.append(f"splits {sorted(got)} != {sorted(expected)}")
    for split, exp in expected.items():
        rep = got.get(split)
        if rep is None:
            continue
        if (rep["systems"], rep["pairs"]) != (exp["systems"], exp["pairs"]):
            problems.append(f"{split}: counts")
        worst = max(worst, _rel(rep["rmse_total"], exp["rmse_total"]))
        for name, (count, secr) in exp["subgroups"].items():
            r_count, r_secr = rep["subgroups"].get(name, (None, None))
            if r_count != count:
                problems.append(f"{split}/{name}: count {r_count} != {count}")
            worst = max(worst, _rel(r_secr, secr))
    if worst > rel_tol:
        problems.append(f"relative error {worst:.1e} > {rel_tol:g}")
    return Check("pairs_closed_form", not problems,
                 f"{len(expected)} splits, max relative error {worst:.1e}"
                 + (f"; {problems[0]}" if problems else ""))
