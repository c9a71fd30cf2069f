"""Domain types for adsorbate-catalyst systems and dataset file I/O.

A dataset is a UTF-8 JSON-lines file, one system per line, with keys
id, adsorbate_smiles, bulk_formula, miller_index, cell, atoms,
energy_ev (optional) and split. Atom tags follow the slab convention:
0 = subsurface, 1 = surface, 2 = adsorbate.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elements import element_properties, formula_elements

SPLITS = ("ID", "OOD_ads", "OOD_cat", "OOD_both", "train")

TAG_SUBSURFACE = 0
TAG_SURFACE = 1
TAG_ADSORBATE = 2


class DatasetError(ValueError):
    """Malformed dataset file or invariant violation; message names the record."""


def is_count(value) -> bool:
    """An integer, numpy ones included, and not a bool; a JSON int takes the fast test."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value) -> bool:
    """A real number, numpy ones included, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real_triple(values, what: str, index: int) -> tuple[float, float, float]:
    """values, a JSON list of 3 real numbers, as floats; DatasetError naming
    what.format(index) for another length, a bool, a string or an integer
    too large for a float. Three JSON floats take the fast test."""
    if isinstance(values, list) and len(values) == 3:
        x, y, z = values
        if type(x) is type(y) is type(z) is float:
            return x, y, z
        try:
            if all(map(is_real, values)):
                return tuple(map(float, values))
        except OverflowError:
            pass
    raise DatasetError(f"{what.format(index)} must be 3 real numbers within float range, "
                       f"got {reprlib.repr(values)}")


@dataclass(frozen=True)
class Atom:
    element: str
    position: tuple[float, float, float]  # Cartesian, Angstrom
    tag: int

    def __post_init__(self):
        element_properties(self.element)  # unknown symbols rejected here
        if not is_count(self.tag) or self.tag not in (TAG_SUBSURFACE, TAG_SURFACE, TAG_ADSORBATE):
            raise DatasetError(f"tag must be the integer 0, 1 or 2, got {self.tag!r}")
        if not all(math.isfinite(c) for c in self.position):
            raise DatasetError(f"non-finite position {self.position}")


@dataclass(frozen=True)
class AtomicSystem:
    """One adsorbate-catalyst record; immutable after construction."""

    id: str
    adsorbate_smiles: str
    bulk_formula: str
    miller_index: tuple[int, int, int]
    cell: tuple[tuple[float, float, float], ...]  # 3x3 lattice vectors, Angstrom
    atoms: tuple[Atom, ...]
    energy_ev: float | None = None
    split: str = "train"
    _cell_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # types first: the rules below compare and cast values
        for name in ("id", "adsorbate_smiles", "bulk_formula", "split"):  # TSV fields downstream
            value = getattr(self, name)
            if not isinstance(value, str):
                raise DatasetError(f"{name} must be a string, got {value!r}")
            if any(c in value for c in "\t\n\r"):
                raise DatasetError(f"{name} {value!r} holds a tab or line break")
        if not (self.energy_ev is None or is_real(self.energy_ev)):
            raise DatasetError(f"{self.id}: energy_ev must be a number, got {self.energy_ev!r}")
        if self.split not in SPLITS:
            raise DatasetError(f"{self.id}: unknown split {self.split!r}")
        if self.energy_ev is not None and not math.isfinite(self.energy_ev):
            raise DatasetError(f"{self.id}: energy_ev must be finite, got {self.energy_ev!r}")
        cell = np.asarray(self.cell, dtype=float)
        if cell.shape != (3, 3):
            raise DatasetError(f"{self.id}: cell must be 3x3")
        if not np.isfinite(cell).all():
            raise DatasetError(f"{self.id}: cell must be finite, got {self.cell}")
        if abs(np.linalg.det(cell)) < 1e-10:
            raise DatasetError(f"{self.id}: cell vectors are linearly dependent")
        if len(self.miller_index) != 3 or not all(map(is_count, self.miller_index)):
            raise DatasetError(f"{self.id}: miller_index must be an integer triple")
        tags = [a.tag for a in self.atoms]
        if TAG_ADSORBATE not in tags:
            raise DatasetError(f"{self.id}: no adsorbate (tag 2) atom")
        if TAG_SURFACE not in tags:
            raise DatasetError(f"{self.id}: no surface (tag 1) atom")
        ads_counts: dict[str, int] = {}
        for a in self.atoms:
            if a.tag == TAG_ADSORBATE:
                ads_counts[a.element] = ads_counts.get(a.element, 0) + 1
        if ads_counts != formula_elements(self.adsorbate_smiles):
            raise DatasetError(
                f"{self.id}: tag-2 element multiset {ads_counts} does not match "
                f"adsorbate_smiles {self.adsorbate_smiles!r}"
            )
        object.__setattr__(self, "_cell_arr", cell)

    @property
    def cell_array(self) -> np.ndarray:
        return self._cell_arr

    @property
    def adsorbate_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.tag == TAG_ADSORBATE)

    def to_record(self) -> dict:
        rec = {
            "id": self.id,
            "adsorbate_smiles": self.adsorbate_smiles,
            "bulk_formula": self.bulk_formula,
            "miller_index": list(self.miller_index),
            "cell": [list(v) for v in self.cell],
            "atoms": [
                {"element": a.element, "position": list(a.position), "tag": a.tag}
                for a in self.atoms
            ],
        }
        if self.energy_ev is not None:
            rec["energy_ev"] = self.energy_ev
        rec["split"] = self.split
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "AtomicSystem":
        atoms = tuple(
            Atom(a["element"], _real_triple(a["position"], "atom {} position", i), a["tag"])
            for i, a in enumerate(rec["atoms"])
        )
        cell = rec["cell"]
        if not isinstance(cell, list) or len(cell) != 3:
            raise DatasetError(f"cell must be 3 rows, got {reprlib.repr(cell)}")
        return cls(
            id=rec["id"],
            adsorbate_smiles=rec["adsorbate_smiles"],
            bulk_formula=rec["bulk_formula"],
            miller_index=tuple(rec["miller_index"]),
            cell=tuple(_real_triple(row, "cell row {}", i) for i, row in enumerate(cell)),
            atoms=atoms,
            energy_ev=rec.get("energy_ev"),
            split=rec.get("split", "train"),
        )


def load_dataset(path: str | Path) -> list[AtomicSystem]:
    """Read a JSON-lines dataset; validates invariants and rejects duplicate ids."""
    systems: list[AtomicSystem] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            try:
                system = AtomicSystem.from_record(rec)
            except (DatasetError, KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            if system.id in seen:
                raise DatasetError(f"{path}:{lineno}: duplicate id {system.id!r}")
            seen.add(system.id)
            systems.append(system)
    return systems


@contextmanager
def output(path: str | Path, mode: str = "w"):
    """A handle on path (UTF-8 text, or bytes with mode "wb") whose file appears
    whole or not at all: it writes `.<name>.<pid>.tmp` beside path, making its
    directories as needed, and renames it onto path on a clean exit. No fsync."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    name = os.fsdecode(os.fsencode(path.name)[:242])  # NAME_MAX 255 less dots, pid, .tmp
    tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_dataset(systems: list[AtomicSystem], path: str | Path) -> None:
    with output(path) as fh:
        for system in systems:
            fh.write(json.dumps(system.to_record()) + "\n")


# Offsets of the 27 neighbor images; slabs have cell edges well above twice
# any covalent cutoff, so +-1 cell in each direction is exhaustive.
_IMAGE_SHIFTS = np.array(
    [[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
    dtype=float,
)


def pairwise_min_image_distances(positions: np.ndarray, cell) -> np.ndarray:
    """All-pairs minimum-image distance matrix for one system's atoms."""
    cell = np.asarray(cell, dtype=float)
    if abs(np.linalg.det(cell)) < 1e-10:
        raise ValueError("singular cell")
    pos = np.asarray(positions, dtype=float)
    delta = pos[None, :, :] - pos[:, None, :]  # (n, n, 3)
    images = delta[:, :, None, :] + (_IMAGE_SHIFTS @ cell)[None, None, :, :]
    return np.sqrt(np.min(np.einsum("abic,abic->abi", images, images), axis=-1))
