"""Adsorption-configuration detection and structure-to-text serialization.

Five string formats plus a deterministic description paragraph:

  S1   <s>{smiles}</s>{bulk} ({h} {k} {l})</s>
  S2   S1 + [binding element, primary surface elements..., site]</s>
  S3   S2 + one atomic-property block per unique element + </s>
  S4   S1 + [binding element, primaries, site, one secondary list per primary]</s>
  S5   S4 with every primary element replaced by (element distance)
  DESC system sentence pair, optionally extended from a description cache

A tag-2 atom interacts with a tag-1 atom when their minimum-image distance
is within the sum of covalent radii plus a tolerance. The binding adsorbate
atom is the one with the most surface contacts (ties broken by smallest
contact distance). Secondary lists start with the primary atom's own
element, then all covalent neighbors of any tag: surface-side (tag 0/1)
alphabetically, adsorbate-side (tag 2) appended last.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .elements import covalent_radius, element_properties, formula_elements
from .systems import (
    TAG_ADSORBATE,
    TAG_SURFACE,
    AtomicSystem,
    is_real,
    output,
    pairwise_min_image_distances,
)

FORMATS = ("S1", "S2", "S3", "S4", "S5", "DESC")

DEFAULT_CUTOFF_TOLERANCE = 0.25  # Angstrom of slack on covalent-radius sums

_SITE_NAMES = {1: "ontop", 2: "bridge", 3: "hollow"}


class NoBindingError(ValueError):
    """No adsorbate-surface contact within the covalent cutoff."""


def site_type(n_primary: int) -> str:
    if n_primary < 1:
        raise ValueError("site type needs at least one primary surface atom")
    return _SITE_NAMES.get(n_primary, "fourfold")


class PrimaryAtom(NamedTuple):
    index: int
    element: str
    distance: float  # Angstrom, minimum-image


@dataclass(frozen=True)
class AdsorptionConfiguration:
    binding_index: int
    binding_element: str
    primary_surface_atoms: tuple[PrimaryAtom, ...]  # distance-ascending
    site_type: str
    secondary_lists: tuple[tuple[str, ...], ...]  # one per primary, primary first

    def __post_init__(self):
        if self.site_type != site_type(len(self.primary_surface_atoms)):
            raise ValueError("site_type inconsistent with primary atom count")
        for primary, sec in zip(self.primary_surface_atoms, self.secondary_lists):
            if not sec or sec[0] != primary.element:
                raise ValueError("secondary list must start with its primary element")
        if any(p.distance <= 0 for p in self.primary_surface_atoms):
            raise ValueError("primary contact distances must be positive")


class CorpusRecord(NamedTuple):
    """One system's serialized text, as one corpus line."""

    system_id: str
    format: str
    text: str
    energy_ev: float | None
    split: str


def _check_cutoff_tolerance(cutoff_tolerance: float) -> None:
    if not 0 <= cutoff_tolerance < math.inf:  # refuses nan too
        raise ValueError(f"cutoff_tolerance must be finite and >= 0, got {cutoff_tolerance!r}")


def detect_configuration(
    system: AtomicSystem, cutoff_tolerance: float = DEFAULT_CUTOFF_TOLERANCE
) -> AdsorptionConfiguration:
    """Find binding atom, primary surface atoms, site type and secondary lists."""
    _check_cutoff_tolerance(cutoff_tolerance)
    atoms = system.atoms
    n = len(atoms)
    dm = pairwise_min_image_distances(
        [a.position for a in atoms], system.cell_array
    )
    radii = [covalent_radius(a.element) for a in atoms]

    def in_contact(i: int, j: int) -> bool:
        return dm[i, j] <= radii[i] + radii[j] + cutoff_tolerance

    # Surface contacts of each adsorbate atom; most contacts wins, then
    # smallest contact distance, then lowest atom index.
    best: tuple[int, float, int] | None = None  # (-count, min_dist, index)
    contacts_by_ads: dict[int, list[int]] = {}
    for i in range(n):
        if atoms[i].tag != TAG_ADSORBATE:
            continue
        contacts = [
            j for j in range(n) if atoms[j].tag == TAG_SURFACE and in_contact(i, j)
        ]
        if not contacts:
            continue
        contacts_by_ads[i] = contacts
        key = (-len(contacts), min(dm[i, j] for j in contacts), i)
        if best is None or key < best:
            best = key
    if best is None:
        raise NoBindingError(
            f"{system.id}: no adsorbate-surface contact within covalent cutoff "
            f"(+{cutoff_tolerance} A)"
        )
    binding = best[2]

    primary = tuple(
        PrimaryAtom(j, atoms[j].element, float(dm[binding, j]))
        for j in sorted(contacts_by_ads[binding], key=lambda j: (dm[binding, j], j))
    )

    secondary = []
    for p in primary:
        slab_side = sorted(
            atoms[q].element
            for q in range(n)
            if q != p.index and atoms[q].tag != TAG_ADSORBATE and in_contact(p.index, q)
        )
        ads_side = sorted(
            atoms[q].element
            for q in range(n)
            if q != p.index and atoms[q].tag == TAG_ADSORBATE and in_contact(p.index, q)
        )
        secondary.append((p.element, *slab_side, *ads_side))

    return AdsorptionConfiguration(
        binding_index=binding,
        binding_element=atoms[binding].element,
        primary_surface_atoms=primary,
        site_type=site_type(len(primary)),
        secondary_lists=tuple(secondary),
    )


def format_distance(d: float) -> str:
    """One decimal, half away from zero; stable under re-serialization."""
    scaled = math.floor(abs(d) * 10.0 + 0.5)
    sign = "-" if d < 0 and scaled else ""
    return f"{sign}{scaled // 10}.{scaled % 10}"


def _property_block(symbol: str) -> str:
    p = element_properties(symbol)
    fields = (
        symbol,
        str(p.atomic_number),
        str(float(p.atomic_mass)),
        str(p.period),
        str(float(p.dipole_polarizability)),
        str(float(p.electronegativity)),
        str(float(p.electron_affinity)),
    )
    return "[" + ", ".join(fields) + "]"


def _base_string(system: AtomicSystem) -> str:
    h, k, l = system.miller_index
    return f"<s>{system.adsorbate_smiles}</s>{system.bulk_formula} ({h} {k} {l})</s>"


def serialize(
    system: AtomicSystem,
    config: AdsorptionConfiguration | None,
    fmt: str,
) -> CorpusRecord:
    """Render one system in the requested string format (S1 needs no config)."""
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "DESC":
        return render_system_description(system, config)

    text = _base_string(system)
    if fmt == "S1":
        return CorpusRecord(system.id, "S1", text, system.energy_ev, system.split)
    if config is None:
        raise NoBindingError(f"{system.id}: format {fmt} needs a binding configuration")

    primaries = config.primary_surface_atoms
    if fmt in ("S2", "S3"):
        fields = [config.binding_element, *(p.element for p in primaries), config.site_type]
        text += "[" + ", ".join(fields) + "]</s>"
        if fmt == "S3":
            seen: list[str] = []
            for group in (system.adsorbate_smiles, system.bulk_formula):
                for sym in sorted(formula_elements(group)):
                    if sym not in seen:
                        seen.append(sym)
            text += "".join(_property_block(sym) for sym in seen) + "</s>"
    else:  # S4 / S5
        if fmt == "S4":
            primary_fields = [p.element for p in primaries]
        else:
            primary_fields = [
                f"({p.element} {format_distance(p.distance)})" for p in primaries
            ]
        groups = ["[" + " ".join(sec) + "]" for sec in config.secondary_lists]
        inner = " ".join([config.binding_element, *primary_fields, config.site_type, *groups])
        text += f"[{inner}]</s>"

    return CorpusRecord(system.id, fmt, text, system.energy_ev, system.split)


def render_system_description(
    system: AtomicSystem, config: AdsorptionConfiguration | None
) -> CorpusRecord:
    """Deterministic system paragraph (the first paragraph of a description)."""
    if config is None:
        raise NoBindingError(f"{system.id}: description needs a binding configuration")
    h, k, l = system.miller_index
    surface_atoms = ", ".join(p.element for p in config.primary_surface_atoms)
    text = (
        f"Adsorbate {system.adsorbate_smiles} is adsorbed on the catalytic surface "
        f"{system.bulk_formula} with a Miller Index of ({h}, {k}, {l}). "
        f"The {config.binding_element} atom of the adsorbate is placed on the "
        f"{config.site_type} site and is binding to the catalytic surface atoms "
        f"{surface_atoms}."
    )
    return CorpusRecord(system.id, "DESC", text, system.energy_ev, system.split)


def load_description_cache(path: str | Path) -> dict:
    """Cache file: {"adsorbates": {smiles: prose}, "catalysts": {formula: prose}}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cache = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed description cache ({exc})") from None
    if not isinstance(cache, dict):
        raise ValueError(f"{path}: description cache must be a JSON object")
    sections = {}
    for section in ("adsorbates", "catalysts"):
        entries = cache.get(section, {})
        if not isinstance(entries, dict):
            raise ValueError(f"{path}: {section!r} must be a JSON object of prose strings")
        for key, prose in entries.items():
            if not isinstance(prose, str):
                raise ValueError(f"{path}: {section}[{key!r}] must be a string, "
                                 f"got {json.dumps(prose)}")
        sections[section] = entries
    return sections


def merge_description_cache(
    records: Iterable[CorpusRecord],
    systems_by_id: dict[str, AtomicSystem],
    cache: dict,
) -> tuple[list[CorpusRecord], dict[str, int]]:
    """Append prose from a loaded description cache to DESC records.

    Missing cache entries leave the corresponding paragraph out and are
    counted in the returned report.
    """
    report = {"merged_adsorbate": 0, "merged_catalyst": 0,
              "missing_adsorbate": 0, "missing_catalyst": 0}
    merged: list[CorpusRecord] = []
    for record in records:
        if record.format != "DESC":
            merged.append(record)
            continue
        system = systems_by_id[record.system_id]
        text = record.text
        ads_prose = cache["adsorbates"].get(system.adsorbate_smiles)
        if ads_prose:
            text += "\n\n" + ads_prose
            report["merged_adsorbate"] += 1
        else:
            report["missing_adsorbate"] += 1
        cat_prose = cache["catalysts"].get(system.bulk_formula)
        if cat_prose:
            text += "\n\n" + cat_prose
            report["merged_catalyst"] += 1
        else:
            report["missing_catalyst"] += 1
        merged.append(record._replace(text=text))
    return merged, report


def _featurize_one(system: AtomicSystem, fmt: str, tol: float) -> tuple[CorpusRecord, bool]:
    config = None
    if fmt != "S1":
        try:
            config = detect_configuration(system, tol)
        except NoBindingError:
            return serialize(system, None, "S1"), True
    return serialize(system, config, fmt), False


def featurize_systems(
    systems: list[AtomicSystem],
    fmt: str,
    cutoff_tolerance: float = DEFAULT_CUTOFF_TOLERANCE,
) -> tuple[list[CorpusRecord], dict[str, int]]:
    """Serialize a dataset in input order, one system after another in this
    process; non-binding systems fall back to S1. The tolerance is checked
    for every format, S1 too, which detects no configuration."""
    _check_cutoff_tolerance(cutoff_tolerance)
    fmt = fmt.upper()
    results = [_featurize_one(system, fmt, cutoff_tolerance) for system in systems]
    records = [rec for rec, _ in results]
    report = {"systems": len(records), "fallback_s1": sum(fb for _, fb in results)}
    return records, report


def write_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    with output(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec._asdict()) + "\n")


def read_corpus(path: str | Path) -> list[CorpusRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                record = CorpusRecord(
                    rec["system_id"], rec["format"], rec["text"],
                    rec.get("energy_ev"), rec.get("split", "train"),
                )
                for key in ("system_id", "format", "text", "split"):
                    if not isinstance(getattr(record, key), str):
                        raise TypeError(f"{key} must be a string, got {getattr(record, key)!r}")
                if not (record.energy_ev is None or is_real(record.energy_ev)):
                    raise TypeError(f"energy_ev must be a number or null, "
                                    f"got {record.energy_ev!r}")
                finite = record.energy_ev is None or math.isfinite(record.energy_ev)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad corpus record ({exc})") from None
            if not finite:
                raise ValueError(f"{path}:{lineno}: {record.system_id}: energy_ev must be "
                                 f"finite, got {record.energy_ev!r}")
            records.append(record)
    return records
