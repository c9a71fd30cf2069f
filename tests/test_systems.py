import json
import math

import numpy as np
import pytest

from adsorbtext.elements import UnknownElementError, element_properties, formula_elements
from adsorbtext.systems import (
    AtomicSystem,
    DatasetError,
    load_dataset,
    minimum_image_distance,
    pairwise_min_image_distances,
    save_dataset,
)
from adsorbtext.synth import table_fixture_system


# element table values printed in the serialized property blocks
@pytest.mark.parametrize("symbol,number,mass,period,pol,en,ea", [
    ("H", 1, 1.01, 1, 4.51, 2.2, 0.75),
    ("N", 7, 14.01, 2, 7.6, 3.04, -1.4),
    ("Cr", 24, 52.0, 4, 78.4, 1.66, 0.67),
    ("V", 23, 50.94, 4, 97.34, 1.63, 0.52),
])
def test_element_properties_reference_rows(symbol, number, mass, period, pol, en, ea):
    p = element_properties(symbol)
    assert p.atomic_number == number
    assert p.atomic_mass == mass
    assert p.period == period
    assert p.dipole_polarizability == pol
    assert p.electronegativity == en
    assert p.electron_affinity == ea


def test_unknown_element_symbol():
    with pytest.raises(UnknownElementError):
        element_properties("Xx")


def test_covalent_radii_used_by_bond_detection():
    assert element_properties("N").covalent_radius == 0.71
    assert element_properties("Cr").covalent_radius == 1.39


@pytest.mark.parametrize("formula,expected", [
    ("NH3", {"N": 1, "H": 3}),
    ("VCr3", {"V": 1, "Cr": 3}),
    ("COCH2O", {"C": 2, "O": 2, "H": 2}),
    ("Al20Rh8", {"Al": 20, "Rh": 8}),
])
def test_formula_elements(formula, expected):
    assert formula_elements(formula) == expected


def test_formula_elements_rejects_unknown():
    with pytest.raises(UnknownElementError):
        formula_elements("Xx3")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path) == []


def test_load_rejects_bad_tag(tmp_path):
    rec = table_fixture_system().to_record()
    rec["atoms"][0]["tag"] = 3
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DatasetError, match="tag"):
        load_dataset(path)


def test_load_rejects_duplicate_ids(tmp_path):
    line = json.dumps(table_fixture_system().to_record())
    path = tmp_path / "dup.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DatasetError, match="duplicate id"):
        load_dataset(path)


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "parse.jsonl"
    path.write_text(json.dumps(table_fixture_system().to_record()) + "\n{oops\n")
    with pytest.raises(DatasetError, match=":2:"):
        load_dataset(path)


def test_fixture_record_adsorbate_multiset():
    system = table_fixture_system()
    tags2 = [a.element for a in system.atoms if a.tag == 2]
    assert sorted(tags2) == ["H", "H", "H", "N"]
    assert system.adsorbate_atom_count == 4


def test_smiles_multiset_invariant_enforced():
    system = table_fixture_system()
    with pytest.raises(DatasetError, match="multiset"):
        AtomicSystem(
            id="x", adsorbate_smiles="NH2", bulk_formula=system.bulk_formula,
            miller_index=system.miller_index, cell=system.cell,
            atoms=system.atoms, split="ID",
        )


def test_singular_cell_rejected():
    system = table_fixture_system()
    with pytest.raises(DatasetError, match="linearly dependent"):
        AtomicSystem(
            id="x", adsorbate_smiles="NH3", bulk_formula="VCr3",
            miller_index=(1, 0, 0),
            cell=((1.0, 0, 0), (2.0, 0, 0), (0, 0, 1.0)),
            atoms=system.atoms, split="ID",
        )


def test_dataset_round_trip(tmp_path):
    from adsorbtext.synth import synthetic_systems

    systems = [table_fixture_system()] + synthetic_systems(10, seed=4)
    path = tmp_path / "ds.jsonl"
    save_dataset(systems, path)
    loaded = load_dataset(path)
    assert loaded == systems


def test_min_image_identity():
    cell = np.eye(3) * 10
    assert minimum_image_distance((1, 2, 3), (1, 2, 3), cell) == 0.0


def test_min_image_wraps_cubic_cell():
    cell = np.eye(3) * 10
    assert minimum_image_distance((0, 0, 0), (9, 0, 0), cell) == pytest.approx(1.0)


def _brute_force_min_image(a, b, cell):
    # independent oracle: exhaustive 27-image search written from scratch
    best = math.inf
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            for k in (-1, 0, 1):
                shift = i * np.asarray(cell[0]) + j * np.asarray(cell[1]) + k * np.asarray(cell[2])
                d = np.linalg.norm(np.asarray(b) + shift - np.asarray(a))
                best = min(best, d)
    return best


def test_min_image_matches_brute_force_triclinic(rng):
    cell = np.array([[8.0, 0.0, 0.0], [2.5, 7.0, 0.0], [1.0, -1.5, 9.0]])
    for _ in range(50):
        a = rng.uniform(-5, 15, 3)
        b = rng.uniform(-5, 15, 3)
        got = minimum_image_distance(a, b, cell)
        assert got == pytest.approx(_brute_force_min_image(a, b, cell), abs=1e-12)


def test_min_image_symmetric_and_bounded(rng):
    cell = np.array([[7.0, 0.3, 0.0], [0.0, 8.0, 0.4], [0.2, 0.0, 9.0]])
    for _ in range(25):
        a = rng.uniform(0, 8, 3)
        b = rng.uniform(0, 8, 3)
        dab = minimum_image_distance(a, b, cell)
        dba = minimum_image_distance(b, a, cell)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= np.linalg.norm(np.asarray(a) - np.asarray(b)) + 1e-12


def test_min_image_singular_cell():
    with pytest.raises(ValueError, match="singular"):
        minimum_image_distance((0, 0, 0), (1, 1, 1), np.zeros((3, 3)))


def test_pairwise_matrix_matches_scalar(rng):
    cell = np.array([[8.0, 0.0, 0.0], [2.5, 7.0, 0.0], [1.0, -1.5, 9.0]])
    pos = rng.uniform(0, 8, (6, 3))
    dm = pairwise_min_image_distances(pos, cell)
    for i in range(6):
        for j in range(6):
            assert dm[i, j] == pytest.approx(
                minimum_image_distance(pos[i], pos[j], cell), abs=1e-12)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_load_dataset_rejects_non_finite_energy(tmp_path, energy):
    system = table_fixture_system()
    path = tmp_path / "s.jsonl"
    save_dataset([system], path)
    rec = system.to_record()
    rec["energy_ev"] = energy
    rec["id"] = "edited"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(DatasetError, match=r"s\.jsonl:2: edited: energy_ev must be finite"):
        load_dataset(path)
