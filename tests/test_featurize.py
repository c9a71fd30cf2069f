import math

import pytest

from adsorbtext.featurize import (
    NoBindingError,
    detect_configuration,
    featurize_systems,
    format_distance,
    load_description_cache,
    merge_description_cache,
    read_corpus,
    render_system_description,
    serialize,
    site_type,
    write_corpus,
)
from adsorbtext.systems import Atom, AtomicSystem
from adsorbtext.synth import synthetic_systems, table_fixture_system
from conftest import REFERENCE_TEXTS


def _slab(atoms, smiles="N", cell_edge=12.0):
    return AtomicSystem(
        id="probe", adsorbate_smiles=smiles, bulk_formula="Cr3Cu",
        miller_index=(1, 0, 0),
        cell=((cell_edge, 0, 0), (0, cell_edge, 0), (0, 0, 24.0)),
        atoms=tuple(atoms), split="train",
    )


def test_bridge_detection_hand_geometry():
    # N 2.1 A above the midpoint of two Cr atoms 2.6 A apart:
    # 2.1 <= r_cov(N) + r_cov(Cr) + 0.25 = 0.71 + 1.39 + 0.25 = 2.35
    height = math.sqrt(2.1**2 - 1.3**2)
    system = _slab([
        Atom("Cr", (4.7, 6.0, 10.0), 1),
        Atom("Cr", (7.3, 6.0, 10.0), 1),
        Atom("N", (6.0, 6.0, 10.0 + height), 2),
    ])
    config = detect_configuration(system, cutoff_tolerance=0.25)
    assert config.binding_element == "N"
    assert [p.element for p in config.primary_surface_atoms] == ["Cr", "Cr"]
    assert config.site_type == "bridge"
    assert all(p.distance == pytest.approx(2.1) for p in config.primary_surface_atoms)


def test_ontop_single_adatom():
    system = _slab([
        Atom("Cu", (6.0, 6.0, 10.0), 1),
        Atom("Cr", (2.0, 2.0, 10.0), 1),
        Atom("N", (6.0, 6.0, 11.9), 2),
    ])
    config = detect_configuration(system)
    assert config.site_type == "ontop"
    assert [p.element for p in config.primary_surface_atoms] == ["Cu"]


def test_site_type_mapping():
    assert site_type(1) == "ontop"
    assert site_type(2) == "bridge"
    assert site_type(3) == "hollow"
    assert site_type(4) == "fourfold"
    assert site_type(6) == "fourfold"
    with pytest.raises(ValueError):
        site_type(0)


def test_no_binding_detected():
    system = _slab([
        Atom("Cr", (6.0, 6.0, 10.0), 1),
        Atom("N", (6.0, 6.0, 16.0), 2),
    ])
    with pytest.raises(NoBindingError):
        detect_configuration(system)


def test_table_secondary_lists(table_config):
    assert table_config.secondary_lists == (
        ("Cr", "Cr", "Cr", "Cr", "V", "V", "V", "N"),
        ("Cr", "Cr", "Cr", "Cr", "V", "V", "V", "N"),
    )


@pytest.mark.parametrize("fmt", ["S1", "S2", "S3", "S4", "S5"])
def test_reference_strings_byte_exact(table_system, table_config, fmt):
    assert serialize(table_system, table_config, fmt).text == REFERENCE_TEXTS[fmt]


def test_reference_description_byte_exact(table_system, table_config):
    sample = render_system_description(table_system, table_config)
    assert sample.text == REFERENCE_TEXTS["DESC"]


def test_description_single_surface_atom():
    system = _slab([
        Atom("Cu", (6.0, 6.0, 10.0), 1),
        Atom("N", (6.0, 6.0, 11.9), 2),
    ])
    config = detect_configuration(system)
    text = render_system_description(system, config).text
    assert "binding to the catalytic surface atoms Cu." in text


def test_description_requires_config(table_system):
    with pytest.raises(NoBindingError):
        render_system_description(table_system, None)


def test_serialize_deterministic(table_system, table_config):
    a = serialize(table_system, table_config, "S4").text
    b = serialize(table_system, table_config, "S4").text
    assert a == b


def test_s1_prefix_property(table_system, table_config):
    s1 = serialize(table_system, table_config, "S1").text
    for fmt in ("S2", "S3", "S4", "S5"):
        assert serialize(table_system, table_config, fmt).text.startswith(s1)


def test_s1_prefix_property_synthetic():
    for system in synthetic_systems(20, seed=9):
        config = detect_configuration(system)
        s1 = serialize(system, config, "S1").text
        for fmt in ("S2", "S3", "S4", "S5"):
            assert serialize(system, config, fmt).text.startswith(s1)


def test_detected_configurations_satisfy_invariants():
    mapping = {1: "ontop", 2: "bridge", 3: "hollow", 4: "fourfold"}
    for system in synthetic_systems(40, seed=13):
        config = detect_configuration(system)
        k = len(config.primary_surface_atoms)
        assert k >= 1
        assert config.site_type == mapping[min(k, 4)]
        distances = [p.distance for p in config.primary_surface_atoms]
        assert distances == sorted(distances)
        for primary, sec in zip(config.primary_surface_atoms,
                                config.secondary_lists):
            assert sec[0] == primary.element


def test_serialize_needs_config_beyond_s1(table_system):
    assert serialize(table_system, None, "S1").text == REFERENCE_TEXTS["S1"]
    with pytest.raises(NoBindingError):
        serialize(table_system, None, "S4")


@pytest.mark.parametrize("value,expected", [
    (2.10, "2.1"), (2.04, "2.0"), (2.05, "2.1"), (2.25, "2.3"),
    (0.0, "0.0"), (11.96, "12.0"),
])
def test_distance_rounding_half_away_from_zero(value, expected):
    assert format_distance(value) == expected


def test_distance_rounding_stable_under_reserialization():
    for raw in (2.0499999, 2.1, 1.9501, 0.31, 3.456):
        once = format_distance(raw)
        assert format_distance(float(once)) == once


def test_featurize_fallback_to_s1():
    bound = table_fixture_system()
    unbound = _slab([
        Atom("Cr", (6.0, 6.0, 10.0), 1),
        Atom("N", (6.0, 6.0, 16.0), 2),
    ])
    records, report = featurize_systems([bound, unbound], "S4")
    assert report == {"systems": 2, "fallback_s1": 1}
    assert records[0].format == "S4"
    assert records[1].format == "S1"
    assert records[1].text.startswith("<s>N</s>")


def test_corpus_round_trip(tmp_path):
    systems = synthetic_systems(8, seed=3)
    records, _ = featurize_systems(systems, "S5")
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    assert read_corpus(path) == records


def test_corpus_bad_record(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"nope": 1}\n')
    with pytest.raises(ValueError, match="bad corpus record"):
        read_corpus(path)


def _desc_samples(table_system, table_config):
    return [render_system_description(table_system, table_config)]


def test_merge_empty_cache(table_system, table_config):
    samples = _desc_samples(table_system, table_config)
    merged, report = merge_description_cache(
        samples, {table_system.id: table_system},
        {"adsorbates": {}, "catalysts": {}})
    assert merged == samples
    assert report["missing_adsorbate"] == 1
    assert report["missing_catalyst"] == 1


def test_merge_partial_cache(table_system, table_config):
    samples = _desc_samples(table_system, table_config)
    merged, report = merge_description_cache(
        samples, {table_system.id: table_system},
        {"adsorbates": {"NH3": "The NH3 molecule is a triatomic molecule."},
         "catalysts": {}})
    assert merged[0].text == samples[0].text + "\n\nThe NH3 molecule is a triatomic molecule."
    assert report["merged_adsorbate"] == 1
    assert report["missing_catalyst"] == 1


def test_merge_full_cache_three_paragraphs(table_system, table_config):
    samples = _desc_samples(table_system, table_config)
    merged, report = merge_description_cache(
        samples, {table_system.id: table_system},
        {"adsorbates": {"NH3": "ads prose"}, "catalysts": {"VCr3": "cat prose"}})
    paragraphs = merged[0].text.split("\n\n")
    assert len(paragraphs) == 3
    assert paragraphs[0] == REFERENCE_TEXTS["DESC"]
    assert paragraphs[1] == "ads prose"
    assert paragraphs[2] == "cat prose"
    assert report == {"merged_adsorbate": 1, "merged_catalyst": 1,
                      "missing_adsorbate": 0, "missing_catalyst": 0}


def test_merge_malformed_cache(tmp_path):
    path = tmp_path / "cache.json"  # merge takes a cache that load_description_cache read
    path.write_text("{nope")
    with pytest.raises(ValueError, match="malformed"):
        load_description_cache(path)
