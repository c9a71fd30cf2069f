import math

import numpy as np
import pytest

import adsorbtext.pairs as pairs_mod
from adsorbtext.pairs import (
    PredictionRecord,
    chemically_similar,
    column_pair_stats,
    export_parity,
    format_pairs_report,
    generate_pairs,
    mae_by_split,
    pair_count,
    read_prediction_columns,
    read_predictions,
    record_columns,
    secr,
    sharing_one,
    sharing_two,
    split_pair_stats,
    write_predictions,
    _groups,
)
from reference_ops import error_propagation_stats, sorted_groups


def _rec(i, split="ID", smiles="NH", bulk="Al20Rh8", label=0.0, err=0.0):
    return PredictionRecord(f"sys{i}", split, smiles, bulk, label, label + err)


def test_error_field_identity(rng):
    for _ in range(20):
        label, pred = rng.normal(), rng.normal()
        r = PredictionRecord("x", "ID", "NH", "Al", label, pred)
        assert r.error == pred - label


def test_mae_by_split_perfect_predictions():
    rows = mae_by_split(record_columns(_rec(i) for i in range(5)))
    assert all(mae == 0.0 for _, mae, _ in rows)


def test_mae_by_split_symmetric_errors():
    records = [_rec(0, err=1.0), _rec(1, err=-1.0)]
    rows = dict((s, m) for s, m, _ in mae_by_split(record_columns(records)))
    assert rows["ID"] == 1.0
    assert rows["total"] == 1.0


def test_mae_by_split_matches_naive(rng):
    splits = ["ID", "OOD_ads", "OOD_cat", "OOD_both"]
    records = [_rec(i, split=splits[i % 4], err=float(rng.normal()))
               for i in range(40)]
    rows = dict((s, m) for s, m, _ in mae_by_split(record_columns(records)))
    for split in splits:
        errs = [abs(r.error) for r in records if r.split == split]
        naive = math.fsum(errs) / len(errs)
        assert rows[split] == pytest.approx(naive, abs=1e-12)


def test_mae_by_split_empty():
    with pytest.raises(ValueError):
        mae_by_split(record_columns([]))


def test_pair_counts_small():
    assert pair_count(1) == 0
    assert pair_count(2) == 1
    records = [_rec(i) for i in range(5)]
    assert sum(1 for _ in generate_pairs(records)) == 10
    assert sum(1 for _ in generate_pairs(records[:1])) == 0


def test_reference_pair_counts_closed_form():
    assert pair_count(2493) == 3_106_278
    assert pair_count(2494) == 3_108_771
    assert pair_count(2507) == 3_141_271
    assert pair_count(2506) == 3_138_765


def test_pairs_respect_splits():
    records = [_rec(0, "ID"), _rec(1, "ID"), _rec(2, "OOD_ads")]
    within = list(generate_pairs(records, within_split=True))
    assert len(within) == 1
    global_pairs = list(generate_pairs(records, within_split=False))
    assert len(global_pairs) == 3


def test_pair_error_identity(rng):
    records = [_rec(i, err=float(rng.normal()), label=float(rng.normal()))
               for i in range(8)]
    errors = {r.system_id: r.error for r in records}
    for pair in generate_pairs(records):
        assert pair.pred_diff - pair.label_diff == pytest.approx(
            errors[pair.id_i] - errors[pair.id_j], abs=1e-12)
        assert pair.error == pytest.approx(
            errors[pair.id_i] - errors[pair.id_j], abs=1e-12)


def test_duplicate_ids_rejected():
    records = [_rec(1), _rec(1)]
    with pytest.raises(ValueError, match="duplicate"):
        list(generate_pairs(records))


def test_similarity_flags_shared_adsorbate():
    # NH on two different catalysts: sharing-one via the adsorbate
    a = PredictionRecord("a", "ID", "NH", "Al20Rh8", 0.0, 0.0)
    b = PredictionRecord("b", "ID", "NH", "N2Ti4", 0.0, 0.0)
    pair = next(generate_pairs([a, b]))
    assert pair.shares_adsorbate and not pair.shares_bulk
    assert sharing_one(pair) and not sharing_two(pair)
    assert chemically_similar(pair)


def test_similarity_flags_shared_catalyst():
    a = PredictionRecord("a", "ID", "OCH3", "Sc3Al", 0.0, 0.0)
    b = PredictionRecord("b", "ID", "COCH2O", "Sc3Al", 0.0, 0.0)
    pair = next(generate_pairs([a, b]))
    assert pair.shares_bulk and not pair.shares_adsorbate
    assert sharing_one(pair)


def test_similarity_flags_sharing_two():
    a = PredictionRecord("a", "ID", "NH3", "VCr3", 0.0, 0.0)
    b = PredictionRecord("b", "ID", "NH3", "VCr3", 1.0, 1.0)
    pair = next(generate_pairs([a, b]))
    assert sharing_two(pair) and not sharing_one(pair)
    assert chemically_similar(pair)


def test_subgroup_set_algebra(rng):
    smiles = ["NH", "OH", "CO"]
    bulks = ["Sc3Al", "VCr3"]
    records = [_rec(i, smiles=smiles[i % 3], bulk=bulks[i % 2],
                    err=float(rng.normal())) for i in range(12)]
    for pair in generate_pairs(records):
        if sharing_two(pair):
            assert chemically_similar(pair)
        assert not (sharing_one(pair) and sharing_two(pair))


def test_secr_total_subgroup_is_zero(rng):
    records = [_rec(i, err=float(rng.normal())) for i in range(20)]
    value = secr(generate_pairs(records), lambda pair: True)
    assert value == 0.0


def test_secr_zero_error_subgroup_is_hundred():
    # same-adsorbate systems share an exact bias: their pair errors vanish
    records = [
        _rec(0, smiles="NH", err=0.5), _rec(1, smiles="NH", err=0.5),
        _rec(2, smiles="OH", err=-0.3), _rec(3, smiles="CO", err=0.9),
    ]
    value = secr(generate_pairs(records), lambda p: p.shares_adsorbate)
    assert value == pytest.approx(100.0)


def test_secr_empty_subgroup_undefined(rng):
    records = [_rec(0, smiles="NH", bulk="A"), _rec(1, smiles="OH", bulk="B")]
    assert secr(generate_pairs(records), sharing_two) is None


def test_secr_zero_total_rmse_undefined():
    records = [_rec(0), _rec(1)]
    assert secr(generate_pairs(records), lambda p: True) is None


def test_secr_empty_pair_set():
    with pytest.raises(ValueError, match="empty"):
        secr(iter([]), lambda p: True)


def test_secr_sign_flip_invariance(rng):
    records = [_rec(i, smiles="NH" if i % 3 == 0 else f"s{i}",
                    err=float(rng.normal())) for i in range(15)]
    flipped = [PredictionRecord(r.system_id, r.split, r.adsorbate_smiles,
                                r.bulk_formula, r.label,
                                r.label - r.error) for r in records]
    a = secr(generate_pairs(records), chemically_similar)
    b = secr(generate_pairs(flipped), chemically_similar)
    assert a == pytest.approx(b, abs=1e-12)


def _correlated_fixture(rng, n=40):
    """Shared-adsorbate systems share a common bias, so their pair errors
    shrink relative to the full population."""
    smiles_pool = ["NH", "OH", "CO", "CH3"]
    bias = {s: float(rng.normal(0, 0.8)) for s in smiles_pool}
    records = []
    for i in range(n):
        s = smiles_pool[i % 4]
        err = bias[s] + float(rng.normal(0, 0.1))
        records.append(_rec(i, smiles=s, bulk=f"B{i}", err=err))
    return records


def test_secr_matches_brute_force(rng):
    records = _correlated_fixture(rng)
    value = secr(generate_pairs(records), lambda p: p.shares_adsorbate)
    # brute force: recompute RMSEs from raw pair error lists
    sub, tot = [], []
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            e = records[i].error - records[j].error
            tot.append(e * e)
            if records[i].adsorbate_smiles == records[j].adsorbate_smiles:
                sub.append(e * e)
    want = 100.0 * (1.0 - math.sqrt(math.fsum(sub) / len(sub))
                    / math.sqrt(math.fsum(tot) / len(tot)))
    assert value == pytest.approx(want, abs=1e-10)
    assert value > 50.0  # the correlated bias must actually cancel


def test_propagation_independent_errors(rng):
    records = [_rec(i, err=float(rng.normal(0, 0.5))) for i in range(300)]
    stats = error_propagation_stats(records, generate_pairs(records))
    assert stats.residual < 1e-10
    assert abs(2 * stats.cov) < 0.05  # independent draws: covariance ~ 0
    assert stats.var_pair == pytest.approx(stats.independent_sum, abs=0.1)


def test_propagation_perfect_correlation():
    records = [_rec(i, err=0.7) for i in range(10)]
    stats = error_propagation_stats(records, generate_pairs(records))
    assert stats.var_pair == pytest.approx(0.0, abs=1e-15)
    assert stats.residual < 1e-12


def test_propagation_anticorrelated_amplifies(rng):
    # e_j = -e_i on every selected pair: Var(e_ij) = Var(2 e_i) = 4 Var(e_i)
    a = 0.6
    records = [_rec(i, smiles=f"s{i}", err=a if i % 2 == 0 else -a)
               for i in range(40)]
    anti = [p for p in generate_pairs(records)
            if abs(p.error) > a]  # opposite-sign pairs only
    stats = error_propagation_stats(records, iter(anti))
    assert stats.var_i > 0
    assert stats.var_pair == pytest.approx(4 * stats.var_i, abs=1e-12)
    assert stats.cov == pytest.approx(-stats.var_i, abs=1e-12)
    assert stats.residual < 1e-12


def test_propagation_constant_errors_covariance_zero():
    records = [_rec(i, err=0.2) for i in range(5)]
    stats = error_propagation_stats(records, generate_pairs(records))
    assert stats.cov == pytest.approx(0.0, abs=1e-15)
    assert stats.var_i == pytest.approx(0.0, abs=1e-15)


def test_propagation_requires_two_records():
    with pytest.raises(ValueError):
        error_propagation_stats([_rec(0)], iter([]))


def test_split_pair_stats_matches_streamed(rng):
    records = _correlated_fixture(rng, 30) + [
        _rec(100 + i, split="OOD_ads", smiles="NH", err=float(rng.normal()))
        for i in range(10)
    ]
    reports = {r.split: r for r in split_pair_stats(records)}
    for split in ("ID", "OOD_ads"):
        subset = [r for r in records if r.split == split]
        pairs = list(generate_pairs(subset))
        rep = reports[split]
        assert rep.n_pairs == len(pairs)
        rmse = math.sqrt(math.fsum(p.error ** 2 for p in pairs) / len(pairs))
        assert rep.rmse_total == pytest.approx(rmse, abs=1e-12)
        for name, selector in (("sharing_one", sharing_one),
                               ("sharing_two", sharing_two),
                               ("chemically_similar", chemically_similar)):
            assert rep.subgroup_counts[name] == sum(
                1 for p in pairs if selector(p))
            expected_secr = secr(iter(pairs), selector)
            got = rep.subgroup_secr[name]
            if expected_secr is None:
                assert got is None
            else:
                assert got == pytest.approx(expected_secr, abs=1e-10)
        streamed = error_propagation_stats(subset, generate_pairs(subset))
        assert rep.propagation.var_pair == pytest.approx(
            streamed.var_pair, abs=1e-12)
        assert rep.propagation.residual < 1e-10


def test_predictions_round_trip(tmp_path, rng):
    records = [_rec(i, err=float(rng.normal()), label=float(rng.normal()))
               for i in range(7)]
    path = tmp_path / "preds.tsv"
    write_predictions(records, path)
    assert read_predictions(path) == records


def test_predictions_bad_header(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("wrong\theader\n")
    with pytest.raises(ValueError, match="header"):
        read_predictions(path)


@pytest.mark.parametrize("label, prediction", [
    ("nan", "0.5"), ("0.5", "inf"), ("-inf", "0.5"), ("x", "0.5")])
def test_predictions_non_finite_value_names_record(tmp_path, label, prediction):
    path = tmp_path / "preds.tsv"
    write_predictions([_rec(0), _rec(1)], path)
    lines = path.read_text().splitlines()
    lines[2] = f"sys1\tID\tNH\tAl20Rh8\t{label}\t{prediction}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"preds\.tsv:3: sys1: .*finite"):
        read_predictions(path)


def test_parity_export_schema(tmp_path, rng):
    splits = ["ID", "OOD_ads", "OOD_cat", "OOD_both"]
    records = [_rec(i, split=splits[i % 4], err=float(rng.normal()))
               for i in range(20)]
    written = export_parity(record_columns(records), tmp_path)
    assert sorted(p.name for p in written) == sorted(
        f"parity_{s}.tsv" for s in splits)
    for path in written:
        lines = path.read_text().strip().split("\n")
        split = path.stem.split("_", 1)[1]
        n = sum(1 for r in records if r.split == split)
        assert lines[0].startswith(f"# split={split} n={n}")
        assert lines[1] == "label\tprediction"
        assert len(lines) == n + 2


def test_parity_perfect_predictions_on_diagonal(tmp_path):
    records = [_rec(i, label=float(i)) for i in range(4)]
    (path,) = export_parity(record_columns(records), tmp_path)
    for line in path.read_text().strip().split("\n")[2:]:
        label, pred = line.split("\t")
        assert label == pred


def test_pairs_report_text_stable(rng):
    records = _correlated_fixture(rng, 12)
    text1 = format_pairs_report(split_pair_stats(records))
    text2 = format_pairs_report(split_pair_stats(records))
    assert text1 == text2
    assert "sharing_two" in text1
    assert "residual" in text1


SELECTORS = (("sharing_one", sharing_one), ("sharing_two", sharing_two),
             ("chemically_similar", chemically_similar))


def _close(got, want):
    """Within 1e-12 relative; within 1e-15 where the streaming value is exactly 0."""
    if want == 0.0:
        return abs(got) <= 1e-15
    return abs(got - want) <= 1e-12 * abs(want)


def _random_records(rng):
    """One to three splits of 1, 2 or 3-12 records, few adsorbates and bulks,
    the splits interleaved."""
    records = []
    for s in range(int(rng.integers(1, 4))):
        n = int(rng.choice([1, 2, int(rng.integers(3, 13))]))
        n_ads, n_bulk = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        for _ in range(n):
            label = float(rng.normal())
            records.append(PredictionRecord(
                f"r{len(records)}", f"split{s}", f"a{rng.integers(n_ads)}",
                f"b{rng.integers(n_bulk)}", label, label + float(rng.normal())))
    return [records[i] for i in rng.permutation(len(records))]


def test_closed_form_matches_streaming(rng):
    sizes = set()
    for _ in range(200):
        records = _random_records(rng)
        for within_split in (True, False):
            reports = split_pair_stats(records, within_split)
            assert [rep.split for rep in reports] == (
                list(dict.fromkeys(r.split for r in records)) if within_split else ["all"])
            for rep in reports:
                subset = [r for r in records if r.split == rep.split or not within_split]
                pairs = list(generate_pairs(subset, within_split=False))
                sizes.add(len(subset))
                assert (rep.n_systems, rep.n_pairs) == (len(subset), len(pairs))
                if not pairs:
                    assert rep.rmse_total is None and rep.propagation is None
                    assert set(rep.subgroup_counts.values()) == {0}
                    assert set(rep.subgroup_secr.values()) == {None}
                    continue
                assert _close(rep.rmse_total,
                              math.sqrt(sum(p.error ** 2 for p in pairs) / len(pairs)))
                for name, selector in SELECTORS:
                    chosen = [p.error ** 2 for p in pairs if selector(p)]
                    assert rep.subgroup_counts[name] == len(chosen)
                    if chosen:
                        assert _close(rep.subgroup_rmse[name],
                                      math.sqrt(sum(chosen) / len(chosen)))
                    else:
                        assert rep.subgroup_rmse[name] is None
                    want, got = secr(iter(pairs), selector), rep.subgroup_secr[name]
                    if want is None:
                        assert got is None
                    else:
                        # near 0 % a SECR keeps only the absolute precision of
                        # the RMSE ratio it is made from, in either method
                        assert _close(got, want) or (
                            want != 0.0 and _close(1.0 - got / 100.0, 1.0 - want / 100.0)), name
                streamed = error_propagation_stats(subset, iter(pairs))
                for field in ("var_pair", "var_i", "var_j", "cov"):
                    assert _close(getattr(rep.propagation, field),
                                  getattr(streamed, field)), field
    assert {1, 2} <= sizes


@pytest.mark.parametrize("err", [0.3, 1 / 3, 2.7])
def test_equal_errors_give_zero_rmse_and_undefined_secr(err):
    records = [_rec(f"{n}-{i}", split=f"n{n}", smiles=f"s{i % 3}", bulk=f"b{i % 2}", err=err)
               for n in (5, 7, 9) for i in range(n)]
    for rep in split_pair_stats(records):
        assert rep.rmse_total == 0.0
        assert set(rep.subgroup_secr.values()) == {None}
        assert set(rep.subgroup_rmse.values()) <= {0.0, None}
        p = rep.propagation
        assert (p.var_pair, p.var_i, p.var_j, p.cov) == (0.0, 0.0, 0.0, 0.0)


def test_prediction_columns_report_matches_records(tmp_path, rng):
    records = _random_records(rng) + _correlated_fixture(rng, 30)
    path = tmp_path / "preds.tsv"
    write_predictions(records, path)
    columns = read_prediction_columns(path)
    for within_split in (True, False):
        assert format_pairs_report(column_pair_stats(columns, within_split)) == \
            format_pairs_report(split_pair_stats(read_predictions(path), within_split))


@pytest.mark.parametrize("body", [
    "wrong\theader\n",
    "system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"
    "sys0\tID\tNH\tAl\t0.5\n",
    "system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"
    "sys0\tID\tNH\tAl\t0.5\t0.5\nsys1\tID\tNH\tAl\tnan\t0.5\n",
], ids=["header", "columns", "non_finite"])
def test_prediction_columns_check_like_records(tmp_path, body):
    path = tmp_path / "preds.tsv"
    path.write_text(body)
    with pytest.raises(ValueError) as by_record:
        read_predictions(path)
    with pytest.raises(ValueError) as by_column:
        read_prediction_columns(path)
    assert str(by_column.value) == str(by_record.value)


def _assert_bitwise_equal(got, want):
    """Equal fields of two named tuples, arrays in dtype and every byte."""
    for name in want._fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def _long_predictions(path, n=600):
    """n records whose adsorbates, bulks and splits keep first appearing
    late in the file."""
    records = [PredictionRecord(f"sys{i}", ("ID", "OOD_ads", "OOD_cat")[i // 150 % 3],
                                f"a{i // 40}", f"b{i * 7 % (i // 3 + 1)}",
                                i / 7.0, i / 7.0 + (-1) ** i / 3.0)
               for i in range(n)]
    write_predictions(records, path)
    return records


@pytest.mark.parametrize("chunk", [1, 64, 1000, 1 << 16])
def test_prediction_columns_match_records_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(pairs_mod, "_CHUNK_CHARS", chunk)
    path = tmp_path / "preds.tsv"
    records = _long_predictions(path)
    columns = read_prediction_columns(path)
    _assert_bitwise_equal(columns, record_columns(records))
    assert columns.split_names == ["ID", "OOD_ads", "OOD_cat"]


@pytest.mark.parametrize("ending, final_newline", [
    ("\r\n", True), ("\r\n", False), ("\n", False), ("\r", True)],
    ids=["crlf", "crlf_unterminated", "lf_unterminated", "cr"])
@pytest.mark.parametrize("chunk", [64, 1 << 16])
def test_prediction_columns_line_endings(tmp_path, monkeypatch, chunk, ending, final_newline):
    monkeypatch.setattr(pairs_mod, "_CHUNK_CHARS", chunk)
    path = tmp_path / "preds.tsv"
    _long_predictions(path, 200)
    lines = path.read_text().splitlines()
    path.write_bytes((ending.join(lines) + (ending if final_newline else "")).encode())
    _assert_bitwise_equal(read_prediction_columns(path),
                         record_columns(read_predictions(path)))


@pytest.mark.parametrize("text", [
    "system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n",
    "system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"
    "s0\tID\tNH\tAl\t-0.5\t0.25\n",
    "system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"
    "s0\tID\tNH\tAl\t-0.5\t0.25"], ids=["header_only", "one_record", "one_unterminated"])
def test_prediction_columns_dtypes_of_short_files(tmp_path, text):
    path = tmp_path / "preds.tsv"
    path.write_text(text)
    columns = read_prediction_columns(path)
    assert [c.dtype for c in columns[1:]] == [np.int64] * 3 + [np.float64] * 3
    _assert_bitwise_equal(columns, record_columns(read_predictions(path)))


_BAD_LINES = {
    "short": "sysX\tID\tNH\tAl\t0.5",
    "long": "sysX\tID\tNH\tAl\t0.5\t0.5\t0.5",
    "empty": "",
    "nan": "sysX\tID\tNH\tAl\tnan\t0.5",
    "inf": "sysX\tID\tNH\tAl\t0.5\t-inf",
    "not_a_number": "sysX\tID\tNH\tAl\t0.5\t0,5",
}


@pytest.mark.parametrize("bad", sorted(_BAD_LINES))
@pytest.mark.parametrize("lineno", [2, 300, 601])
@pytest.mark.parametrize("chunk", [64, 1 << 16])
def test_prediction_columns_name_first_bad_line(tmp_path, monkeypatch, chunk, lineno, bad):
    """A bad line in any chunk is named as the line reader names it."""
    monkeypatch.setattr(pairs_mod, "_CHUNK_CHARS", chunk)
    path = tmp_path / "preds.tsv"
    _long_predictions(path)
    lines = path.read_text().split("\n")
    lines[lineno - 1] = _BAD_LINES[bad]
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as by_record:
        read_predictions(path)
    with pytest.raises(ValueError) as by_column:
        read_prediction_columns(path)
    assert str(by_column.value) == str(by_record.value)
    assert f"preds.tsv:{lineno}: " in str(by_column.value)


@pytest.mark.parametrize("first, second", [
    ("sysA\tID\tNH\tAl\tx\t0.5", "sysB\tID\tNH\tAl"),
    ("sysA\tID\tNH\tAl\t0.5\t0.5\t0.5", "sysB\tID\tNH\t0.5\t0.5"),
    ("sysA\tID\tNH\tAl\tnan\t0.5", "sysB\tID\tNH\tAl\tx\t0.5"),
    ("sysA\tID", "sysB\t0.5\t0.5"),
    ("", "sysB\tID\t0.5\t0.5"),
    ("sysA\tID\tNH", "0.5\t0.5")],
    ids=["bad_float_then_short", "long_then_short", "nan_then_bad_float",
         "two_then_three", "blank_then_four", "three_then_two"])
def test_prediction_columns_name_earlier_of_two_bad_lines(tmp_path, first, second):
    """Two bad lines in one chunk: the first is named, whichever check the
    chunk failed. A long line and a short one hold 12 fields, and two short
    lines 5, with their fields shifted so the number columns parse: only
    where the newlines fall shows the bad column counts."""
    path = tmp_path / "preds.tsv"
    _long_predictions(path, 20)
    lines = path.read_text().split("\n")
    lines[9], lines[10] = first, second
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as by_record:
        read_predictions(path)
    with pytest.raises(ValueError) as by_column:
        read_prediction_columns(path)
    assert str(by_column.value) == str(by_record.value)
    assert "preds.tsv:10: " in str(by_column.value)


@pytest.mark.parametrize("case", ["random", "gaps", "wide", "sparse", "single", "distinct",
                                  "distinct_past_table", "one"])
def test_groups_match_sorting_oracle(rng, case):
    n = 2000
    keys = {"random": lambda: rng.integers(50, size=n),
            "gaps": lambda: rng.integers(n, size=n),             # ranked through the table
            "wide": lambda: rng.integers(40 * n, size=n),        # ranked by np.unique
            "sparse": lambda: rng.integers(10 ** 12, size=n),
            "single": lambda: np.full(n, 7),
            "distinct": lambda: rng.permutation(n),              # the widest table
            "distinct_past_table": lambda: rng.permutation(n) + 1,
            "one": lambda: np.array([3])}[case]()
    x = np.round(rng.normal(size=len(keys)), 2)  # repeated values: exact zero spreads
    _assert_bitwise_equal(_groups(x, keys), sorted_groups(x, keys))
