import logging
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evopep import (
    MgfParseError,
    PreprocessConfig,
    add_complements,
    denoise,
    emit_mgf,
    make_spectrum,
    normalize,
    parse_mgf,
    preprocess,
)
from evopep import chem
from evopep.chem import PROTON_MASS
from evopep.spectrum import DUPLICATE_MZ_TOLERANCE, nearest_peaks

SIMPLE_MGF = """\
BEGIN IONS
TITLE=demo scan 1
PEPMASS=415.2255
CHARGE=2+
171.11 4.0
310.18 16.0
END IONS
"""


def peaks(*mz_int):
    """The m/z and intensity lists of (m/z, intensity) pairs."""
    return [m for m, _ in mz_int], [i for _, i in mz_int]


# A peak far above the others. With it, each of the 10 windows is 90 Da
# wide, so peaks from 100 to 189 share the first window and the anchor is
# alone in the last.
ANCHOR = (1000.0, 5.0)


def test_parse_simple_record():
    spectra = parse_mgf(SIMPLE_MGF)
    assert len(spectra) == 1
    spec = spectra[0]
    assert spec.title == "demo scan 1"
    assert spec.charge == 2
    assert spec.precursor_mass == pytest.approx(828.43645, abs=1e-5)
    assert [p.mz for p in spec.peaks] == [171.11, 310.18]


def test_parse_empty_stream():
    assert parse_mgf("") == []


def test_parse_missing_end_ions():
    with pytest.raises(MgfParseError):
        parse_mgf("BEGIN IONS\nPEPMASS=500\nCHARGE=2+\n100 1\n")


def test_parse_missing_headers():
    with pytest.raises(MgfParseError, match="PEPMASS"):
        parse_mgf("BEGIN IONS\nCHARGE=2+\n100 1\nEND IONS\n")
    with pytest.raises(MgfParseError, match="CHARGE"):
        parse_mgf("BEGIN IONS\nPEPMASS=500\n100 1\nEND IONS\n")


def test_parse_error_carries_line_number():
    bad = "BEGIN IONS\nPEPMASS=500\nCHARGE=2+\n100 oops\nEND IONS\n"
    with pytest.raises(MgfParseError) as err:
        parse_mgf(bad)
    assert err.value.line_number == 4


@pytest.mark.parametrize(
    "header,peak,line",
    [
        ("PEPMASS=500", "nan 5.0", 6),
        ("PEPMASS=500", "-inf 5.0", 6),
        ("PEPMASS=500", "100.0 inf", 6),
        ("PEPMASS=500", "100.0 nan", 6),
        ("PEPMASS=500", "1e400 5.0", 6),
        ("PEPMASS=500", "-5.0 5.0", 6),
        ("PEPMASS=500", "100.0 -1.0", 6),
        ("PEPMASS=nan", "100.0 5.0", 2),
        ("PEPMASS=inf 20", "100.0 5.0", 2),
    ],
)
def test_parse_refuses_non_finite_values(header, peak, line):
    # A bad peak is refused at its own line, not at END IONS (line 7).
    mgf = f"BEGIN IONS\n{header}\nCHARGE=2+\n150.0 1.0\n160.0 1.0\n{peak}\nEND IONS\n"
    with pytest.raises(MgfParseError, match="must be finite") as err:
        parse_mgf(mgf)
    assert err.value.line_number == line


@pytest.mark.parametrize(
    "text",
    [
        "BEGIN IONS\nTITLE=p\nPEPMASS=1.00727647\nCHARGE=1+\n150.0 1.0\nEND IONS\n",
        "BEGIN IONS\nTITLE=p\nPEPMASS=0.5 20\nCHARGE=2+\n150.0 1.0\nEND IONS\n",
        "CHARGE=3+\nBEGIN IONS\nPEPMASS=1.0\n150.0 1.0\nEND IONS\n",
    ],
)
def test_parse_refuses_non_positive_precursor_at_pepmass_line(text):
    # A PEPMASS at or below one proton gives a neutral precursor of 0 or less.
    with pytest.raises(MgfParseError, match="neutral precursor mass must be positive") as err:
        parse_mgf(text)
    assert err.value.line_number == 3


@pytest.mark.parametrize(
    "text,line",
    [
        ("BEGIN IONS\nTITLE=p\nPEPMASS=1e308\nCHARGE=2+\n150.0 1.0\nEND IONS\n", 3),
        ("CHARGE=3+\nBEGIN IONS\nTITLE=p\nPEPMASS=9e307\n150.0 1.0\nEND IONS\n", 4),
    ],
)
def test_parse_refuses_an_overflowing_precursor_at_pepmass_line(text, line):
    # The PEPMASS is finite, but times the charge it overflows to inf.
    with pytest.raises(MgfParseError, match="neutral precursor mass must be finite") as err:
        parse_mgf(text)
    assert err.value.line_number == line


@pytest.mark.parametrize("value", ["0", "-5", "-0.0 20"])
def test_parse_refuses_non_positive_pepmass_at_its_line(value):
    mgf = f"BEGIN IONS\nTITLE=p\nPEPMASS={value}\nCHARGE=2+\n150.0 1.0\nEND IONS\n"
    with pytest.raises(MgfParseError, match="PEPMASS must be positive") as err:
        parse_mgf(mgf)
    assert err.value.line_number == 3


@pytest.mark.parametrize("text,expected", [("2+", 2), ("+2", 2), ("2", 2), ("2+ and 3+", 2), ("2+,3+", 2)])
def test_parse_charge_dialects(text, expected):
    mgf = f"BEGIN IONS\nPEPMASS=500\nCHARGE={text}\n100 1\nEND IONS\n"
    assert parse_mgf(mgf)[0].charge == expected


GLOBAL_CHARGE_MGF = """\
COM=global header
CHARGE=3+
SEARCH=MIS

BEGIN IONS
TITLE=inherits
PEPMASS=500
100 1
END IONS
BEGIN IONS
TITLE=own
PEPMASS=500
CHARGE=1+
100 1
END IONS
"""


def test_global_charge_is_the_default_of_later_records():
    spectra = parse_mgf(GLOBAL_CHARGE_MGF)
    assert [(s.title, s.charge) for s in spectra] == [("inherits", 3), ("own", 1)]


def test_global_charge_applies_only_after_it():
    mgf = "BEGIN IONS\nPEPMASS=500\n100 1\nEND IONS\nCHARGE=2+\n"
    with pytest.raises(MgfParseError, match="record missing CHARGE") as err:
        parse_mgf(mgf)
    assert err.value.line_number == 4


@pytest.mark.parametrize("value", ["2²", "1_0", ",", " , "])
@pytest.mark.parametrize("where", ["record", "global"])
def test_bad_charge_refused_at_its_line(value, where):
    # A superscript digit passes str.isdigit, but int() refuses it. Commas
    # and blanks alone hold no first value of a charge list.
    if where == "record":
        mgf, line = f"BEGIN IONS\nPEPMASS=500\nCHARGE={value}\n100 1\nEND IONS\n", 3
    else:
        mgf, line = f"COM=x\nCHARGE={value}\nBEGIN IONS\nPEPMASS=500\n100 1\nEND IONS\n", 2
    with pytest.raises(MgfParseError, match="malformed CHARGE") as err:
        parse_mgf(mgf)
    assert err.value.line_number == line


def test_bad_global_charge_refused_at_its_line_when_used():
    mgf = "CHARGE=two\nBEGIN IONS\nPEPMASS=500\n100 1\nEND IONS\n"
    with pytest.raises(MgfParseError, match="malformed CHARGE") as err:
        parse_mgf(mgf)
    assert err.value.line_number == 1
    # A record that gives its own charge never reads the global one.
    assert parse_mgf(mgf.replace("PEPMASS=500", "PEPMASS=500\nCHARGE=2")) != []


def test_zero_peak_record_skipped_with_warning(caplog):
    mgf = "BEGIN IONS\nTITLE=empty\nPEPMASS=500\nCHARGE=2+\nEND IONS\n" + SIMPLE_MGF
    with caplog.at_level(logging.WARNING):
        spectra = parse_mgf(mgf)
    assert len(spectra) == 1
    assert "no peaks" in caplog.text


def test_round_trip_preserves_values():
    rng = random.Random(3)
    spec = make_spectrum(
        "round trip",
        612.345678,
        2,
        *peaks(*[(rng.uniform(100, 1200), rng.uniform(0, 500)) for _ in range(40)]),
    )
    again = parse_mgf(emit_mgf([spec]))[0]
    assert again.title == spec.title
    assert again.charge == spec.charge
    assert again.pepmass == pytest.approx(spec.pepmass, abs=1e-6)
    assert len(again.peaks) == len(spec.peaks)
    for a, b in zip(again.peaks, spec.peaks):
        assert a.mz == pytest.approx(b.mz, abs=1e-6)
        assert a.intensity == pytest.approx(b.intensity, abs=1e-6)


def test_emit_single_peak_record_shape():
    spec = make_spectrum("one", 200.0, 1, *peaks((123.4, 5.0)))
    lines = emit_mgf([spec]).splitlines()
    begin, end = lines.index("BEGIN IONS"), lines.index("END IONS")
    peak_lines = [ln for ln in lines[begin + 1 : end] if "=" not in ln]
    assert len(peak_lines) == 1


def test_duplicate_mz_merged_keeping_max():
    spec = make_spectrum("d", 200.0, 1, *peaks((100.0, 1.0), (100.00004, 7.0), (101.0, 2.0)))
    assert len(spec.peaks) == 2
    assert spec.peaks[0].intensity == 7.0


def test_denoise_small_window_unchanged():
    values = [(100 + i, i + 1) for i in range(9)] + [ANCHOR]
    spec = make_spectrum("w", 300.0, 1, *peaks(*values))
    assert denoise(spec).peaks == spec.peaks


def test_denoise_modal_threshold_strictly_below():
    # 12 peaks in one window: intensity 1 x8 and 50 x4; mode is 1, nothing
    # is below it.
    values = [(100 + i, 1.0) for i in range(8)] + [(120 + i, 50.0) for i in range(4)]
    spec = make_spectrum("m", 300.0, 1, *peaks(*values, ANCHOR))
    assert len(denoise(spec).peaks) == 12 + 1


def test_denoise_drops_below_mode():
    values = [(100 + i, 5.0) for i in range(8)] + [(120.0, 1.0), (121.0, 2.0)] + [
        (130 + i, 9.0 + i) for i in range(2)
    ]
    spec = make_spectrum("m", 300.0, 1, *peaks(*values, ANCHOR))
    out = denoise(spec)
    kept = [p.intensity for p in out.peaks]
    assert 1.0 not in kept and 2.0 not in kept
    assert len(out.peaks) == 10 + 1


def test_denoise_mode_tie_takes_lowest():
    # 10 peaks in one window: intensities 1 x5 and 3 x5 tie; threshold
    # resolves to 1, keeping all.
    values = [(100 + i, 1.0) for i in range(5)] + [(110 + i, 3.0) for i in range(5)]
    spec = make_spectrum("t", 300.0, 1, *peaks(*values, ANCHOR))
    assert len(denoise(spec).peaks) == 10 + 1


def test_denoise_never_increases_count_and_keeps_mz():
    rng = random.Random(5)
    spec = make_spectrum(
        "r", 700.0, 2, *peaks(*[(rng.uniform(100, 900), rng.choice([1, 1, 2, 8])) for _ in range(60)])
    )
    out = denoise(spec)
    assert len(out.peaks) <= len(spec.peaks)
    original = {p.mz for p in spec.peaks}
    assert all(p.mz in original for p in out.peaks)


def test_normalize_window_arithmetic():
    spec = make_spectrum("n", 300.0, 1, *peaks((100.0, 4.0), (110.0, 16.0), ANCHOR))
    out = normalize(spec)
    # The anchor is the maximum of its own window.
    assert [p.intensity for p in out.peaks] == pytest.approx([0.5, 1.0, 1.0])


def test_normalize_single_peak_window():
    spec = make_spectrum("n", 300.0, 1, *peaks((100.0, 7.3)))
    assert normalize(spec).peaks[0].intensity == 1.0


def test_normalize_output_range_and_mz_preserved():
    rng = random.Random(6)
    spec = make_spectrum(
        "n", 700.0, 2, *peaks(*[(rng.uniform(100, 900), rng.uniform(0.5, 400)) for _ in range(50)])
    )
    out = normalize(spec)
    assert all(0.0 < p.intensity <= 1.0 for p in out.peaks)
    assert [p.mz for p in out.peaks] == [p.mz for p in spec.peaks]


def test_add_complements_inserts_partner(ladder_lgvtlyk):
    # Drop the y5 peak from a clean ladder, keep b2; its complement must come back.
    survivors = np.abs(ladder_lgvtlyk.mz - 623.358) > 1.0
    spec = make_spectrum(
        ladder_lgvtlyk.title,
        ladder_lgvtlyk.pepmass,
        ladder_lgvtlyk.charge,
        ladder_lgvtlyk.mz[survivors],
        ladder_lgvtlyk.intensity[survivors],
    )
    out = add_complements(spec)
    target = spec.precursor_mass + 2 * PROTON_MASS - 171.11  # complement of b2
    assert not any(abs(p.mz - target) < 0.6 for p in spec.peaks)
    assert any(abs(p.mz - target) < 0.6 for p in out.peaks)


def test_add_complements_idempotent(ladder_aaal):
    once = add_complements(ladder_aaal)
    twice = add_complements(once)
    assert [p.mz for p in twice.peaks] == [p.mz for p in once.peaks]


def test_add_complements_bounded_growth():
    rng = random.Random(9)
    spec = make_spectrum(
        "g", 500.0, 2, *peaks(*[(rng.uniform(100, 900), 1.0) for _ in range(25)])
    )
    out = add_complements(spec)
    assert len(out.peaks) <= 2 * len(spec.peaks)


def test_pickle_round_trip():
    spec = make_spectrum("pk", 500.0, 2, *peaks((171.11, 4.0), (310.18, 16.0)))
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec
    assert again.mz.tolist() == spec.mz.tolist()
    assert again.intensity.tolist() == spec.intensity.tolist()


def test_precursor_mass_is_the_chem_value_across_pickle():
    spec = make_spectrum("pm", 643.3, 3, *peaks((171.11, 4.0), (310.18, 16.0)))
    expected = chem.precursor_mass(643.3, 3)
    assert spec.precursor_mass == expected
    assert pickle.loads(pickle.dumps(spec)).precursor_mass == expected


def test_peak_arrays_read_only_across_pickle():
    spec = make_spectrum("ro", 500.0, 2, *peaks((171.11, 4.0), (310.18, 16.0)))
    for s in (spec, pickle.loads(pickle.dumps(spec))):
        for values in (s.mz, s.intensity):
            assert values.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0


def test_pipeline_preserves_metadata():
    rng = random.Random(11)
    spec = make_spectrum(
        "meta", 640.25, 2, *peaks(*[(rng.uniform(100, 1200), rng.uniform(1, 90)) for _ in range(80)])
    )
    out = preprocess(spec)
    assert out.title == spec.title
    assert out.pepmass == spec.pepmass
    assert out.charge == spec.charge


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(tolerance=0.0)


# Peaks and targets on a 1/128 grid are exact in binary, so differences are
# exact and a target halfway between two peaks is a true tie.
grid_mz = st.lists(st.integers(1, 2**18), unique=True).map(
    lambda ks: np.array(sorted(ks), dtype=np.float64) / 64
)
grid_targets = st.lists(st.integers(-64, 2**19 + 64)).map(
    lambda ks: np.array(ks, dtype=np.float64) / 128
)


@given(grid_mz, grid_targets)
def test_nearest_peaks_matches_brute_force(mz, targets):
    targets = np.concatenate([targets, (mz[:-1] + mz[1:]) / 2])  # every tie
    nearest, dist = nearest_peaks(mz, targets)
    assert len(nearest) == len(dist) == len(targets)
    if len(mz) == 0:
        assert (nearest == -1).all() and np.isinf(dist).all()
        return
    gaps = np.abs(targets[:, None] - mz[None, :])
    # argmin takes the first minimum: ties go to the lower peak.
    assert nearest.tolist() == gaps.argmin(axis=1).tolist()
    assert dist.tolist() == gaps.min(axis=1).tolist()


@given(grid_mz.filter(len), st.floats(200.0, 3000.0), st.integers(1, 3))
def test_partner_distance_matches_brute_force(mz, pepmass, charge):
    spec = make_spectrum("p", pepmass, charge, mz, [1.0] * len(mz))
    partners = spec.precursor_mass + 2 * PROTON_MASS - mz
    expected = np.abs(partners[:, None] - mz[None, :]).min(axis=1)
    assert spec.partner_distance.tolist() == expected.tolist()


# m/z on the 1e-6 grid that MGF text holds, so the merge of near-duplicate
# peaks decides the same way on both sides of the round trip.
@given(
    st.text(st.characters(min_codepoint=32, max_codepoint=126)).map(str.strip),
    st.floats(100.0, 5000.0),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 5 * 10**9), st.floats(0.0, 1e6)), min_size=1),
)
# 1.1640625 is written as 1.164062, whose float lies a hair more than 5e-7
# below it; each value must read back as its 6-decimal text, exactly.
@example("", 100.0, 1, [(1, 1.1640625)])
def test_mgf_round_trip_at_six_decimals(title, pepmass, charge, raw):
    spec = make_spectrum(title, pepmass, charge, *peaks(*[(k / 1e6, i) for k, i in raw]))
    (again,) = parse_mgf(emit_mgf([spec]))
    assert (again.title, again.charge) == (title, charge)
    assert again.pepmass == float(f"{pepmass:.6f}")
    assert [p.mz for p in again.peaks] == [p.mz for p in spec.peaks]
    for a, b in zip(again.peaks, spec.peaks):
        assert a.intensity == float(f"{b.intensity:.6f}")


def merged_reference(raw):
    """The merge rule stated sequentially: in stable m/z order, a peak closer
    than the tolerance to the last kept peak replaces it if more intense."""
    kept = []
    for mz, intensity in sorted(raw, key=lambda peak: peak[0]):
        if kept and mz - kept[-1][0] < DUPLICATE_MZ_TOLERANCE:
            if intensity > kept[-1][1]:
                kept[-1] = (mz, intensity)
        else:
            kept.append((mz, intensity))
    return kept


# Besides arbitrary m/z, chains of near-duplicates a quarter tolerance apart
# (equal m/z included) with repeated intensities, where the merge order shows.
near_mz = st.one_of(
    st.floats(100.0, 100.01),
    st.integers(0, 400).map(lambda k: 100.0 + k * DUPLICATE_MZ_TOLERANCE / 4),
)
heights = st.one_of(st.floats(0.0, 100.0), st.sampled_from([1.0, 2.0]))


@given(st.lists(st.tuples(near_mz, heights), max_size=40))
def test_make_spectrum_idempotent(raw):
    spec = make_spectrum("m", 500.0, 2, *peaks(*raw))
    assert list(spec.peaks) == merged_reference(raw)
    again = make_spectrum(spec.title, spec.pepmass, spec.charge, spec.mz, spec.intensity)
    assert again == spec
    gaps = np.diff(spec.mz)
    assert (gaps >= DUPLICATE_MZ_TOLERANCE).all()


# Off-grid m/z, many a whole number of tolerances apart give or take 1e-6,
# where rounding to the six decimals that MGF text holds can move a gap
# across the tolerance.
off_grid_mz = st.one_of(
    st.floats(100.0, 100.001),
    st.tuples(st.integers(0, 40), st.floats(-1e-6, 1e-6)).map(
        lambda kj: 627.09 + kj[0] * DUPLICATE_MZ_TOLERANCE + kj[1]
    ),
)


@example([(627.0900366, 1.0), (627.0901374, 2.0)])
@given(st.lists(st.tuples(off_grid_mz, heights), min_size=1, max_size=40))
def test_emit_mgf_writes_only_peaks_that_parsing_keeps(raw):
    spec = make_spectrum("e", 500.0, 2, *peaks(*raw))
    text = emit_mgf([spec])
    peak_lines = [line for line in text.splitlines() if line[:1].isdigit()]
    (parsed,) = parse_mgf(text)
    assert len(parsed.mz) == len(peak_lines)
    assert emit_mgf([parsed]) == text
