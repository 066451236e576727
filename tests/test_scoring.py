import random

import pytest

from evopep import (
    Individual,
    InvalidSpectrumError,
    fitness,
    fitness_from_terms,
    make_spectrum,
    match_peaks,
    nterm_cterm_scores,
    theoretical_spectrum,
)
from evopep.chem import PROTON_MASS, InvalidPeptideError, parent_mass
from evopep.evaluation import random_tryptic_peptide
from tests.conftest import clean_spectrum

TAU = 0.5


def test_ladder_lgvtlyk_matches_published_values():
    theo = theoretical_spectrum("LGVTLYK")
    assert [round(m) for m in theo.b_ions] == [114, 171, 270, 371, 484, 647]
    assert [round(m) for m in theo.y_ions] == [147, 310, 423, 524, 623, 680]


def test_gk_ladder_and_no_internals():
    theo = theoretical_spectrum("GK")
    assert [round(m) for m in theo.b_ions] == [58]
    assert [round(m) for m in theo.y_ions] == [147]
    assert theo.internal_ions == ()


def test_internal_ions_are_interior_b_type():
    theo = theoretical_spectrum("AGSK")
    # only interior run of length >= 2 is GS
    expected = 57.0214637 + 87.0320284 + PROTON_MASS
    assert len(theo.internal_ions) == 1
    assert theo.internal_ions[0] == pytest.approx(expected, abs=1e-6)


def test_ladders_strictly_increasing():
    theo = theoretical_spectrum("LGVTLYKDES")
    assert all(a < b for a, b in zip(theo.b_ions, theo.b_ions[1:]))
    assert all(a < b for a, b in zip(theo.y_ions, theo.y_ions[1:]))


def test_complementarity_identity_random_peptides():
    rng = random.Random(17)
    for _ in range(1000):
        length = rng.randint(2, 20)
        seq = "".join(rng.choice("ACDEFGHKLMNPQRSTVWY") for _ in range(length))
        theo = theoretical_spectrum(seq)
        total = parent_mass(seq) + 2 * PROTON_MASS
        for j in range(length - 1):
            assert abs(theo.b_ions[j] + theo.y_ions[length - 2 - j] - total) < 1e-9


def test_theoretical_spectrum_rejects_short_peptide():
    with pytest.raises(InvalidPeptideError):
        theoretical_spectrum("K")


def test_self_match_all_ions_hit(ladder_lgvtlyk):
    theo = theoretical_spectrum("LGVTLYK")
    result = match_peaks(theo, ladder_lgvtlyk, TAU)
    assert all(result.b_matched)
    assert all(result.y_matched)


def test_empty_spectrum_matches_nothing():
    spec = make_spectrum("mt", 400.0, 2, [], [])
    theo = theoretical_spectrum("LGVTLYK")
    result = match_peaks(theo, spec, TAU)
    assert not any(result.b_matched)
    assert not any(result.y_matched)
    assert result.matched_peaks == ()


def brute_force_match(ions, spec, tau):
    """All-pairs reference matcher: ion j matched iff any peak within tau."""
    flags = []
    hit_peaks = set()
    for ion in ions:
        best = None
        for idx, peak in enumerate(spec.peaks):
            if abs(peak.mz - ion) <= tau:
                if best is None or abs(peak.mz - ion) < abs(spec.peaks[best].mz - ion):
                    best = idx
        flags.append(best is not None)
        if best is not None:
            hit_peaks.add(best)
    return flags, hit_peaks


def test_matcher_agrees_with_brute_force_on_fixture():
    spec = make_spectrum(
        "fx",
        400.0,
        2,
        [100.0, 100.6, 171.2, 310.0, 550.0],
        [1.0] * 5,
    )
    theo = theoretical_spectrum("LGVTLYK")
    result = match_peaks(theo, spec, TAU)
    for ions, flags in (
        (theo.b_ions, result.b_matched),
        (theo.y_ions, result.y_matched),
        (theo.internal_ions, result.internal_matched),
    ):
        expected, _ = brute_force_match(ions, spec, TAU)
        assert list(flags) == expected


def test_shared_peak_counted_once():
    # one experimental peak within tau of two theoretical ions
    spec = make_spectrum("sp", 400.0, 2, [171.3], [5.0])
    theo = theoretical_spectrum("LGVTLYK")  # b2 = 171.11; internal GV = 157.6 no
    result = match_peaks(theo, spec, TAU)
    assert result.matched_peaks == (0,)


def test_match_peaks_agrees_with_fitness(ladder_aaal):
    intensities = ladder_aaal.intensity
    for pep in ("AAALAAADAR", "AAALAGGWR", "LGVTLYK", "GGGGK", "DAAAALAAAR"):
        assignment = match_peaks(theoretical_spectrum(pep), ladder_aaal, TAU)
        result = fitness(pep, ladder_aaal, TAU)
        matched = intensities[list(assignment.matched_peaks)].sum()
        assert matched == result.matched_intensity_sum
        flags = assignment.b_matched + assignment.y_matched
        assert flags.count(False) == result.n_unmatched


def test_nterm_cterm_ground_truth(ladder_aaal):
    assert nterm_cterm_scores("AAALAAADAR", ladder_aaal, TAU) == (8, 8)


def test_nterm_partial_prefix_parent(ladder_aaal):
    # shares only the 5-residue prefix AAALA with the true peptide
    nterm, _ = nterm_cterm_scores("AAALAGGWR", ladder_aaal, TAU)
    assert nterm == 4


def test_scores_on_empty_spectrum():
    spec = make_spectrum("mt", 400.0, 2, [], [])
    assert nterm_cterm_scores("LGVTLYK", spec, TAU) == (0, 0)


def test_scores_bounded_and_maximal_on_self_match():
    rng = random.Random(23)
    for _ in range(20):
        pep = random_tryptic_peptide(rng)
        spec = clean_spectrum(pep)
        nterm, cterm = nterm_cterm_scores(pep, spec, TAU)
        assert nterm == len(pep) - 2
        assert cterm == len(pep) - 2


def test_fitness_assembly_ground_truth_row():
    value = fitness_from_terms(0.595, 0.000003, 8, 8, 0, 10)
    assert value == pytest.approx(2.1950, abs=0.0005)


def test_fitness_assembly_cterm_parent_row():
    # reproduce the published row from its own printed terms (N printed
    # normalized) within +/- 0.01
    value = 0.58 - 0.000002 + (0 + 7) / 9 - 0.02
    assert value == pytest.approx(1.34, abs=0.01)


def test_fitness_no_match_closed_form():
    # spectrum with one far-away peak, precursor equal to the parent mass
    pep = "GGGGK"
    pepmass = (parent_mass(pep) + 2 * PROTON_MASS) / 2
    spec = make_spectrum("far", pepmass, 2, [5000.0], [3.0])
    result = fitness(pep, spec, TAU)
    length = len(pep)
    assert result.fitness == pytest.approx(-2 * (length - 1) / length, abs=1e-9)
    assert result.n_unmatched == 2 * (length - 1)


def test_fitness_self_match_dominates_and_terms(ladder_aaal):
    result = fitness("AAALAAADAR", ladder_aaal, TAU)
    assert result.n_unmatched == 0
    assert abs(result.delta_mass) < 1e-6
    assert result.nterm == result.cterm == 8
    assert result.matched_intensity_sum == pytest.approx(result.total_intensity_sum)


def test_fitness_monotone_in_delta():
    for d1, d2 in ((0.0, 0.1), (0.1, 0.5), (0.5, 5.0)):
        f1 = fitness_from_terms(0.5, d1 / 900.0, 3, 3, 2, 9)
        f2 = fitness_from_terms(0.5, d2 / 900.0, 3, 3, 2, 9)
        assert f1 >= f2


def test_intensity_term_scale_invariant(ladder_aaal):
    scaled = make_spectrum(
        ladder_aaal.title,
        ladder_aaal.pepmass,
        ladder_aaal.charge,
        ladder_aaal.mz,
        ladder_aaal.intensity * 3.7,
    )
    a = fitness("AAALAGGWR", ladder_aaal, TAU)
    b = fitness("AAALAGGWR", scaled, TAU)
    ratio_a = a.matched_intensity_sum / a.total_intensity_sum
    ratio_b = b.matched_intensity_sum / b.total_intensity_sum
    assert ratio_a == pytest.approx(ratio_b, abs=1e-12)
    assert a.fitness == pytest.approx(b.fitness, abs=1e-9)


def test_fitness_rejects_zero_intensity():
    spec = make_spectrum("z", 400.0, 2, [100.0], [0.0])
    with pytest.raises(InvalidSpectrumError):
        fitness("LGVTLYK", spec, TAU)


def test_fitness_rejects_short_peptide(ladder_aaal):
    with pytest.raises(InvalidPeptideError):
        fitness("K", ladder_aaal, TAU)


def test_individual_caches_scores(ladder_aaal):
    ind = Individual.score("AAALAAADAR", ladder_aaal, TAU)
    again = Individual.score("AAALAAADAR", ladder_aaal, TAU)
    assert ind is again
    assert ind.fitness == pytest.approx(2.6, abs=1e-9)
