import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evopep import (
    Scorer,
    chem,
    compute_metrics,
    extract_tags,
    fitness,
    matched_amino_acids,
)
from tests.conftest import clean_spectrum

# Monoisotopic element masses, used to recompute residue masses from their
# elemental formulas as an independent check of the table.
H = 1.0078250319
C = 12.0
N = 14.0030740052
O = 15.9949146221
S = 31.97207069


def formula_mass(c, h, n, o, s=0):
    return c * C + h * H + n * N + o * O + s * S


def test_glycine_mass_matches_elemental_formula():
    # glycine residue C2H3NO
    assert chem.residue_mass("G") == pytest.approx(formula_mass(2, 3, 1, 1), abs=1e-5)


def test_alphabet_has_twenty_entries():
    assert len(chem.RESIDUE_MASSES) == 20
    assert set(chem.RESIDUE_MASSES) == set("ACDEFGHIKLMNPQRSTVWY")


def test_isoleucine_equals_leucine():
    assert chem.residue_mass("I") == chem.residue_mass("L")


def test_glycine_is_strictly_smallest():
    others = [m for sym, m in chem.RESIDUE_MASSES.items() if sym != "G"]
    assert chem.residue_mass("G") < min(others)


def test_nominal_masses_match_published_tables():
    # single residues from the conflict-mass table
    assert round(chem.residue_mass("W")) == 186
    assert round(chem.residue_mass("R")) == 156
    assert round(chem.residue_mass("Q")) == 128
    assert round(chem.residue_mass("N")) == 114


def test_unknown_symbol_rejected():
    with pytest.raises(chem.InvalidResidueError):
        chem.residue_mass("B")


def test_parent_mass_lgvtlyk_nominal():
    assert round(chem.parent_mass("LGVTLYK")) == 792


def test_parent_mass_gg_hand_sum():
    expected = 2 * 57.0214637 + 18.0105647
    assert chem.parent_mass("GG") == pytest.approx(expected, abs=1e-5)


def test_parent_mass_rejects_empty():
    with pytest.raises(chem.InvalidPeptideError):
        chem.parent_mass("")


def test_parent_mass_rejects_overlong():
    with pytest.raises(chem.InvalidPeptideError):
        chem.parent_mass("A" * 65)


def test_parent_mass_permutation_invariant():
    rng = random.Random(1)
    seq = "LGVTLYKDESW"
    base = chem.parent_mass(seq)
    for _ in range(20):
        shuffled = list(seq)
        rng.shuffle(shuffled)
        assert chem.parent_mass("".join(shuffled)) == pytest.approx(base, abs=1e-9)


def test_precursor_mass_examples():
    assert chem.precursor_mass(415.2255, 2) == pytest.approx(828.43645, abs=1e-5)
    assert chem.precursor_mass(100.0, 1) == pytest.approx(98.99272353, abs=1e-9)


def test_precursor_mass_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chem.precursor_mass(0, 2)
    with pytest.raises(ValueError):
        chem.precursor_mass(500.0, 0)
    # A pepmass at or below one proton gives a neutral mass of 0 or below.
    for pepmass, charge in (chem.PROTON_MASS, 1), (0.5, 2), (1.0, 3):
        with pytest.raises(ValueError, match="neutral precursor mass must be positive"):
            chem.precursor_mass(pepmass, charge)


@pytest.mark.parametrize(
    "pepmass,charge",
    [(1e308, 2), (1.7e308, 2), (9e307, 3), (500.0, 10**400)],
    ids=["1e308", "1.7e308", "9e307", "huge-charge"],
)
def test_precursor_mass_refuses_an_overflowing_result(pepmass, charge):
    # Each input is finite, but pepmass * charge overflows: to inf, or past
    # what a float can hold when the charge is converted.
    with pytest.raises(ValueError, match="neutral precursor mass must be finite"):
        chem.precursor_mass(pepmass, charge)


def test_conflict_dictionary_contents():
    replacements = chem.CONFLICT_REPLACEMENTS
    assert replacements["W"] == ("DA", "AD", "EG", "GE", "VS", "SV")
    assert replacements["R"] == ("VG", "GV")
    assert replacements["Q"] == ("AG", "GA")
    assert replacements["N"] == ("GG",)
    assert set(replacements) == {"W", "R", "Q", "N"}


def test_conflict_masses_agree_at_nominal_and_monoisotopic():
    for single, replacements in chem.CONFLICT_REPLACEMENTS.items():
        single_mass = chem.residue_mass(single)
        for pair in replacements:
            pair_mass = sum(chem.residue_mass(sym) for sym in pair)
            assert round(pair_mass) == round(single_mass)
            assert abs(single_mass - pair_mass) < 0.05


def test_canonicalization_folds_isoleucine():
    assert chem.canonical("PEPTIDE") == "PEPTLDE"
    assert chem.validate_peptide("gik") == "GLK"


def test_validate_peptide_names_the_first_bad_symbol():
    with pytest.raises(chem.InvalidResidueError, match="unknown amino-acid symbol 'X'"):
        chem.validate_peptide("AXZ")


SYMBOLS_IN_EITHER_CASE = "".join(chem.RESIDUE_MASSES) + "".join(chem.RESIDUE_MASSES).lower()


@given(st.text(SYMBOLS_IN_EITHER_CASE, min_size=1, max_size=64))
# Here left to right differs from a compensated sum, such as the builtin
# ``sum`` of floats from Python 3.12 on, and from the exactly rounded one.
@example("RGFLDNMY")
def test_parent_mass_equals_generator_sum(peptide):
    # A plain float loop, left to right: the order of every Python's result.
    expected = 0.0
    for sym in chem.canonical(peptide):
        expected += chem.RESIDUE_MASSES[sym]
    assert chem.parent_mass(peptide) == expected + chem.H2O_MASS
    # The unvalidated sum gives the same bits on the string as passed.
    assert chem.unchecked_parent_mass(peptide) == expected + chem.H2O_MASS


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64)))
@example([1e16, 1.0, -1e16])
def test_left_to_right_sum_is_a_plain_loop(values):
    expected = 0.0
    for value in values:
        expected += value
    assert chem.left_to_right_sum(values) == expected
    assert chem.left_to_right_sum(iter(values)) == expected


# Each library entry that takes a fragment tolerance, called at ``tau``.
TOLERANCE_TAKERS = {
    "fitness": lambda spec, tau: fitness("LGVTLYK", spec, tau),
    "Scorer": Scorer,
    "extract_tags": extract_tags,
    "matched_amino_acids": lambda spec, tau: matched_amino_acids(
        "LGVTLYK", "LGVTLYK", tau
    ),
    "compute_metrics": lambda spec, tau: compute_metrics([("LGVTLYK", "LGVTLYK")], tau),
}


@pytest.mark.parametrize("tau", [float("nan"), -1.0, 0.0, float("inf"), 28.52])
@pytest.mark.parametrize("name", TOLERANCE_TAKERS)
def test_every_tolerance_taker_refuses_what_check_tolerance_refuses(name, tau):
    # Unchecked, nan matched no peak (fitness 0.65 in place of 2.03 at 0.5),
    # a negative tau gave a negative fitness, and a wide one made every peak
    # pair a tag edge.
    with pytest.raises(ValueError, match=r"^tau must be (finite and positive|below)"):
        TOLERANCE_TAKERS[name](clean_spectrum("LGVTLYK"), tau)
