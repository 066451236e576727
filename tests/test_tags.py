import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopep import (
    adjust_mass,
    build_init_pool,
    extract_tags,
    make_spectrum,
)
from evopep.chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    is_tryptic,
    parent_mass,
    residue_mass,
)
from evopep.tags import random_peptide, random_sequence_from_tags
from tests.conftest import clean_spectrum

TAU = 0.5
DELTA_BOUND = residue_mass("G") + TAU


def spectrum_at(mzs, pepmass=600.0, charge=2):
    return make_spectrum("t", pepmass, charge, mzs, [1.0] * len(mzs))


def brute_force_tags(spec, tau):
    """Quadruple-loop reference enumeration of all 3-letter tags."""
    mz = [p.mz for p in spec.peaks]
    labels = sorted(sym for sym in RESIDUE_MASSES if sym != "I")
    found = set()
    n = len(mz)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(k + 1, n):
                    for a in labels:
                        if abs(mz[j] - mz[i] - RESIDUE_MASSES[a]) > tau:
                            continue
                        for b in labels:
                            if abs(mz[k] - mz[j] - RESIDUE_MASSES[b]) > tau:
                                continue
                            for c in labels:
                                if abs(mz[m] - mz[k] - RESIDUE_MASSES[c]) > tau:
                                    continue
                                found.add(((i, j, k, m), a + b + c))
    return found


def test_hand_built_all_tag():
    spec = spectrum_at([200.0, 271.037, 384.121, 497.205])
    tags = extract_tags(spec, TAU)
    assert {(t.peak_indices, t.residues) for t in tags} == {((0, 1, 2, 3), "ALL")}
    assert tags[0].start_mz == 200.0


def test_too_few_peaks_gives_no_tags():
    assert extract_tags(spectrum_at([100.0, 200.0, 300.0]), TAU) == []


def test_tags_revalidate_against_spectrum():
    spec = clean_spectrum("LGVTLYK")
    mz = [p.mz for p in spec.peaks]
    for tag in extract_tags(spec, TAU):
        i, j, k, m = tag.peak_indices
        assert i < j < k < m
        for (a, b), sym in zip(((i, j), (j, k), (k, m)), tag.residues):
            assert abs(mz[b] - mz[a] - RESIDUE_MASSES[sym]) <= TAU


def test_clean_ladder_contains_interior_three_mers():
    pep = "LGVTLYK"
    spec = clean_spectrum(pep)
    residues = {t.residues for t in extract_tags(spec, TAU)}
    interior = pep[1:-1]
    for start in range(len(interior) - 2):
        assert interior[start : start + 3] in residues


def test_extract_equals_brute_force_random_spectra():
    rng = random.Random(31)
    for _ in range(10):
        count = rng.randint(4, 20)
        mzs = sorted(rng.uniform(100, 700) for _ in range(count))
        spec = spectrum_at(mzs)
        fast = {(t.peak_indices, t.residues) for t in extract_tags(spec, TAU)}
        assert fast == brute_force_tags(spec, TAU)


def test_random_sequence_from_tags_shape():
    spec = spectrum_at([200.0, 271.037, 384.121, 497.205, 554.226])
    tags = [tag.residues for tag in extract_tags(spec, TAU)]
    rng = random.Random(4)
    lengths = set()
    for _ in range(200):
        seq = random_sequence_from_tags(tags, rng)
        assert is_tryptic(seq)
        lengths.add(len(seq))
    assert lengths <= {7, 10, 13}
    assert len(lengths) == 3


def test_random_sequence_fallback_without_tags():
    rng = random.Random(4)
    for _ in range(100):
        seq = random_sequence_from_tags([], rng)
        assert 7 <= len(seq) <= 12
        assert is_tryptic(seq)


def test_random_peptide_terminal_balance():
    rng = random.Random(8)
    terminals = {random_peptide(rng)[-1] for _ in range(100)}
    assert terminals == {"K", "R"}


def test_adjust_mass_noop_when_within_bound():
    seq = "LGVTLYK"
    precursor = parent_mass(seq) + 0.01
    out, ok = adjust_mass(seq, precursor, random.Random(1), TAU)
    assert ok and out == seq


def test_adjust_mass_reaches_bound_on_random_fixtures():
    rng = random.Random(12)
    for _ in range(1000):
        seq = random_peptide(rng, 5, 14)
        precursor = parent_mass(seq) + rng.uniform(-250, 250)
        if precursor <= 60:
            continue
        out, ok = adjust_mass(seq, precursor, rng, TAU)
        if ok:
            assert abs(precursor - parent_mass(out)) < DELTA_BOUND
            assert out[-1] == seq[-1]
            assert len(out) >= 2


def test_adjust_mass_heavy_by_one_residue():
    rng = random.Random(13)
    seq = "LGVQTLYK"
    precursor = parent_mass("LGVTLYK")  # one Q too heavy
    hits = 0
    for _ in range(50):
        out, ok = adjust_mass(seq, precursor, rng, TAU)
        if ok:
            hits += 1
            assert abs(precursor - parent_mass(out)) < DELTA_BOUND
    assert hits > 40


def test_adjust_mass_gives_up_at_length_cap():
    precursor = parent_mass("W" * 62 + "K")
    seq, ok = adjust_mass("GK", precursor, random.Random(1), TAU)
    assert not ok and len(seq) <= MAX_PEPTIDE_LENGTH


def test_adjust_mass_rejects_two_residue_removal():
    seq = "WK"
    precursor = 80.0  # far lighter than any 2-residue peptide
    out, ok = adjust_mass(seq, precursor, random.Random(2), TAU)
    assert not ok


@settings(max_examples=200, deadline=None)
@given(
    st.text(CANONICAL_ALPHABET, min_size=1, max_size=20),
    st.sampled_from(TRYPTIC_TERMINALS),
    st.floats(-1500.0, 1500.0),
    st.integers(0, 40),
    st.integers(0, 2**32),
)
# Removing E from AEK overshoots (63 Da heavy -> 66 Da light) on the last
# allowed step, so the best sequence seen is the first one, not the last.
@example("AE", "K", -63.0, 1, 288)
def test_adjust_mass_properties(body, terminal, offset, max_iterations, seed):
    seq = body + terminal
    precursor = parent_mass(seq) + offset
    seen = []

    def recording_parent_mass(candidate):
        seen.append(candidate)
        return parent_mass(candidate)

    with mock.patch("evopep.tags.parent_mass", recording_parent_mass):
        out, ok = adjust_mass(seq, precursor, random.Random(seed), TAU, max_iterations)
    assert out[-1] == terminal
    assert len(seen) <= max_iterations + 1
    assert out in seen
    delta = abs(precursor - parent_mass(out))
    if ok:
        assert delta < DELTA_BOUND
    else:
        assert delta == min(abs(precursor - parent_mass(s)) for s in seen)


def test_build_init_pool_extracts_tags_once(monkeypatch):
    import evopep.tags

    spec = clean_spectrum("LGVTLYK")
    calls = []

    def extract_spy(spec, tau):
        calls.append(tau)
        return extract_tags(spec, tau)

    monkeypatch.setattr(evopep.tags, "extract_tags", extract_spy)
    for seed in range(3):
        build_init_pool(spec, TAU, 20, random.Random(seed))
    assert calls == [TAU]
    assert spec.tag_residues == {TAU: [tag.residues for tag in extract_tags(spec, TAU)]}


def test_build_init_pool_invariants():
    spec = clean_spectrum("AAALAAADAR")
    rng = random.Random(77)
    pool = build_init_pool(spec, TAU, 200, rng)
    assert len(pool.candidates) == 200
    for cand in pool.candidates:
        assert is_tryptic(cand.peptide)
        assert abs(cand.delta_mass) < DELTA_BOUND


def test_build_init_pool_zero_size():
    spec = clean_spectrum("AAALAAADAR")
    pool = build_init_pool(spec, TAU, 0, random.Random(1))
    assert pool.candidates == ()


def test_build_init_pool_reproducible():
    spec = clean_spectrum("LGVTLYK")
    a = build_init_pool(spec, TAU, 150, random.Random("seed"))
    b = build_init_pool(spec, TAU, 150, random.Random("seed"))
    assert [c.peptide for c in a.candidates] == [c.peptide for c in b.candidates]
    assert [c.fitness for c in a.candidates] == [c.fitness for c in b.candidates]


def test_build_init_pool_candidates_distinct():
    spec = clean_spectrum("LGVTLYK")
    pool = build_init_pool(spec, TAU, 150, random.Random(5))
    peptides = [c.peptide for c in pool.candidates]
    assert len(set(peptides)) == len(peptides)
