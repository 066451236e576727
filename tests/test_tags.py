import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopep import Scorer, build_init_pool, extract_tags, make_spectrum
from evopep.chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    parent_mass,
    residue_mass,
    unchecked_parent_mass,
)
from evopep.tags import (
    Tag,
    adjust_mass,
    precursor_reachable,
    random_peptide,
    random_sequence_from_tags,
)
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


def reference_tags(spec, tau):
    """Every tag, built by nested loops over the labelled peak pairs."""
    mz = spec.mz.tolist()
    limit = max(RESIDUE_MASSES.values()) + tau
    edges = [[] for _ in mz]
    for i in range(len(mz)):
        for j in range(i + 1, len(mz)):
            gap = mz[j] - mz[i]
            if gap > limit:
                break
            for sym in CANONICAL_ALPHABET:
                if abs(gap - RESIDUE_MASSES[sym]) <= tau:
                    edges[i].append((j, sym))
    return [
        Tag((i, j, k, m), a + b + c, mz[i])
        for i in range(len(mz))
        for j, a in edges[i]
        for k, b in edges[j]
        for m, c in edges[k]
    ]


@st.composite
def tag_spectra(draw):
    """Peaks chained by residue-mass gaps, each off by up to tau (often by
    exactly 0, tau/2 or tau), with a few free peaks in between, so that
    ambiguous labels, skipped peaks and tolerance edges all occur. At tau
    1.0 the L/N/D and Q/K/E windows overlap, at tau 20.0 all of them do;
    a tau drawn from 0.01-3.0 falls near where two windows start to
    overlap, such as K/Q at about 0.018."""
    tau = draw(st.sampled_from([0.5, 0.25, 0.05, 1.0, 20.0]) | st.floats(0.01, 3.0))
    mz = [draw(st.floats(100.0, 300.0))]
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            step = RESIDUE_MASSES[draw(st.sampled_from(CANONICAL_ALPHABET))]
            step += tau * draw(
                st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.1, 1.1)
            )
        else:
            step = draw(st.floats(0.5, 200.0))
        mz.append(mz[-1] + step)
    return spectrum_at(mz), tau


def ladder(tau, mz, *rest):
    """Peaks ``mz``, then one more per residue of ``rest``, each that
    residue's mass above the last."""
    mz = list(mz)
    for sym in rest:
        mz.append(mz[-1] + RESIDUE_MASSES[sym])
    return spectrum_at(mz), tau


def on_edge(tau, sym, sign, *rest):
    """A ladder whose first gap is exactly mass(sym) + sign * tau."""
    return ladder(tau, [0.5, 0.5 + (RESIDUE_MASSES[sym] + sign * tau)], *rest)


# Each first gap sits exactly on a window edge; a W gap at +tau is also
# exactly the largest gap an edge may span.
EDGE_CASES = [
    on_edge(0.5, "W", 1, "K", "E"),
    on_edge(0.5, "N", -1, "G", "A"),
    on_edge(1.0, "N", -1, "K", "T"),
    on_edge(1.0, "W", 1, "E", "D"),
    on_edge(20.0, "W", 1, "G", "W"),
    on_edge(20.0, "G", -1, "V", "R"),
]
# Each first gap passes the tolerance test, yet the second peak lies just
# outside mz[0] + (mass ± tau) as floats compute it: M at the top of its
# window at tau 1.0, and R at the bottom of its window at tau 0.5.
ROUNDED_CASES = [
    ladder(1.0, [121.396597, 253.43708160000003], "K", "E"),
    ladder(0.5, [72.291554, 227.892665], "G", "A"),
]


def edge_examples(*extra):
    def add(test):
        for case in EDGE_CASES + ROUNDED_CASES:
            test = example(case, *extra)(test)
        return test

    return add


def test_edge_cases_sit_on_the_edges():
    limit = max(RESIDUE_MASSES.values())
    at_limit = 0
    for spec, tau in EDGE_CASES:
        gap = spec.mz[1] - spec.mz[0]
        assert any(abs(gap - mass) == tau for mass in RESIDUE_MASSES.values())
        at_limit += gap == limit + tau
    assert at_limit == 3
    for (spec, tau), sym in zip(ROUNDED_CASES, "MR"):
        first, second = spec.mz[:2]
        mass = RESIDUE_MASSES[sym]
        assert abs((second - first) - mass) <= tau
        assert not first + (mass - tau) <= second <= first + (mass + tau)


@settings(max_examples=150, deadline=None)
@given(tag_spectra())
@edge_examples()
def test_tag_index_equals_nested_loops(case):
    spec, tau = case
    ref = reference_tags(spec, tau)
    index = extract_tags(spec, tau)
    assert len(index) == len(ref)
    assert [index.tag(t) for t in range(len(index))] == ref
    assert list(index) == [tag.residues for tag in ref]
    if ref:
        assert index[-1] == ref[-1].residues
        assert index.tag(-1) == ref[-1]
        assert index[-len(ref)] == ref[0].residues
        assert index.tag(-len(ref)) == ref[0]
    for bad in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            index[bad]
        with pytest.raises(IndexError):
            index.tag(bad)


@settings(max_examples=50, deadline=None)
@given(tag_spectra(), st.integers(0, 2**32))
@edge_examples(7)
def test_draws_from_index_equal_draws_from_list(case, seed):
    spec, tau = case
    index = extract_tags(spec, tau)
    listed = [tag.residues for tag in reference_tags(spec, tau)]
    from_index, from_list = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert random_sequence_from_tags(
            index, from_index
        ) == random_sequence_from_tags(listed, from_list)


def test_extract_tags_bounded_on_1200_random_peaks():
    rng = random.Random(1200)
    spec = spectrum_at([rng.uniform(100.0, 2000.0) for _ in range(1200)])
    started = time.perf_counter()
    count = len(extract_tags(spec, TAU))
    elapsed = time.perf_counter() - started
    tracemalloc.start()
    try:
        extract_tags(spec, TAU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 50e6
    # Labelled edge counts as a matrix: 3-edge paths are 1' A A A 1.
    gaps = spec.mz[None, :] - spec.mz[:, None]
    adjacency = sum(
        (np.abs(gaps - RESIDUE_MASSES[sym]) <= TAU).astype(float)
        for sym in CANONICAL_ALPHABET
    )
    paths = adjacency @ (adjacency @ adjacency.sum(axis=1))
    assert count == int(paths.sum()) > 1_000_000


def test_extract_tags_memory_bounded_on_1200_random_peaks():
    # Candidate pairs are taken one label at a time, and the index stores 8
    # bytes per entry: the traced peak is about 1.3 MB. All pairs within the
    # heaviest residue, with a bool column per label and the index in Python
    # lists, peaked at 8.1 MB.
    rng = random.Random(1200)
    spec = spectrum_at([rng.uniform(100.0, 2000.0) for _ in range(1200)])
    tracemalloc.start()
    try:
        index = extract_tags(spec, TAU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) > 1_000_000
    assert peak < 4e6


def test_hand_built_all_tag():
    spec = spectrum_at([200.0, 271.037, 384.121, 497.205])
    tags = extract_tags(spec, TAU)
    assert list(tags) == ["ALL"]
    assert tags.tag(0) == Tag((0, 1, 2, 3), "ALL", 200.0)


def test_too_few_peaks_gives_no_tags():
    assert list(extract_tags(spectrum_at([100.0, 200.0, 300.0]), TAU)) == []


def test_tags_revalidate_against_spectrum():
    spec = clean_spectrum("LGVTLYK")
    mz = [p.mz for p in spec.peaks]
    tags = extract_tags(spec, TAU)
    assert len(tags) > 0
    for tag in map(tags.tag, range(len(tags))):
        i, j, k, m = tag.peak_indices
        assert i < j < k < m
        for (a, b), sym in zip(((i, j), (j, k), (k, m)), tag.residues):
            assert abs(mz[b] - mz[a] - RESIDUE_MASSES[sym]) <= TAU


def test_clean_ladder_contains_interior_three_mers():
    pep = "LGVTLYK"
    spec = clean_spectrum(pep)
    residues = set(extract_tags(spec, TAU))
    interior = pep[1:-1]
    for start in range(len(interior) - 2):
        assert interior[start : start + 3] in residues


def test_extract_equals_brute_force_random_spectra():
    rng = random.Random(31)
    for _ in range(10):
        count = rng.randint(4, 20)
        mzs = sorted(rng.uniform(100, 700) for _ in range(count))
        spec = spectrum_at(mzs)
        tags = extract_tags(spec, TAU)
        fast = {(tags.tag(t).peak_indices, tags[t]) for t in range(len(tags))}
        assert fast == brute_force_tags(spec, TAU)


def test_random_sequence_from_tags_shape():
    spec = spectrum_at([200.0, 271.037, 384.121, 497.205, 554.226])
    tags = extract_tags(spec, TAU)
    assert list(tags) == ["ALL", "LLG"]
    rng = random.Random(4)
    lengths = set()
    for _ in range(200):
        seq = random_sequence_from_tags(tags, rng)
        assert seq.endswith(TRYPTIC_TERMINALS)
        lengths.add(len(seq))
    assert lengths <= {7, 10, 13}
    assert len(lengths) == 3


def test_random_sequence_fallback_without_tags():
    rng = random.Random(4)
    for _ in range(100):
        seq = random_sequence_from_tags([], rng)
        assert 7 <= len(seq) <= 12
        assert seq.endswith(TRYPTIC_TERMINALS)


def test_random_peptide_terminal_balance():
    rng = random.Random(8)
    terminals = {random_peptide(rng)[-1] for _ in range(100)}
    assert terminals == {"K", "R"}


def test_adjust_mass_noop_when_within_bound():
    seq = "LGVTLYK"
    precursor = parent_mass(seq) + 0.01
    out, ok = adjust_mass(seq, precursor, random.Random(1), TAU, parent_mass(seq))
    assert ok and out == seq


def test_adjust_mass_reaches_bound_on_random_fixtures():
    rng = random.Random(12)
    for _ in range(1000):
        # A uniform random tryptic peptide of 5 to 14 residues.
        length = rng.randint(5, 14)
        body = "".join(rng.choice(CANONICAL_ALPHABET) for _ in range(length - 1))
        seq = body + rng.choice(TRYPTIC_TERMINALS)
        precursor = parent_mass(seq) + rng.uniform(-250, 250)
        if precursor <= 60:
            continue
        out, ok = adjust_mass(seq, precursor, rng, TAU, parent_mass(seq))
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
        out, ok = adjust_mass(seq, precursor, rng, TAU, parent_mass(seq))
        if ok:
            hits += 1
            assert abs(precursor - parent_mass(out)) < DELTA_BOUND
    assert hits > 40


def test_adjust_mass_gives_up_at_length_cap():
    precursor = parent_mass("W" * 62 + "K")
    seq, ok = adjust_mass("GK", precursor, random.Random(1), TAU, parent_mass("GK"))
    assert not ok and len(seq) <= MAX_PEPTIDE_LENGTH


def test_adjust_mass_rejects_two_residue_removal():
    seq = "WK"
    precursor = 80.0  # far lighter than any 2-residue peptide
    out, ok = adjust_mass(seq, precursor, random.Random(2), TAU, parent_mass(seq))
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
# allowed step: the first sequence seen is nearer the precursor, but the
# last one is returned.
@example("AE", "K", -63.0, 1, 288)
def test_adjust_mass_properties(body, terminal, offset, max_iterations, seed):
    seq = body + terminal
    mass = parent_mass(seq)
    precursor = mass + offset
    # The entry mass is the caller's; each edit's mass is the unvalidated
    # sum, recorded in call order after the entry sequence.
    seen = [seq]

    def record(candidate):
        seen.append(candidate)
        return unchecked_parent_mass(candidate)

    with mock.patch("evopep.tags.unchecked_parent_mass", record), mock.patch(
        "evopep.tags.ADJUST_MAX_ITERATIONS", max_iterations
    ):
        out, ok = adjust_mass(seq, precursor, random.Random(seed), TAU, mass)
    assert out[-1] == terminal
    assert len(seen) <= max_iterations + 1
    assert out == seen[-1]
    assert ok == (abs(precursor - parent_mass(out)) < DELTA_BOUND)
    # So the callers need no length test of their own.
    assert not ok or 2 <= len(out) <= MAX_PEPTIDE_LENGTH


def test_build_init_pool_extracts_tags_once(monkeypatch):
    import evopep.tags

    spec = clean_spectrum("LGVTLYK")
    calls = []

    def extract_spy(spec, tau):
        calls.append(tau)
        return extract_tags(spec, tau)

    monkeypatch.setattr(evopep.tags, "extract_tags", extract_spy)
    for seed in range(3):
        build_init_pool(Scorer(spec, TAU), 20, random.Random(seed))
    # Once per call, through the module-level name; the spectrum keeps no
    # tags between calls.
    assert calls == [TAU] * 3
    assert not hasattr(spec, "tags")


@pytest.mark.parametrize("edge, side", [("GK", -1), ("W" * 63 + "R", 1)])
def test_precursor_reachable_at_its_edges(edge, side):
    # GK and W...WR are the lightest and heaviest peptides of 2 to 64
    # residues with a tryptic end. Near these limits no other peptide comes
    # within the bound, so adjust_mass's verdict on the edge peptide, which
    # it accepts or refuses without an edit, is the answer.
    assert len(edge) <= MAX_PEPTIDE_LENGTH
    limit = unchecked_parent_mass(edge) + side * DELTA_BOUND
    verdicts = []
    for precursor in (
        math.nextafter(limit, -math.inf), limit, math.nextafter(limit, math.inf)
    ):
        _, ok = adjust_mass(
            edge, precursor, random.Random(0), TAU, parent_mass(edge)
        )
        assert precursor_reachable(precursor, TAU) == ok
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    "precursor, reachable",
    [(99.0, False), (145.0, False), (146.0, True), (1200.0, True),
     (11954.0, True), (11956.0, False), (20000.0, False)],
)
def test_precursor_reachable(precursor, reachable):
    assert precursor_reachable(precursor, TAU) is reachable


def test_build_init_pool_invariants():
    spec = clean_spectrum("AAALAAADAR")
    rng = random.Random(77)
    pool = build_init_pool(Scorer(spec, TAU), 200, rng)
    assert len(pool) == 200
    for cand in pool:
        assert cand.peptide.endswith(TRYPTIC_TERMINALS)
        assert abs(cand.delta_mass) < DELTA_BOUND


def test_build_init_pool_zero_size():
    spec = clean_spectrum("AAALAAADAR")
    pool = build_init_pool(Scorer(spec, TAU), 0, random.Random(1))
    assert pool == ()


def test_build_init_pool_reproducible():
    spec = clean_spectrum("LGVTLYK")
    a = build_init_pool(Scorer(spec, TAU), 150, random.Random("seed"))
    b = build_init_pool(Scorer(spec, TAU), 150, random.Random("seed"))
    assert [c.peptide for c in a] == [c.peptide for c in b]
    assert [c.fitness for c in a] == [c.fitness for c in b]


def test_build_init_pool_candidates_distinct():
    spec = clean_spectrum("LGVTLYK")
    pool = build_init_pool(Scorer(spec, TAU), 150, random.Random(5))
    peptides = [c.peptide for c in pool]
    assert len(set(peptides)) == len(peptides)
