"""``adjust_mass`` and ``nterm_cterm_crossover`` against reference copies.

The copies below draw through the public ``random.Random`` calls and
validate every mass, as both functions did before their draws went through
``_randbelow`` and their loops through the unvalidated mass. Each call must
give the same result and leave the generator in the same state, on every
return path: success, the length cap, the two-residue floor, the iteration
cap and each crossover fallback. No benchmark workload reaches the failure
returns of ``adjust_mass``, so these tests are what covers them.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evopep.tags
from evopep.chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    parent_mass,
    residue_mass,
)
from evopep.engine import RELAXED_CX_BOUND, nterm_cterm_crossover
from evopep.scoring import Individual
from evopep.tags import adjust_mass
from tests.conftest import GuardedRandom

TAU = 0.5
_LABELED_MASSES = tuple((sym, RESIDUE_MASSES[sym]) for sym in CANONICAL_ALPHABET)


def reference_adjust_mass(seq, precursor, rng, tau):
    bound = residue_mass("G") + tau
    delta = precursor - parent_mass(seq)
    for _ in range(evopep.tags.ADJUST_MAX_ITERATIONS):
        if abs(delta) < bound:
            return seq, True
        if delta > 0:
            candidates = [
                sym for sym, mass in _LABELED_MASSES if mass <= delta + tau
            ] or ["G"]
            sym = rng.choice(candidates)
            pos = rng.randrange(len(seq))
            if len(seq) >= MAX_PEPTIDE_LENGTH:
                return seq, False
            seq = seq[:pos] + sym + seq[pos:]
        else:
            if len(seq) <= 2:
                return seq, False
            pos = rng.randrange(len(seq) - 1)
            seq = seq[:pos] + seq[pos + 1 :]
        delta = precursor - parent_mass(seq)
    return seq, abs(delta) < bound


def reference_nterm_cterm_crossover(n_parent, c_parent, helper, precursor, tau, rng):
    fallback = (n_parent if n_parent.fitness >= c_parent.fitness else c_parent).peptide
    prefix = n_parent.peptide[: n_parent.nterm + 1]
    c_seq = c_parent.peptide
    suffix = c_seq[len(c_seq) - (c_parent.cterm + 1) :]
    seq = prefix + suffix
    if len(seq) > MAX_PEPTIDE_LENGTH:
        return fallback
    delta = precursor - parent_mass(seq)
    if delta < -RELAXED_CX_BOUND:
        for k in range(1, len(c_seq) + 1):
            seq = prefix + c_seq[len(c_seq) - k :]
            if precursor - parent_mass(seq) <= RELAXED_CX_BOUND:
                break
    elif delta > RELAXED_CX_BOUND and len(helper.peptide) > 2:
        h_seq = helper.peptide
        w1 = rng.randrange(1, len(h_seq) - 1)
        w2 = rng.randrange(w1 + 1, len(h_seq))
        mid = ""
        for sym in h_seq[w1:w2]:
            if precursor - parent_mass(prefix + mid + suffix) <= RELAXED_CX_BOUND:
                break
            mid += sym
            if len(prefix) + len(mid) + len(suffix) > MAX_PEPTIDE_LENGTH:
                return fallback
        seq = prefix + mid + suffix
    adjusted, ok = reference_adjust_mass(seq, precursor, rng, tau)
    if not ok or len(adjusted) < 2:
        return fallback
    return adjusted


def adjust_outcome(seq, ok):
    """Which return of ``adjust_mass`` gave (seq, ok)."""
    if ok:
        return "ok"
    if len(seq) >= MAX_PEPTIDE_LENGTH:
        return "length cap"
    if len(seq) <= 2:
        return "two residues"
    return "iteration cap"


def assert_adjust_mass_matches(seq, precursor, seed, max_iterations):
    reference, rng = GuardedRandom(seed), GuardedRandom(seed)
    with mock.patch("evopep.tags.ADJUST_MAX_ITERATIONS", max_iterations):
        expected = reference_adjust_mass(seq, precursor, reference, TAU)
        assert adjust_mass(seq, precursor, rng, TAU, parent_mass(seq)) == expected
    assert rng.getstate() == reference.getstate()
    return adjust_outcome(*expected)


# One case per failure return, each reached by the reference: the sequence,
# its offset from the precursor, the seed and the iteration cap.
FAILURES = {
    "length cap": ("W" * 62 + "K", 800.0, 1, 100),
    "two residues": ("WK", -200.0, 2, 100),
    "iteration cap": ("LGVTLYK", 1500.0, 3, 4),
}


@pytest.mark.parametrize("outcome", sorted(FAILURES))
def test_adjust_mass_failure_returns_match_the_reference(outcome):
    seq, offset, seed, max_iterations = FAILURES[outcome]
    precursor = parent_mass(seq) + offset
    assert assert_adjust_mass_matches(seq, precursor, seed, max_iterations) == outcome


bodies = st.integers(1, MAX_PEPTIDE_LENGTH - 1).flatmap(
    lambda n: st.text(CANONICAL_ALPHABET, min_size=n, max_size=n)
)


@settings(max_examples=400, deadline=None)
@given(
    bodies,
    st.sampled_from(TRYPTIC_TERMINALS),
    st.floats(-3000.0, 3000.0),
    st.integers(0, 2**32),
    st.sampled_from([0, 1, 3, 10, 100]),
)
@example("W" * 61, "K", 900.0, 5, 100)
@example("A", "K", -150.0, 6, 100)
@example("LGVTLY", "K", 2500.0, 7, 3)
def test_adjust_mass_matches_the_reference(body, terminal, offset, seed, max_iterations):
    seq = body + terminal
    assert_adjust_mass_matches(seq, parent_mass(seq) + offset, seed, max_iterations)


peptides = st.integers(1, MAX_PEPTIDE_LENGTH - 1).flatmap(
    lambda n: st.builds(
        lambda body, terminal: body + terminal,
        st.text(CANONICAL_ALPHABET, min_size=n, max_size=n),
        st.sampled_from(TRYPTIC_TERMINALS),
    )
)


@st.composite
def parents(draw):
    """An N parent, a C parent and a helper, with terminus scores anywhere in
    their peptides, so that prefix and suffix overlap or overflow the cap."""
    n_seq, c_seq, h_seq = draw(peptides), draw(peptides), draw(peptides)
    fitness = st.floats(-5.0, 5.0)
    return (
        Individual(n_seq, draw(fitness), draw(st.integers(1, len(n_seq) - 1)), 0, 0.0),
        Individual(c_seq, draw(fitness), 0, draw(st.integers(1, len(c_seq) - 1)), 0.0),
        Individual(h_seq, 0.0, 0, 0, 0.0),
    )


@settings(max_examples=400, deadline=None)
@given(
    parents(),
    st.floats(200.0, 8000.0),
    st.integers(0, 2**32),
    st.sampled_from([1, 3, 100]),
)
def test_nterm_cterm_crossover_matches_the_reference(case, precursor, seed, max_iterations):
    n_parent, c_parent, helper = case
    reference, rng = GuardedRandom(seed), GuardedRandom(seed)
    with mock.patch("evopep.tags.ADJUST_MAX_ITERATIONS", max_iterations):
        expected = reference_nterm_cterm_crossover(
            n_parent, c_parent, helper, precursor, TAU, reference
        )
        child = nterm_cterm_crossover(n_parent, c_parent, helper, precursor, TAU, rng)
    assert child == expected
    assert rng.getstate() == reference.getstate()
