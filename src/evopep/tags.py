"""Sequence-tag extraction and tag-based population initialization.

A tag is a 3-residue path over four spectrum peaks whose consecutive m/z gaps
each match a residue mass within the tolerance. Tags are not built up front:
``extract_tags`` finds the residue edges between peaks and returns a
``TagIndex``, which counts the 3-edge paths and decodes one when it is read,
so memory grows with the edges, not with the tags. Initialization
concatenates 2-4 random tags, appends a tryptic terminal, and then
inserts/removes random residues until the candidate's mass sits within one
glycine of the precursor.
"""

from __future__ import annotations

import logging
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    parent_mass,
    unchecked_parent_mass,
)
from .scoring import Individual, Scorer
from .spectrum import Spectrum

logger = logging.getLogger(__name__)

# Residue labels considered for peak gaps: the 19 canonical symbols.
_LABELED_MASSES: tuple[tuple[str, float], ...] = tuple(
    (sym, RESIDUE_MASSES[sym]) for sym in CANONICAL_ALPHABET
)
_MASSES = tuple(mass for _, mass in _LABELED_MASSES)
_LABELS = len(_MASSES)
# The labels' ASCII codes, indexed by their rank in CANONICAL_ALPHABET.
_ALPHABET = np.frombuffer("".join(CANONICAL_ALPHABET).encode("ascii"), np.uint8)
_MAX_RESIDUE_MASS = max(RESIDUE_MASSES.values())
_GLYCINE_MASS = RESIDUE_MASSES["G"]
# What ``adjust_mass`` may insert when ``delta`` Da are missing: the labels
# of at most ``delta + tau`` Da, in alphabet order, or G alone when none is
# that light. ``bisect_right(_SORTED_MASSES, delta + tau)`` counts those
# labels and indexes ``_INSERTS``.
_SORTED_MASSES = sorted(mass for _, mass in _LABELED_MASSES)
_INSERTS: tuple[tuple[str, ...], ...] = (("G",),) + tuple(
    tuple(sym for sym, mass in _LABELED_MASSES if mass <= limit)
    for limit in _SORTED_MASSES
)

# The lightest and heaviest peptides an initialization pool can hold.
_LIGHTEST_MASS = unchecked_parent_mass("GK")
_HEAVIEST_MASS = unchecked_parent_mass("W" * (MAX_PEPTIDE_LENGTH - 1) + "R")

# Mass-adjustment loop: accept once |delta| is below the smallest residue
# (plus tolerance), give up after this many edits.
ADJUST_MAX_ITERATIONS = 100

# Fallback random sequences when a spectrum yields no tags.
FALLBACK_MIN_LENGTH = 7
FALLBACK_MAX_LENGTH = 12

INIT_ATTEMPT_FACTOR = 50


@dataclass(frozen=True)
class Tag:
    """Three residues read off four ascending peaks."""

    peak_indices: tuple[int, int, int, int]
    residues: str
    start_mz: float


class TagIndex(Sequence[str]):
    """Every tag of a spectrum, decoded on demand from its residue edges.

    Edge ``e`` reads ``symbol[e]`` and runs to peak ``target[e]``; edges are
    ordered by source peak, then target peak, then ``CANONICAL_ALPHABET``,
    and those leaving peak ``p`` are ``offsets[p]:offsets[p + 1]``, so no
    source column is stored. ``paths2[e]`` and ``paths3[e]`` count the 2- and
    3-edge paths that start with an edge before ``e``. Tag ``t`` is the
    ``t``-th 3-edge path in order of its first, second, then third edge,
    which is the order of nested loops over the edges. ``index[t]`` is its
    three residues and ``index.tag(t)`` the whole ``Tag``. The target, offset
    and path columns are ``array('q')`` and the labels one ``str``, 8 bytes
    or less per entry.
    """

    def __init__(self, mz, target, symbol, offsets, paths2, paths3):
        self._mz = mz
        self._target = target
        self._symbol = symbol
        self._offsets = offsets
        self._paths2 = paths2
        self._paths3 = paths3

    def __len__(self) -> int:
        return self._paths3[-1]

    def _edges(self, t: int) -> tuple[int, int, int]:
        """The three edges of tag ``t``."""
        paths2, paths3, offsets, target = (
            self._paths2, self._paths3, self._offsets, self._target
        )
        if t < 0:
            t += paths3[-1]
        if not 0 <= t < paths3[-1]:
            raise IndexError("tag index out of range")
        first = bisect_right(paths3, t) - 1
        # The rest of the tag is a 2-edge path from the first edge's target;
        # rank is its place among all 2-edge paths, those from that peak
        # being paths2[lo:hi].
        peak = target[first]
        lo = offsets[peak]
        rank = paths2[lo] + t - paths3[first]
        second = bisect_right(paths2, rank, lo, offsets[peak + 1]) - 1
        return first, second, offsets[target[second]] + rank - paths2[second]

    def __getitem__(self, t: int) -> str:
        first, second, third = self._edges(t)
        symbol = self._symbol
        return symbol[first] + symbol[second] + symbol[third]

    def tag(self, t: int) -> Tag:
        """Tag ``t`` with its peaks and start m/z."""
        first, second, third = self._edges(t)
        # The peak whose edges include the first one is the tag's start.
        start = bisect_right(self._offsets, first) - 1
        target, symbol = self._target, self._symbol
        return Tag(
            peak_indices=(start, target[first], target[second], target[third]),
            residues=symbol[first] + symbol[second] + symbol[third],
            start_mz=self._mz[start],
        )


def _packed(values: np.ndarray) -> array:
    """Integer ``values`` copied from numpy's buffer into an ``array('q')``."""
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B"))
    return out


def extract_tags(spec: Spectrum, tau: float) -> TagIndex:
    """Index every 3-letter tag of a preprocessed spectrum.

    Each consecutive peak pair in a tag satisfies
    |mz_j - mz_i - mass(a)| <= tau for its residue label; ambiguous gaps give
    one tag per matching label. Peak indices are strictly ascending within a
    tag. Tags are ordered by peak indices, then by labels in
    ``CANONICAL_ALPHABET`` order. Only the residue edges are kept; the
    returned ``TagIndex`` decodes a tag when it is read.
    """
    mz = spec.mz
    n = len(mz)
    limit = _MAX_RESIDUE_MASS + tau
    # Each label's window mass ± tau is widened by far more than the float
    # tests can round; it only picks candidate pairs (i, j > i), row-major.
    slack = 1e-9 * (mz[-1] + limit) if n else 0.0
    after = np.arange(1, n + 1)
    keys = []
    for rank, mass in enumerate(_MASSES):
        start = np.maximum(np.searchsorted(mz, mz + (mass - tau - slack)), after)
        counts = np.searchsorted(mz, mz + (mass + tau + slack), side="right") - start
        np.maximum(counts, 0, out=counts)
        source = np.repeat(np.arange(n), counts)
        first = start - np.cumsum(counts) + counts
        target = np.arange(len(source)) + np.repeat(first, counts)
        gap = mz[target] - mz[source]
        keep = (gap <= limit) & (np.abs(gap - mass) <= tau)
        keys.append((source[keep] * n + target[keep]) * _LABELS + rank)
    # Keys are unique, so any sort gives (source, target, label) order. The
    # stable one merges the 19 already sorted runs; the default quicksort
    # raised peak RSS by up to 0.2 MB, likely by loading numpy's SIMD sort.
    key = np.concatenate(keys)
    key.sort(kind="stable")
    source, rest = np.divmod(key, n * _LABELS)
    target, label = np.divmod(rest, _LABELS)
    # These are edge-sized, as are the last label's candidates, and the peak
    # of memory is still ahead.
    del keys, key, rest, start, counts, first, gap, keep
    offsets = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=n))))
    # Paths that start with each edge: 2-edge ones end on an edge leaving
    # its target, 3-edge ones on a 2-edge path leaving it.
    count2 = np.diff(offsets)[target]
    prefix2 = np.concatenate(([0], np.cumsum(count2)))
    count3 = (prefix2[offsets[1:]] - prefix2[offsets[:-1]])[target]
    return TagIndex(
        mz=mz.tolist(),
        target=_packed(target),
        symbol=_ALPHABET[label].tobytes().decode("ascii"),
        offsets=_packed(offsets),
        paths2=_packed(prefix2),
        paths3=_packed(np.concatenate(([0], np.cumsum(count3)))),
    )


def random_peptide(rng: random.Random) -> str:
    """Uniform random tryptic sequence of length FALLBACK_MIN_LENGTH to
    FALLBACK_MAX_LENGTH."""
    draw = rng._randbelow
    length = FALLBACK_MIN_LENGTH + draw(FALLBACK_MAX_LENGTH - FALLBACK_MIN_LENGTH + 1)
    body = "".join(
        CANONICAL_ALPHABET[draw(len(CANONICAL_ALPHABET))] for _ in range(length - 1)
    )
    return body + TRYPTIC_TERMINALS[draw(len(TRYPTIC_TERMINALS))]


def random_sequence_from_tags(tags: Sequence[str], rng: random.Random) -> str:
    """Concatenate 2, 3 or 4 random tags' residues and append a tryptic terminal.

    Falls back to a fully random length-7..12 tryptic sequence when no tags
    are available.
    """
    if not tags:
        return random_peptide(rng)
    draw = rng._randbelow
    size = len(tags)
    body = "".join(tags[draw(size)] for _ in range(2 + draw(3)))
    return body + TRYPTIC_TERMINALS[draw(len(TRYPTIC_TERMINALS))]


def adjust_mass(
    seq: str, precursor: float, rng: random.Random, tau: float, mass: float
) -> tuple[str, bool]:
    """Insert or remove residues until |precursor - parent mass| is below
    mass(G) + tau.

    ``mass`` is the parent mass of ``seq``, which the caller has validated
    and summed; every edit inserts a canonical residue or deletes one, so
    the masses after edits skip validation too. The terminal residue is
    never touched. Returns (sequence, ok); ``ok`` is False when the sequence
    would shrink below two residues, grow past MAX_PEPTIDE_LENGTH, or
    ADJUST_MAX_ITERATIONS edits are spent, in which case the last sequence
    whose mass was computed is returned and the caller should discard it.
    """
    bound = _GLYCINE_MASS + tau
    draw = rng._randbelow
    delta = precursor - mass
    for _ in range(ADJUST_MAX_ITERATIONS):
        if abs(delta) < bound:
            return seq, True
        if delta > 0:
            candidates = _INSERTS[bisect_right(_SORTED_MASSES, delta + tau)]
            sym = candidates[draw(len(candidates))]
            pos = draw(len(seq))  # any slot that keeps the terminal last
            # Checked after the draws: the caller's stream goes on after a
            # failed call, so moving them would change every later draw.
            if len(seq) >= MAX_PEPTIDE_LENGTH:
                return seq, False
            seq = seq[:pos] + sym + seq[pos:]
        else:
            if len(seq) <= 2:
                return seq, False
            pos = draw(len(seq) - 1)
            seq = seq[:pos] + seq[pos + 1 :]
        delta = precursor - unchecked_parent_mass(seq)
    return seq, abs(delta) < bound


def precursor_reachable(precursor: float, tau: float) -> bool:
    """Whether ``build_init_pool`` can keep any peptide for ``precursor``.

    A pool member has 2 to MAX_PEPTIDE_LENGTH canonical residues, the last
    one tryptic, and passes ``adjust_mass``'s test, ``|precursor - mass| <
    mass(G) + tau``. Float addition is monotone, so its left-to-right mass is
    at least that of GK and at most that of W...WR. A precursor that fails
    the test below GK or above W...WR therefore has an empty pool, and every
    run of its spectrum would spend the whole initialization budget.
    """
    bound = _GLYCINE_MASS + tau
    return precursor - _LIGHTEST_MASS > -bound and precursor - _HEAVIEST_MASS < bound


def build_init_pool(
    scorer: Scorer, pool_size: int, rng: random.Random
) -> tuple[Individual, ...]:
    """Fill a pool of scored, mass-adjusted tag-based candidates.

    Repeats concatenate -> append-terminal -> adjust until ``pool_size``
    distinct valid candidates are collected, giving up after 50 * pool_size
    attempts (the pool is then returned partially filled, with a warning).
    The candidates are scored through ``scorer`` once, after the draws, in
    the order they were first drawn.
    """
    spec, tau = scorer.spec, scorer.tau
    tags = extract_tags(spec, tau)
    if not tags:
        logger.warning(
            "spectrum %r yielded no tags; falling back to random sequences",
            spec.title,
        )
    peptides: dict[str, None] = {}
    attempts = 0
    limit = INIT_ATTEMPT_FACTOR * pool_size
    while len(peptides) < pool_size and attempts < limit:
        attempts += 1
        seq = random_sequence_from_tags(tags, rng)
        adjusted, ok = adjust_mass(
            seq, spec.precursor_mass, rng, tau, parent_mass(seq)
        )
        if ok:
            peptides[adjusted] = None
    if len(peptides) < pool_size:
        logger.warning(
            "initialization pool for %r under-filled: %d of %d after %d attempts",
            spec.title,
            len(peptides),
            pool_size,
            attempts,
        )
    return tuple(Individual.score(seq, scorer) for seq in peptides)
