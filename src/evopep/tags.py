"""Sequence-tag extraction and tag-based population initialization.

A tag is a 3-residue path over four spectrum peaks whose consecutive m/z gaps
each match a residue mass within the tolerance. Initialization concatenates
2-4 random tags, appends a tryptic terminal, and then inserts/removes random
residues until the candidate's mass sits within one glycine of the precursor.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    parent_mass,
    residue_mass,
)
from .scoring import Individual
from .spectrum import Spectrum

logger = logging.getLogger(__name__)

# Residue labels considered for peak gaps: the 19 canonical symbols.
_LABELED_MASSES: tuple[tuple[str, float], ...] = tuple(
    (sym, RESIDUE_MASSES[sym]) for sym in CANONICAL_ALPHABET
)
_MAX_RESIDUE_MASS = max(RESIDUE_MASSES.values())

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


@dataclass(frozen=True)
class InitPool:
    """Scored candidates produced by tag-based initialization."""

    candidates: tuple[Individual, ...]
    complete: bool = True


def extract_tags(spec: Spectrum, tau: float) -> list[Tag]:
    """Extract every 3-letter tag from a preprocessed spectrum.

    Each consecutive peak pair in a tag satisfies
    |mz_j - mz_i - mass(a)| <= tau for its residue label; ambiguous gaps emit
    one tag per matching label. Peak indices are strictly ascending within a
    tag. Output order is deterministic (by indices, then residues).
    """
    mz = spec.mz.tolist()
    n = len(mz)
    if n < 4:
        return []
    # Single-residue labeled edges, grouped by the start peak.
    edges: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gap = mz[j] - mz[i]
            if gap > _MAX_RESIDUE_MASS + tau:
                break
            for sym, mass in _LABELED_MASSES:
                if abs(gap - mass) <= tau:
                    edges[i].append((j, sym))
    tags: list[Tag] = []
    for i in range(n):
        for j, first in edges[i]:
            for k, second in edges[j]:
                for m, third in edges[k]:
                    tags.append(
                        Tag(
                            peak_indices=(i, j, k, m),
                            residues=first + second + third,
                            start_mz=mz[i],
                        )
                    )
    return tags


def random_peptide(
    rng: random.Random,
    min_length: int = FALLBACK_MIN_LENGTH,
    max_length: int = FALLBACK_MAX_LENGTH,
) -> str:
    """Uniform random tryptic sequence of length min_length..max_length."""
    length = rng.randint(min_length, max_length)
    body = "".join(rng.choice(CANONICAL_ALPHABET) for _ in range(length - 1))
    return body + rng.choice(TRYPTIC_TERMINALS)


def random_sequence_from_tags(tags: list[str], rng: random.Random) -> str:
    """Concatenate 2, 3 or 4 random tags' residues and append a tryptic terminal.

    Falls back to a fully random length-7..12 tryptic sequence when no tags
    are available.
    """
    if not tags:
        return random_peptide(rng)
    count = rng.randint(2, 4)
    body = "".join(rng.choice(tags) for _ in range(count))
    return body + rng.choice(TRYPTIC_TERMINALS)


def adjust_mass(
    seq: str,
    precursor: float,
    rng: random.Random,
    tau: float = 0.5,
    max_iterations: int = ADJUST_MAX_ITERATIONS,
) -> tuple[str, bool]:
    """Insert or remove residues until |precursor - parent mass| is below
    mass(G) + tau.

    The terminal residue is never touched. Returns (sequence, ok); ``ok`` is
    False when the sequence would shrink below two residues, grow past
    MAX_PEPTIDE_LENGTH, or the iteration cap is reached, in which case the
    best sequence seen is returned and the caller should discard it.
    """
    bound = residue_mass("G") + tau
    delta = precursor - parent_mass(seq)
    best, best_delta = seq, abs(delta)
    for _ in range(max_iterations):
        if abs(delta) < bound:
            return seq, True
        if delta > 0:
            candidates = [
                sym for sym, mass in _LABELED_MASSES if mass <= delta + tau
            ] or ["G"]
            sym = rng.choice(candidates)
            pos = rng.randrange(len(seq))  # any slot that keeps the terminal last
            seq = seq[:pos] + sym + seq[pos:]
            if len(seq) > MAX_PEPTIDE_LENGTH:
                return best, False
        else:
            if len(seq) <= 2:
                return seq, False
            pos = rng.randrange(len(seq) - 1)
            seq = seq[:pos] + seq[pos + 1 :]
        delta = precursor - parent_mass(seq)
        if abs(delta) < best_delta:
            best, best_delta = seq, abs(delta)
    if abs(delta) < bound:
        return seq, True
    return best, False


def build_init_pool(
    spec: Spectrum,
    tau: float,
    pool_size: int,
    rng: random.Random,
) -> InitPool:
    """Fill a pool of scored, mass-adjusted tag-based candidates.

    Repeats concatenate -> append-terminal -> adjust until ``pool_size``
    valid candidates are collected, giving up after 50 * pool_size attempts
    (the pool is then returned partially filled, with a warning). Tags are
    extracted on first use and kept in ``spec.tag_residues``.
    """
    tags = spec.tag_residues.get(tau)
    if tags is None:
        tags = [tag.residues for tag in extract_tags(spec, tau)]
        spec.tag_residues[tau] = tags
        if not tags:
            logger.warning(
                "spectrum %r yielded no tags; falling back to random sequences",
                spec.title,
            )
    candidates: list[Individual] = []
    seen: set[str] = set()
    attempts = 0
    limit = INIT_ATTEMPT_FACTOR * pool_size
    while len(candidates) < pool_size and attempts < limit:
        attempts += 1
        seq = random_sequence_from_tags(tags, rng)
        adjusted, ok = adjust_mass(seq, spec.precursor_mass, rng, tau)
        if not ok or len(adjusted) < 2 or adjusted in seen:
            continue
        seen.add(adjusted)
        candidates.append(Individual.score(adjusted, spec, tau))
    if len(candidates) < pool_size:
        logger.warning(
            "initialization pool for %r under-filled: %d of %d after %d attempts",
            spec.title,
            len(candidates),
            pool_size,
            attempts,
        )
    return InitPool(candidates=tuple(candidates), complete=len(candidates) >= pool_size)
