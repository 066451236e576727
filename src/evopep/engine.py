"""The genetic algorithm: selection pools, variation operators, evolution loop.

Each generation builds four pools (fitness-ranked helper pool, Nterm pool,
Cterm pool, size-7 tournament pool), creates offspring with one of four
operators drawn at the published rates, and carries over three elites: the
best by fitness, by Nterm score and by Cterm score. Each population is
ranked once in each of these three orders, by ``_rankings``.
Candidates are variable-length tryptic sequences. The initialization pool
and the operators produce peptide strings and never score; ``evolve`` scores
every candidate against the run's spectrum through one ``Scorer``: the pool
once it is drawn, and each generation's children after the operator loop.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .chem import (
    CANONICAL_ALPHABET,
    CONFLICT_REPLACEMENTS,
    MAX_PEPTIDE_LENGTH,
    check_tolerance,
    left_to_right_sum,
    parent_mass,
    unchecked_parent_mass,
)
from .scoring import Individual, Scorer
from .spectrum import Spectrum
from .tags import adjust_mass, build_init_pool, precursor_reachable

OPERATOR_NTERM_CTERM = "nterm_cterm"
OPERATOR_TWO_POINT = "two_point"
OPERATOR_FLIP = "flip"
OPERATOR_CONFLICT = "conflict"
OPERATORS = (OPERATOR_NTERM_CTERM, OPERATOR_TWO_POINT, OPERATOR_FLIP, OPERATOR_CONFLICT)
# The published draw rate of each operator, in the order of ``OPERATORS``,
# and the upper draw edge of each but the last, added left to right.
RATES = (0.40, 0.35, 0.10, 0.15)
_RATE_EDGES = tuple(accumulate(RATES[:-1]))

# Entrants of each tournament, drawn with replacement.
TOURNAMENT_K = 7

# Individuals carried over into each generation: the head of each ranking.
ELITES = 3

# Mass window (Da) that nterm_cterm_crossover regrows a child into before
# handing it to the mass-adjustment loop.
RELAXED_CX_BOUND = 100.0

# The three orders a population is ranked in, each best first: by fitness,
# by Nterm score and by Cterm score, both with fitness breaking ties.
_FITNESS = attrgetter("fitness")
_NTERM = attrgetter("nterm")
_CTERM = attrgetter("cterm")

# Draws still missing below which ``_draws_below`` goes on with single
# ``_randbelow`` calls, which cost less than another batch round.
_BATCH_FLOOR = 16

# What flip_aa_mutation may put in place of each residue: every other symbol
# of the alphabet, in alphabet order.
_FLIPS = {
    sym: tuple(other for other in CANONICAL_ALPHABET if other != sym)
    for sym in CANONICAL_ALPHABET
}


class EvolutionError(RuntimeError):
    """Raised when a run cannot proceed (e.g. empty initialization pool)."""


@dataclass(frozen=True)
class GaConfig:
    """GA parameters; defaults follow the published configuration."""

    pool_size: int = 1000
    population: int = 300
    generations: int = 50
    tau: float = 0.5

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.population <= ELITES:
            raise ValueError(
                f"population must exceed elitism ({ELITES}), got {self.population}"
            )
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        # A run holds pool_size candidates, population individuals and a trace
        # row per generation, and no list holds more than sys.maxsize items.
        for name in ("pool_size", "population", "generations"):
            if getattr(self, name) > sys.maxsize:
                raise ValueError(f"{name} must be at most {sys.maxsize}")
        check_tolerance("tau", self.tau)

    @property
    def sub_pool(self) -> int:
        return self.population // 3


@dataclass(frozen=True)
class Pools:
    """The four per-generation selection pools, and the elites that the
    next generation carries over."""

    helper: tuple[Individual, ...]
    nterm_pool: tuple[Individual, ...]
    cterm_pool: tuple[Individual, ...]
    tournament: tuple[Individual, ...]
    elites: tuple[Individual, ...]


@dataclass(frozen=True)
class TraceRow:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_peptide: str


@dataclass(frozen=True)
class EvolveResult:
    best: Individual
    trace: tuple[TraceRow, ...]
    generations_used: int


def choose_operator(rng: random.Random) -> str:
    """Draw one operator name at the published rates."""
    # The first operator whose edge lies above the draw, or the last.
    return OPERATORS[bisect_right(_RATE_EDGES, rng.random())]


def _rankings(population: Sequence[Individual]) -> list[list[Individual]]:
    """The population by fitness, by (nterm, fitness) and by (cterm,
    fitness), each best first.

    The sorts are stable, so equal keys keep population order and each
    ranking opens with the element ``max`` would pick. The terminus rankings
    re-sort the fitness ranking on the score alone, which leaves fitness
    order, then population order, among equal scores.
    """
    by_fitness = sorted(population, key=_FITNESS, reverse=True)
    return [
        by_fitness,
        sorted(by_fitness, key=_NTERM, reverse=True),
        sorted(by_fitness, key=_CTERM, reverse=True),
    ]


def _leaders(
    ranking: list[Individual], score: Callable[[Individual], int], k: int
) -> tuple[Individual, ...]:
    """The members among the first ``k`` of a ranking, best first by
    ``score``, whose score is at least one: a prefix, found by bisection."""
    head = ranking[:k]
    return tuple(head[: bisect_right(head, -1, key=lambda ind: -score(ind))])


def _draws_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng._randbelow(n) for _ in range(count)]`` as an array, leaving
    ``rng`` in the same state.

    ``_randbelow(n)`` takes 32-bit words until one's top ``n.bit_length()``
    bits are below ``n``, and keeps those bits. For a plain
    ``random.Random`` and ``n`` of at most 32 bits, each round takes one
    ``getrandbits(32 * m)``, which is ``m`` such words, the first in the
    lowest bits, and keeps those below ``n``. ``m`` is the number of draws
    still missing, so no round takes a word that the calls would not take.
    The last few draws, and every draw of a subclass, which may change how
    it draws, are ``_randbelow`` calls. ``tests/test_rng_stream.py`` pins
    the two CPython facts this relies on.
    """
    shift = 32 - n.bit_length()
    parts = []
    if type(rng) is random.Random and shift >= 0:
        while count >= _BATCH_FLOOR:
            bits = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
            words = np.frombuffer(bits, dtype="<u4")
            # A word's top bits are below n exactly when the word is below
            # n << shift, which is below 2**32.
            kept = words[words < n << shift] >> shift
            parts.append(kept)
            count -= len(kept)
    draw = rng._randbelow
    parts.append(np.array([draw(n) for _ in range(count)], dtype=np.int64))
    return np.concatenate(parts)


def select_pools(
    population: list[Individual], cfg: GaConfig, rng: random.Random
) -> Pools:
    """Build the four selection pools and the elites from a scored population.

    The Nterm/Cterm pools only admit individuals with a score of at least one
    and may therefore be under-filled or empty. The tournament pool holds
    winners of size-``TOURNAMENT_K`` fitness tournaments drawn with
    replacement. The elites are the head of each ranking.

    All entrants of the tournaments are drawn at once by ``_draws_below``,
    on the stream of one ``_randbelow`` call per entrant. Each winner is the
    first entrant of greatest fitness, the one ``max`` would pick: fitness
    is finite, so the first maximum that ``argmax`` finds is that entrant.
    """
    if not population:
        raise IndexError("cannot select pools from an empty population")
    k = cfg.sub_pool
    by_fitness, by_nterm, by_cterm = _rankings(population)
    size = len(population)
    entrants = _draws_below(rng, size, k * TOURNAMENT_K).reshape(k, -1)
    fitness = np.fromiter(map(_FITNESS, population), float, size)
    winners = entrants[np.arange(k), fitness[entrants].argmax(axis=1)]
    # Members with a score of at least one lead their terminus ranking, in
    # the order that a stable sort of those members alone gives.
    return Pools(
        helper=tuple(by_fitness[:k]),
        nterm_pool=_leaders(by_nterm, _NTERM, k),
        cterm_pool=_leaders(by_cterm, _CTERM, k),
        tournament=tuple(map(population.__getitem__, winners.tolist())),
        elites=(by_fitness[0], by_nterm[0], by_cterm[0]),
    )


def nterm_cterm_crossover(
    n_parent: Individual,
    c_parent: Individual,
    helper: Individual,
    precursor: float,
    tau: float,
    rng: random.Random,
) -> str:
    """Mate the matched N-terminal prefix of one parent with the matched
    C-terminal suffix of another.

    The prefix spans ``nterm + 1`` residues, the suffix ``cterm + 1``. When
    the concatenation is too heavy (delta below -RELAXED_CX_BOUND) it is
    rebuilt from the prefix plus a shrinking tail of the C parent; when too
    light, residues from a random interior window of the helper fill the
    middle one at a time. The result is fine-trimmed by the mass-adjustment
    loop; a degenerate result, or one that would grow past
    MAX_PEPTIDE_LENGTH, falls back to the fitter parent's peptide.
    """
    if n_parent.nterm < 1:
        raise ValueError("N-terminal parent needs an Nterm score of at least 1")
    if c_parent.cterm < 1:
        raise ValueError("C-terminal parent needs a Cterm score of at least 1")
    fallback = (n_parent if n_parent.fitness >= c_parent.fitness else c_parent).peptide
    prefix = n_parent.peptide[: n_parent.nterm + 1]
    c_seq = c_parent.peptide
    suffix = c_seq[len(c_seq) - (c_parent.cterm + 1) :]
    seq = prefix + suffix
    if len(seq) > MAX_PEPTIDE_LENGTH:
        return fallback
    mass = parent_mass(seq)  # validates both parents' parts
    delta = precursor - mass
    if delta < -RELAXED_CX_BOUND:
        # Overlapping prefixes/suffixes make the concatenation too heavy:
        # regrow from the prefix, taking ever longer tails of the C parent
        # until the relaxed mass window is reached from above. The loop stops
        # at the latest with the whole suffix, so it stays within the cap.
        for k in range(1, len(c_seq) + 1):
            seq = prefix + c_seq[len(c_seq) - k :]
            mass = unchecked_parent_mass(seq)
            if precursor - mass <= RELAXED_CX_BOUND:
                break
    elif delta > RELAXED_CX_BOUND and len(helper.peptide) > 2:
        h_seq = helper.peptide
        w1 = 1 + rng._randbelow(len(h_seq) - 2)
        w2 = w1 + 1 + rng._randbelow(len(h_seq) - w1 - 1)
        mid = ""
        for sym in h_seq[w1:w2]:
            mass = unchecked_parent_mass(prefix + mid + suffix)
            if precursor - mass <= RELAXED_CX_BOUND:
                break
            mid += sym
            if len(prefix) + len(mid) + len(suffix) > MAX_PEPTIDE_LENGTH:
                return fallback
        else:
            # The last residue taken was never weighed with the rest.
            mass = unchecked_parent_mass(prefix + mid + suffix)
        seq = prefix + mid + suffix
    adjusted, ok = adjust_mass(seq, precursor, rng, tau, mass)
    if not ok:
        return fallback
    return adjusted


def two_point_crossover(s1: str, s2: str, rng: random.Random) -> tuple[str, str]:
    """Swap interior segments between two parent peptides.

    Cut points are drawn independently per parent and never split off the
    terminal residue, so offspring lengths may differ from both parents.
    Parents shorter than four residues (or identical parents, for which the
    swap is a no-op) are returned unchanged, and an offspring longer than
    MAX_PEPTIDE_LENGTH is replaced by the parent whose ends it keeps.
    """
    if len(s1) < 4 or len(s2) < 4:
        return s1, s2

    draw = rng._randbelow
    a1 = 1 + draw(len(s1) - 2)
    b1 = a1 + 1 + draw(len(s1) - a1 - 1)
    a2 = 1 + draw(len(s2) - 2)
    b2 = a2 + 1 + draw(len(s2) - a2 - 1)
    o1 = s1[:a1] + s2[a2:b2] + s1[b1:]
    o2 = s2[:a2] + s1[a1:b1] + s2[b2:]
    return (
        s1 if len(o1) > MAX_PEPTIDE_LENGTH else o1,
        s2 if len(o2) > MAX_PEPTIDE_LENGTH else o2,
    )


def flip_aa_mutation(seq: str, rng: random.Random) -> str:
    """Replace one random non-terminal residue with a different one."""
    if len(seq) < 2:
        raise ValueError(f"flip needs two residues or more, got {seq!r}")
    draw = rng._randbelow
    pos = draw(len(seq) - 1)
    # A symbol outside the alphabet (I, or lower case) differs from all 19.
    alternatives = _FLIPS.get(seq[pos], CANONICAL_ALPHABET)
    return seq[:pos] + alternatives[draw(len(alternatives))] + seq[pos + 1 :]


def conflict_mass_mutation(seq: str, rng: random.Random) -> str:
    """Swap one conflict-mass residue for an equal-nominal-mass di-peptide.

    Applies to a random non-terminal occurrence of a dictionary residue; a
    sequence without one, or one already at MAX_PEPTIDE_LENGTH, is returned
    unchanged. Successful application grows the length by exactly one while
    preserving the nominal parent mass.
    """
    positions = [
        i for i, sym in enumerate(seq[:-1]) if sym in CONFLICT_REPLACEMENTS
    ]
    if not positions:
        return seq
    draw = rng._randbelow
    pos = positions[draw(len(positions))]
    replacements = CONFLICT_REPLACEMENTS[seq[pos]]
    replacement = replacements[draw(len(replacements))]
    child = seq[:pos] + replacement + seq[pos + 1 :]
    return seq if len(child) > MAX_PEPTIDE_LENGTH else child


def _initial_population(
    candidates: list[Individual], cfg: GaConfig
) -> list[Individual]:
    """Top third by fitness, by Nterm and by Cterm from the init pool;
    shortfalls are refilled with the next-best by fitness."""
    k = cfg.sub_pool
    by_fitness, by_nterm, by_cterm = _rankings(candidates)
    selected = by_fitness[:k] + by_nterm[:k] + by_cterm[:k]
    refill = k
    while len(selected) < cfg.population:
        selected.append(by_fitness[refill % len(by_fitness)])
        refill += 1
    return selected[: cfg.population]


def refusal(spec: Spectrum, tau: float) -> str | None:
    """Why no GA run can sequence ``spec`` at tolerance ``tau``, or None.
    ``evolve`` applies this rule before its first draw, and ``sequence``
    skips each spectrum that it refuses."""
    total = spec.total_intensity
    if total <= 0:
        return "spectrum has no positive intensity"
    if math.isinf(total):
        return "spectrum's total intensity overflows to inf"
    if not precursor_reachable(spec.precursor_mass, tau):
        return (
            "no peptide the GA can build comes near its precursor mass of "
            f"{spec.precursor_mass:.4f} Da"
        )
    return None


def evolve(spec: Spectrum, cfg: GaConfig, rng: random.Random) -> EvolveResult:
    """Run the full GA on one (preprocessed) spectrum, drawing from ``rng``.

    Returns the all-time best individual by fitness and a per-generation
    trace. Generators in the same state produce identical results. A
    spectrum that ``refusal`` refuses raises ``EvolutionError`` before the
    first draw.
    """
    if reason := refusal(spec, cfg.tau):
        raise EvolutionError(f"cannot sequence spectrum {spec.title!r}: {reason}")
    pool = build_init_pool(spec, cfg.tau, cfg.pool_size, rng)
    if not pool:
        raise EvolutionError(
            f"initialization pool for spectrum {spec.title!r} is empty"
        )
    scorer = Scorer(spec, cfg.tau)
    score = Individual.score
    population = _initial_population([score(seq, scorer) for seq in pool], cfg)
    best = max(population, key=_FITNESS)
    trace = [_trace_row(0, population, best)]

    draw, tau, precursor = rng._randbelow, cfg.tau, spec.precursor_mass
    target = cfg.population - ELITES
    for generation in range(1, cfg.generations + 1):
        pools = select_pools(population, cfg, rng)
        nterm_pool, cterm_pool, helper = pools.nterm_pool, pools.cterm_pool, pools.helper
        tournament = [ind.peptide for ind in pools.tournament]
        children: list[str] = []
        while len(children) < target:
            op = choose_operator(rng)
            if op == OPERATOR_NTERM_CTERM and (not nterm_pool or not cterm_pool):
                op = OPERATOR_TWO_POINT
            # Every pool drawn from here holds at least one member: the
            # tournament and helper pools hold population // 3 > 0, and the
            # terminus pools were checked above.
            if op == OPERATOR_NTERM_CTERM:
                children.append(
                    nterm_cterm_crossover(
                        nterm_pool[draw(len(nterm_pool))],
                        cterm_pool[draw(len(cterm_pool))],
                        helper[draw(len(helper))],
                        precursor,
                        tau,
                        rng,
                    )
                )
            elif op == OPERATOR_TWO_POINT:
                children.extend(
                    two_point_crossover(
                        tournament[draw(len(tournament))],
                        tournament[draw(len(tournament))],
                        rng,
                    )
                )
            elif op == OPERATOR_FLIP:
                children.append(
                    flip_aa_mutation(tournament[draw(len(tournament))], rng)
                )
            else:
                children.append(
                    conflict_mass_mutation(tournament[draw(len(tournament))], rng)
                )
        # A two-point crossover drawn last may overshoot the target by one;
        # its second child is dropped unscored.
        offspring = [score(seq, scorer) for seq in children[:target]]
        population = [*offspring, *pools.elites]
        leader = max(population, key=_FITNESS)
        if leader.fitness > best.fitness:
            best = leader
        trace.append(_trace_row(generation, population, leader))

    return EvolveResult(
        best=best, trace=tuple(trace), generations_used=cfg.generations
    )


def _trace_row(
    generation: int, population: list[Individual], leader: Individual
) -> TraceRow:
    mean = left_to_right_sum(ind.fitness for ind in population) / len(population)
    return TraceRow(
        generation=generation,
        best_fitness=leader.fitness,
        mean_fitness=mean,
        best_peptide=leader.peptide,
    )


def trace_to_tsv(trace: tuple[TraceRow, ...]) -> str:
    """Serialize a per-generation trace as TSV with a header row."""
    lines = ["generation\tbest_fitness\tmean_fitness\tbest_peptide"]
    for row in trace:
        lines.append(
            f"{row.generation}\t{row.best_fitness:.6f}"
            f"\t{row.mean_fitness:.6f}\t{row.best_peptide}"
        )
    return "\n".join(lines) + "\n"
