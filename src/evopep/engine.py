"""The genetic algorithm: selection pools, variation operators, evolution loop.

Each generation builds four pools (fitness-ranked helper pool, Nterm pool,
Cterm pool, tournament pool), creates offspring with one of four operators
drawn at configured rates, and carries over three elites: the best by
fitness, by Nterm score and by Cterm score. Each population is ranked once in
each of these three orders, by ``_rankings``.
Candidates are variable-length tryptic sequences. The operators map peptide
strings to peptide strings and never score; ``evolve`` scores each
generation's children against the run's spectrum in one place, after the
operator loop.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, takewhile
from operator import attrgetter

from .chem import (
    CANONICAL_ALPHABET,
    CONFLICT_REPLACEMENTS,
    MAX_PEPTIDE_LENGTH,
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
# The order of the operators in ``GaConfig.rates`` and in ``--rates``.
OPERATORS = (OPERATOR_NTERM_CTERM, OPERATOR_TWO_POINT, OPERATOR_FLIP, OPERATOR_CONFLICT)

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
    tournament_k: int = 7
    # Draw rates of the operators, in the order of ``OPERATORS``.
    rates: tuple[float, float, float, float] = (0.40, 0.35, 0.10, 0.15)
    tau: float = 0.5
    seed: int | str | None = None

    def __post_init__(self):
        rates = self.rates
        if len(rates) != len(OPERATORS):
            raise ValueError(
                f"operator rates must be {len(OPERATORS)} numbers, got {rates}"
            )
        # Written so that NaN, which fails every comparison, is refused too.
        if not all(math.isfinite(r) and r >= 0 for r in rates):
            raise ValueError(f"operator rates must be finite and >= 0, got {rates}")
        if abs(sum(rates) - 1.0) > 1e-9:
            raise ValueError(f"operator rates must sum to 1.0, got {sum(rates)}")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.population <= ELITES:
            raise ValueError(
                f"population must exceed elitism ({ELITES}), got {self.population}"
            )
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        if self.tournament_k > self.population:
            # Each generation draws tournament_k entrants for each of
            # population // 3 winners, so a huge value would never finish.
            raise ValueError(
                f"tournament_k must be <= population ({self.population}), got "
                f"{self.tournament_k}: entrants are drawn with replacement, so "
                "a larger tournament only adds draws"
            )
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")

    @property
    def sub_pool(self) -> int:
        return self.population // 3

    @cached_property
    def rate_edges(self) -> tuple[float, ...]:
        """Upper draw edge of each operator but the last, in ``OPERATORS``
        order; ``accumulate`` adds the rates left to right."""
        return tuple(accumulate(self.rates[:-1]))


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


def choose_operator(cfg: GaConfig, rng: random.Random) -> str:
    """Draw one operator name according to the configured rates."""
    # The first operator whose edge lies above the draw, or the last.
    return OPERATORS[bisect_right(cfg.rate_edges, rng.random())]


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


def select_pools(
    population: list[Individual], cfg: GaConfig, rng: random.Random
) -> Pools:
    """Build the four selection pools and the elites from a scored population.

    The Nterm/Cterm pools only admit individuals with a score of at least one
    and may therefore be under-filled or empty. The tournament pool holds
    winners of size-``tournament_k`` fitness tournaments drawn with
    replacement. The elites are the head of each ranking.
    """
    if not population:
        raise IndexError("cannot select pools from an empty population")
    k = cfg.sub_pool
    by_fitness, by_nterm, by_cterm = _rankings(population)
    draw, size, entrants = rng._randbelow, len(population), range(cfg.tournament_k)
    tournament = tuple(
        max([population[draw(size)] for _ in entrants], key=_FITNESS)
        for _ in range(k)
    )
    # Members with a score of at least one lead their terminus ranking, in
    # the order that a stable sort of those members alone gives.
    return Pools(
        helper=tuple(by_fitness[:k]),
        nterm_pool=tuple(takewhile(lambda ind: ind.nterm >= 1, by_nterm[:k])),
        cterm_pool=tuple(takewhile(lambda ind: ind.cterm >= 1, by_cterm[:k])),
        tournament=tournament,
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

    def cuts(length: int) -> tuple[int, int]:
        a = 1 + draw(length - 2)
        return a, a + 1 + draw(length - a - 1)

    a1, b1 = cuts(len(s1))
    a2, b2 = cuts(len(s2))
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
    candidates: tuple[Individual, ...], cfg: GaConfig
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


def evolve(spec: Spectrum, cfg: GaConfig) -> EvolveResult:
    """Run the full GA on one (preprocessed) spectrum.

    Returns the all-time best individual by fitness and a per-generation
    trace. Identical seeds produce identical results. A precursor that no
    pool member can reach is refused before any draw.
    """
    if not precursor_reachable(spec.precursor_mass, cfg.tau):
        raise EvolutionError(
            "no peptide the GA can build comes near the precursor mass of "
            f"spectrum {spec.title!r}, {spec.precursor_mass:.4f} Da"
        )
    rng = random.Random(cfg.seed)
    scorer = Scorer(spec, cfg.tau)
    pool = build_init_pool(scorer, cfg.pool_size, rng)
    if not pool:
        raise EvolutionError(
            f"initialization pool for spectrum {spec.title!r} is empty; "
            "the spectrum may be degenerate or the precursor mass unreachable"
        )
    population = _initial_population(pool, cfg)
    best = max(population, key=_FITNESS)
    trace = [_trace_row(0, population, best)]

    draw, tau, precursor = rng._randbelow, cfg.tau, spec.precursor_mass
    score = Individual.score
    for generation in range(1, cfg.generations + 1):
        pools = select_pools(population, cfg, rng)
        nterm_pool, cterm_pool, helper = pools.nterm_pool, pools.cterm_pool, pools.helper
        tournament = [ind.peptide for ind in pools.tournament]
        target = cfg.population - ELITES
        children: list[str] = []
        while len(children) < target:
            op = choose_operator(cfg, rng)
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
