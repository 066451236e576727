"""The genetic algorithm: selection pools, variation operators, evolution loop.

Each generation builds four pools (fitness-ranked helper pool, Nterm pool,
Cterm pool, tournament pool), creates offspring with one of four operators
drawn at configured rates, and carries over three elites (best by fitness,
by Nterm score, by Cterm score). Candidates are variable-length tryptic
sequences; every offspring is re-scored against the run's spectrum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chem import (
    CANONICAL_ALPHABET,
    CONFLICT_REPLACEMENTS,
    MAX_PEPTIDE_LENGTH,
    parent_mass,
)
from .scoring import Individual
from .spectrum import Spectrum
from .tags import adjust_mass, build_init_pool

OPERATOR_NTERM_CTERM = "nterm_cterm"
OPERATOR_TWO_POINT = "two_point"
OPERATOR_FLIP = "flip"
OPERATOR_CONFLICT = "conflict"


class EvolutionError(RuntimeError):
    """Raised when a run cannot proceed (e.g. empty initialization pool)."""


@dataclass(frozen=True)
class GaConfig:
    """GA parameters; defaults follow the published configuration."""

    pool_size: int = 1000
    population: int = 300
    generations: int = 50
    tournament_k: int = 7
    rate_nterm_cterm_cx: float = 0.40
    rate_two_point_cx: float = 0.35
    rate_flip: float = 0.10
    rate_conflict: float = 0.15
    elitism: int = 3
    tau: float = 0.5
    relaxed_cx_bound: float = 100.0
    seed: int | str | None = None

    def __post_init__(self):
        rates = (
            self.rate_nterm_cterm_cx,
            self.rate_two_point_cx,
            self.rate_flip,
            self.rate_conflict,
        )
        if any(r < 0 for r in rates):
            raise ValueError("operator rates must be non-negative")
        if abs(sum(rates) - 1.0) > 1e-9:
            raise ValueError(f"operator rates must sum to 1.0, got {sum(rates)}")
        if self.population < 3:
            raise ValueError("population must be at least 3")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be in [0, population)")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def sub_pool(self) -> int:
        return self.population // 3


@dataclass(frozen=True)
class Pools:
    """The four per-generation selection pools."""

    helper: tuple[Individual, ...]
    nterm_pool: tuple[Individual, ...]
    cterm_pool: tuple[Individual, ...]
    tournament: tuple[Individual, ...]


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
    draw = rng.random()
    edge = cfg.rate_nterm_cterm_cx
    if draw < edge:
        return OPERATOR_NTERM_CTERM
    edge += cfg.rate_two_point_cx
    if draw < edge:
        return OPERATOR_TWO_POINT
    edge += cfg.rate_flip
    if draw < edge:
        return OPERATOR_FLIP
    return OPERATOR_CONFLICT


def select_pools(
    population: list[Individual], cfg: GaConfig, rng: random.Random
) -> Pools:
    """Build the four selection pools from a scored population.

    The Nterm/Cterm pools only admit individuals with a score of at least one
    and may therefore be under-filled or empty. The tournament pool holds
    winners of size-``tournament_k`` fitness tournaments drawn with
    replacement.
    """
    k = cfg.sub_pool
    by_fitness = sorted(population, key=lambda ind: ind.fitness, reverse=True)
    helper = tuple(by_fitness[:k])
    nterm_pool = tuple(
        sorted(
            (ind for ind in population if ind.nterm >= 1),
            key=lambda ind: (ind.nterm, ind.fitness),
            reverse=True,
        )[:k]
    )
    cterm_pool = tuple(
        sorted(
            (ind for ind in population if ind.cterm >= 1),
            key=lambda ind: (ind.cterm, ind.fitness),
            reverse=True,
        )[:k]
    )
    tournament = tuple(
        max(
            (rng.choice(population) for _ in range(cfg.tournament_k)),
            key=lambda ind: ind.fitness,
        )
        for _ in range(k)
    )
    return Pools(
        helper=helper,
        nterm_pool=nterm_pool,
        cterm_pool=cterm_pool,
        tournament=tournament,
    )


def nterm_cterm_crossover(
    n_parent: Individual,
    c_parent: Individual,
    helper: Individual,
    spec: Spectrum,
    tau: float,
    rng: random.Random,
    relaxed_bound: float = 100.0,
) -> Individual:
    """Mate the matched N-terminal prefix of one parent with the matched
    C-terminal suffix of another.

    The prefix spans ``nterm + 1`` residues, the suffix ``cterm + 1``. When
    the concatenation is too heavy (delta below -relaxed_bound) it is rebuilt
    from the prefix plus a shrinking tail of the C parent; when too light,
    residues from a random interior window of the helper fill the middle one
    at a time. The result is fine-trimmed by the mass-adjustment loop and
    re-scored; a degenerate result, or one that would grow past
    MAX_PEPTIDE_LENGTH, falls back to the fitter parent.
    """
    if n_parent.nterm < 1:
        raise ValueError("N-terminal parent needs an Nterm score of at least 1")
    if c_parent.cterm < 1:
        raise ValueError("C-terminal parent needs a Cterm score of at least 1")
    fallback = n_parent if n_parent.fitness >= c_parent.fitness else c_parent
    precursor = spec.precursor_mass
    prefix = n_parent.peptide[: n_parent.nterm + 1]
    c_seq = c_parent.peptide
    suffix = c_seq[len(c_seq) - (c_parent.cterm + 1) :]
    seq = prefix + suffix
    if len(seq) > MAX_PEPTIDE_LENGTH:
        return fallback
    delta = precursor - parent_mass(seq)
    if delta < -relaxed_bound:
        # Overlapping prefixes/suffixes make the concatenation too heavy:
        # regrow from the prefix, taking ever longer tails of the C parent
        # until the relaxed mass window is reached from above. The loop stops
        # at the latest with the whole suffix, so it stays within the cap.
        for k in range(1, len(c_seq) + 1):
            seq = prefix + c_seq[len(c_seq) - k :]
            if precursor - parent_mass(seq) <= relaxed_bound:
                break
    elif delta > relaxed_bound and len(helper.peptide) > 2:
        h_seq = helper.peptide
        w1 = rng.randrange(1, len(h_seq) - 1)
        w2 = rng.randrange(w1 + 1, len(h_seq))
        mid = ""
        for sym in h_seq[w1:w2]:
            if precursor - parent_mass(prefix + mid + suffix) <= relaxed_bound:
                break
            mid += sym
            if len(prefix) + len(mid) + len(suffix) > MAX_PEPTIDE_LENGTH:
                return fallback
        seq = prefix + mid + suffix
    adjusted, ok = adjust_mass(seq, precursor, rng, tau)
    if not ok or len(adjusted) < 2:
        return fallback
    return Individual.score(adjusted, spec, tau)


def two_point_crossover(
    p1: Individual,
    p2: Individual,
    spec: Spectrum,
    tau: float,
    rng: random.Random,
) -> tuple[Individual, Individual]:
    """Swap interior segments between two parents.

    Cut points are drawn independently per parent and never split off the
    terminal residue, so offspring lengths may differ from both parents.
    Parents shorter than four residues (or identical parents, for which the
    swap is a no-op) are returned unchanged, and an offspring longer than
    MAX_PEPTIDE_LENGTH is replaced by the parent whose ends it keeps.
    """
    s1, s2 = p1.peptide, p2.peptide
    if len(s1) < 4 or len(s2) < 4:
        return p1, p2

    def cuts(length: int) -> tuple[int, int]:
        a = rng.randint(1, length - 2)
        b = rng.randint(a + 1, length - 1)
        return a, b

    a1, b1 = cuts(len(s1))
    a2, b2 = cuts(len(s2))
    o1 = s1[:a1] + s2[a2:b2] + s1[b1:]
    o2 = s2[:a2] + s1[a1:b1] + s2[b2:]
    return (
        p1 if len(o1) > MAX_PEPTIDE_LENGTH else Individual.score(o1, spec, tau),
        p2 if len(o2) > MAX_PEPTIDE_LENGTH else Individual.score(o2, spec, tau),
    )


def flip_aa_mutation(
    ind: Individual, spec: Spectrum, tau: float, rng: random.Random
) -> Individual:
    """Replace one random non-terminal residue with a different one."""
    seq = ind.peptide
    pos = rng.randrange(len(seq) - 1)
    alternatives = [sym for sym in CANONICAL_ALPHABET if sym != seq[pos]]
    seq = seq[:pos] + rng.choice(alternatives) + seq[pos + 1 :]
    return Individual.score(seq, spec, tau)


def conflict_mass_mutation(
    ind: Individual, spec: Spectrum, tau: float, rng: random.Random
) -> Individual:
    """Swap one conflict-mass residue for an equal-nominal-mass di-peptide.

    Applies to a random non-terminal occurrence of a dictionary residue; a
    sequence without one, or one already at MAX_PEPTIDE_LENGTH, is returned
    unchanged. Successful application grows the length by exactly one while
    preserving the nominal parent mass.
    """
    seq = ind.peptide
    positions = [
        i for i, sym in enumerate(seq[:-1]) if sym in CONFLICT_REPLACEMENTS
    ]
    if not positions:
        return ind
    pos = rng.choice(positions)
    replacement = rng.choice(CONFLICT_REPLACEMENTS[seq[pos]])
    seq = seq[:pos] + replacement + seq[pos + 1 :]
    if len(seq) > MAX_PEPTIDE_LENGTH:
        return ind
    return Individual.score(seq, spec, tau)


def _initial_population(
    candidates: tuple[Individual, ...], cfg: GaConfig
) -> list[Individual]:
    """Top third by fitness, by Nterm and by Cterm from the init pool;
    shortfalls are refilled with the next-best by fitness."""
    k = cfg.sub_pool
    by_fitness = sorted(candidates, key=lambda ind: ind.fitness, reverse=True)
    by_nterm = sorted(
        candidates, key=lambda ind: (ind.nterm, ind.fitness), reverse=True
    )
    by_cterm = sorted(
        candidates, key=lambda ind: (ind.cterm, ind.fitness), reverse=True
    )
    selected = by_fitness[:k] + by_nterm[:k] + by_cterm[:k]
    refill = k
    while len(selected) < cfg.population:
        selected.append(by_fitness[refill % len(by_fitness)])
        refill += 1
    return selected[: cfg.population]


def _select_elites(population: list[Individual], count: int) -> list[Individual]:
    if count <= 0:
        return []
    criteria = [
        lambda ind: ind.fitness,
        lambda ind: (ind.nterm, ind.fitness),
        lambda ind: (ind.cterm, ind.fitness),
    ]
    elites = [max(population, key=key) for key in criteria[:count]]
    if count > len(criteria):
        by_fitness = sorted(population, key=lambda ind: ind.fitness, reverse=True)
        elites.extend(by_fitness[: count - len(criteria)])
    return elites


def evolve(spec: Spectrum, cfg: GaConfig) -> EvolveResult:
    """Run the full GA on one (preprocessed) spectrum.

    Returns the all-time best individual by fitness and a per-generation
    trace. Identical seeds produce identical results.
    """
    rng = random.Random(cfg.seed)
    pool = build_init_pool(spec, cfg.tau, cfg.pool_size, rng)
    if not pool.candidates:
        raise EvolutionError(
            f"initialization pool for spectrum {spec.title!r} is empty; "
            "the spectrum may be degenerate or the precursor mass unreachable"
        )
    population = _initial_population(pool.candidates, cfg)
    best = max(population, key=lambda ind: ind.fitness)
    trace = [_trace_row(0, population)]

    for generation in range(1, cfg.generations + 1):
        pools = select_pools(population, cfg, rng)
        target = cfg.population - cfg.elitism
        offspring: list[Individual] = []
        while len(offspring) < target:
            op = choose_operator(cfg, rng)
            if op == OPERATOR_NTERM_CTERM and (
                not pools.nterm_pool or not pools.cterm_pool
            ):
                op = OPERATOR_TWO_POINT
            if op == OPERATOR_NTERM_CTERM:
                offspring.append(
                    nterm_cterm_crossover(
                        rng.choice(pools.nterm_pool),
                        rng.choice(pools.cterm_pool),
                        rng.choice(pools.helper),
                        spec,
                        cfg.tau,
                        rng,
                        cfg.relaxed_cx_bound,
                    )
                )
            elif op == OPERATOR_TWO_POINT:
                o1, o2 = two_point_crossover(
                    rng.choice(pools.tournament),
                    rng.choice(pools.tournament),
                    spec,
                    cfg.tau,
                    rng,
                )
                offspring.append(o1)
                if len(offspring) < target:
                    offspring.append(o2)
            elif op == OPERATOR_FLIP:
                offspring.append(
                    flip_aa_mutation(
                        rng.choice(pools.tournament), spec, cfg.tau, rng
                    )
                )
            else:
                offspring.append(
                    conflict_mass_mutation(
                        rng.choice(pools.tournament), spec, cfg.tau, rng
                    )
                )
        population = offspring + _select_elites(population, cfg.elitism)
        generation_best = max(population, key=lambda ind: ind.fitness)
        if generation_best.fitness > best.fitness:
            best = generation_best
        trace.append(_trace_row(generation, population))

    return EvolveResult(
        best=best, trace=tuple(trace), generations_used=cfg.generations
    )


def _trace_row(generation: int, population: list[Individual]) -> TraceRow:
    best = max(population, key=lambda ind: ind.fitness)
    mean = sum(ind.fitness for ind in population) / len(population)
    return TraceRow(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=mean,
        best_peptide=best.peptide,
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
