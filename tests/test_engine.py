import math
import random
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopep import (
    EvolutionError,
    GaConfig,
    Individual,
    SynthConfig,
    evolve,
    fitness,
    make_spectrum,
    preprocess,
    synthesize_spectrum,
)
from evopep import engine
from evopep.chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    PROTON_MASS,
    RESIDUE_MASSES,
    TRYPTIC_TERMINALS,
    parent_mass,
)
from evopep.engine import (
    OPERATORS,
    RATES,
    TOURNAMENT_K,
    _draws_below,
    _initial_population,
    _trace_row,
    choose_operator,
    conflict_mass_mutation,
    flip_aa_mutation,
    nterm_cterm_crossover,
    select_pools,
    trace_to_tsv,
    two_point_crossover,
)
from tests.conftest import GuardedRandom, clean_spectrum

TAU = 0.5
DELTA_BOUND = RESIDUE_MASSES["G"] + TAU


@pytest.fixture(scope="module")
def aaal_spectrum():
    return clean_spectrum("AAALAAADAR")


def scored(peptide, spec):
    return fitness(peptide, spec, TAU)


@contextmanager
def fitness_calls():
    """The peptides that reach ``evopep.scoring.fitness``, the function that
    every unique evaluation of a run enters, in call order."""
    seen = []

    def spy(peptide, *args, **kwargs):
        seen.append(peptide)
        return fitness(peptide, *args, **kwargs)

    with mock.patch("evopep.scoring.fitness", spy):
        yield seen


def test_rates_are_the_published_ones():
    assert dict(zip(OPERATORS, RATES)) == {
        "nterm_cterm": 0.40, "two_point": 0.35, "flip": 0.10, "conflict": 0.15
    }
    assert math.isclose(sum(RATES), 1.0)
    assert engine._RATE_EDGES == (0.40, 0.40 + 0.35, 0.40 + 0.35 + 0.10)
    assert TOURNAMENT_K == 7


@pytest.mark.parametrize("population", [4, 5, 6])
def test_population_below_the_tournament_size_runs(aaal_spectrum, population):
    # Entrants are drawn with replacement, so a tournament may hold more
    # entrants than the population has members.
    cfg = GaConfig(pool_size=20, population=population, generations=2)
    result = evolve(aaal_spectrum, cfg, random.Random(population))
    assert result.generations_used == 2


@pytest.mark.parametrize("name", ["pool_size", "population", "generations"])
def test_config_refuses_a_count_no_list_can_hold(name):
    # A run keeps pool_size candidates, population individuals and a trace
    # row per generation. A population of 10**400 once grew a `sequence`
    # process past 3 GB before its first generation.
    settings = {"pool_size": 60, "population": 30, "generations": 3}
    assert GaConfig(**{**settings, name: sys.maxsize})
    with pytest.raises(ValueError, match=f"^{name} must be at most {sys.maxsize}$"):
        GaConfig(**{**settings, name: 10**400})


def test_config_sub_pool_derived():
    assert GaConfig().sub_pool == 100
    assert GaConfig(population=250).sub_pool == 83


def test_operator_draw_frequencies():
    rng = random.Random(99)
    counts = Counter(choose_operator(rng) for _ in range(100_000))
    assert counts["nterm_cterm"] / 100_000 == pytest.approx(0.40, abs=0.01)
    assert counts["two_point"] / 100_000 == pytest.approx(0.35, abs=0.01)
    assert counts["flip"] / 100_000 == pytest.approx(0.10, abs=0.01)
    assert counts["conflict"] / 100_000 == pytest.approx(0.15, abs=0.01)


def reference_choose_operator(rng):
    """The draw as an explicit walk over the rate edges, in operator order."""
    draw = rng.random()
    nterm_cterm, two_point, flip, _ = RATES
    edge = nterm_cterm
    if draw < edge:
        return "nterm_cterm"
    edge += two_point
    if draw < edge:
        return "two_point"
    edge += flip
    if draw < edge:
        return "flip"
    return "conflict"


def fixed_draw(value):
    """A stand-in generator whose ``random()`` returns ``value``."""
    return SimpleNamespace(random=lambda: value)


# Each edge of the walk, and the draws just below and just above it.
_EDGES = [0.0, RATES[0], RATES[0] + RATES[1], RATES[0] + RATES[1] + RATES[2]]
_AROUND_EDGES = _EDGES + [
    math.nextafter(edge, toward) for edge in _EDGES for toward in (0.0, 1.0)
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_AROUND_EDGES), st.floats(0.0, 1.0, exclude_max=True)
        ),
        min_size=1,
        max_size=20,
    )
)
def test_choose_operator_matches_the_edge_walk(values):
    for value in values:
        expected = reference_choose_operator(fixed_draw(value))
        assert choose_operator(fixed_draw(value)) == expected


def test_select_pools_identical_population(aaal_spectrum):
    ind = scored("AAALAAADAR", aaal_spectrum)
    cfg = GaConfig(population=30)
    pools = select_pools([ind] * 30, cfg, random.Random(1))
    assert len(pools.helper) == cfg.sub_pool
    assert all(member is ind for member in pools.helper)
    assert len(pools.tournament) == cfg.sub_pool


def test_select_pools_refuses_an_empty_population():
    # Checked before the first tournament draw, which would find nothing.
    with pytest.raises(IndexError, match="empty population"):
        select_pools([], GaConfig(population=30), GuardedRandom(1))


def test_select_pools_requires_positive_scores(aaal_spectrum):
    # individuals with nterm == 0 are excluded from the nterm pool
    weak = scored("WWWWTTTK", aaal_spectrum)
    assert weak.nterm == 0
    cfg = GaConfig(population=30)
    pools = select_pools([weak] * 30, cfg, random.Random(1))
    assert pools.nterm_pool == ()


def test_select_pools_sizes_bounded(aaal_spectrum):
    rng = random.Random(3)
    population = [
        scored("AAALAAADAR", aaal_spectrum),
        scored("AAALAGGWR", aaal_spectrum),
        scored("NVLAAADAR", aaal_spectrum),
    ] * 100
    cfg = GaConfig()
    pools = select_pools(population, cfg, rng)
    for pool in (pools.helper, pools.nterm_pool, pools.cterm_pool, pools.tournament):
        assert len(pool) <= cfg.sub_pool


# The rankings as they were built before one stable sort per order served
# them: each terminus pool filtered, then sorted; each elite head a ``max``;
# the initial population from its own three sorts.


def fitness_key(ind):
    return ind.fitness


def reference_pools(population, cfg):
    k = cfg.sub_pool

    def terminus_pool(score):
        members = (ind for ind in population if score(ind) >= 1)
        ranked = sorted(members, key=lambda ind: (score(ind), ind.fitness), reverse=True)
        return ranked[:k]

    by_fitness = sorted(population, key=fitness_key, reverse=True)
    return (
        by_fitness[:k],
        terminus_pool(lambda ind: ind.nterm),
        terminus_pool(lambda ind: ind.cterm),
    )


def reference_elites(population):
    criteria = [
        fitness_key,
        lambda ind: (ind.nterm, ind.fitness),
        lambda ind: (ind.cterm, ind.fitness),
    ]
    return [max(population, key=key) for key in criteria]


def reference_tournament(population, cfg, rng):
    return [
        max((rng.choice(population) for _ in range(TOURNAMENT_K)), key=fitness_key)
        for _ in range(cfg.sub_pool)
    ]


def reference_initial_population(candidates, cfg):
    k = cfg.sub_pool
    by_fitness = sorted(candidates, key=fitness_key, reverse=True)
    by_nterm = sorted(candidates, key=lambda ind: (ind.nterm, ind.fitness), reverse=True)
    by_cterm = sorted(candidates, key=lambda ind: (ind.cterm, ind.fitness), reverse=True)
    selected = by_fitness[:k] + by_nterm[:k] + by_cterm[:k]
    refill = k
    while len(selected) < cfg.population:
        selected.append(by_fitness[refill % len(by_fitness)])
        refill += 1
    return selected[: cfg.population]


@st.composite
def tied_populations(draw):
    """Individuals with distinct peptides and heavily tied scores, and a GA
    setting whose population may be larger or smaller than the list."""
    terms = st.tuples(
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.integers(0, 3), st.integers(0, 3)
    )
    rows = draw(st.lists(terms, min_size=1, max_size=40))
    population = [
        Individual(f"P{index}K", fit, nterm, cterm, 0.0)
        for index, (fit, nterm, cterm) in enumerate(rows)
    ]
    return population, GaConfig(population=draw(st.integers(4, 60)))


def peptides_of(individuals):
    return [ind.peptide for ind in individuals]


@settings(max_examples=300, deadline=None)
@given(tied_populations(), st.integers(0, 2**32))
def test_rankings_match_the_filtered_sorts_and_max_elites(case, seed):
    population, cfg = case
    rng, reference_rng = random.Random(seed), random.Random(seed)
    pools = select_pools(population, cfg, rng)
    helper, nterm_pool, cterm_pool = reference_pools(population, cfg)
    assert peptides_of(pools.helper) == peptides_of(helper)
    assert peptides_of(pools.nterm_pool) == peptides_of(nterm_pool)
    assert peptides_of(pools.cterm_pool) == peptides_of(cterm_pool)
    tournament = reference_tournament(population, cfg, reference_rng)
    assert peptides_of(pools.tournament) == peptides_of(tournament)
    # The batched draw takes no word that rng.choice would not take.
    assert rng.getstate() == reference_rng.getstate()
    elites = reference_elites(population)
    assert peptides_of(pools.elites) == peptides_of(elites)
    initial = reference_initial_population(population, cfg)
    assert peptides_of(_initial_population(tuple(population), cfg)) == peptides_of(initial)


# Bounds of _randbelow: small ones, whose batches take several rounds, powers
# of two, which reject almost half their words, and bounds of 32 bits or more
# around the last one that a 32-bit word can serve.
BOUNDS = st.one_of(
    st.integers(1, 1000),
    st.integers(0, 34).map(lambda e: 2**e),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(1, 2**34),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), BOUNDS, st.integers(0, 1000))
def test_batched_draws_keep_the_randbelow_stream(seed, n, count):
    batched, single = random.Random(seed), random.Random(seed)
    draws = _draws_below(batched, n, count)
    assert draws.tolist() == [single._randbelow(n) for _ in range(count)]
    assert batched.getstate() == single.getstate()


class CountingRandom(random.Random):
    """A subclass, which may change how it draws: it counts its draws."""

    calls = 0

    def _randbelow(self, n):
        self.calls += 1
        return super()._randbelow(n)


def test_a_subclass_draws_each_entrant_on_the_stream():
    population = [Individual(f"P{i}K", i % 7 - 3.0, 0, 0, 0.0) for i in range(300)]
    cfg = GaConfig()
    plain, counting = random.Random(4), CountingRandom(4)
    batched = select_pools(population, cfg, plain)
    single = select_pools(population, cfg, counting)
    assert counting.calls == cfg.sub_pool * TOURNAMENT_K
    assert peptides_of(batched.tournament) == peptides_of(single.tournament)
    assert plain.getstate() == counting.getstate()


def test_nterm_cterm_crossover_published_reconstruction(aaal_spectrum):
    n_parent = scored("AAALAGGWR", aaal_spectrum)
    c_parent = scored("NVLAAADAR", aaal_spectrum)
    helper = scored("RGLAAADVK", aaal_spectrum)
    assert n_parent.nterm == 4  # prefix AAALA
    assert c_parent.cterm == 6  # suffix LAAADAR
    exact = 0
    for seed in range(200):
        child = scored(
            nterm_cterm_crossover(
                n_parent, c_parent, helper, aaal_spectrum.precursor_mass, TAU,
                random.Random(seed),
            ),
            aaal_spectrum,
        )
        assert child.peptide.endswith(TRYPTIC_TERMINALS)
        if child.peptide == "AAALAAADAR":
            exact += 1
            assert child.fitness == pytest.approx(2.6, abs=1e-6)
    assert exact > 10


def test_nterm_cterm_crossover_helper_fills_middle(aaal_spectrum):
    # short anchors leave a gap the helper's interior window must fill
    n_parent = scored("AAAPEPSEQK", aaal_spectrum)
    c_parent = scored("PEPSEQAR", aaal_spectrum)
    helper = scored("RGLAAADTK", aaal_spectrum)
    assert n_parent.nterm == 2 and c_parent.cterm == 1
    exact = 0
    for seed in range(3000):
        child = nterm_cterm_crossover(
            n_parent, c_parent, helper, aaal_spectrum.precursor_mass, TAU,
            random.Random(seed),
        )
        if child == "AAALAAADAR":
            exact += 1
    assert exact > 0


def test_nterm_cterm_crossover_bound_or_parent(aaal_spectrum):
    n_parent = scored("AAALAGGWR", aaal_spectrum)
    c_parent = scored("NVLAAADAR", aaal_spectrum)
    helper = scored("RGLAAADVK", aaal_spectrum)
    parents = {n_parent.peptide, c_parent.peptide}
    for seed in range(100):
        child = scored(
            nterm_cterm_crossover(
                n_parent, c_parent, helper, aaal_spectrum.precursor_mass, TAU,
                random.Random(seed),
            ),
            aaal_spectrum,
        )
        assert abs(child.delta_mass) < DELTA_BOUND or child.peptide in parents


def test_nterm_cterm_crossover_requires_anchors(aaal_spectrum):
    good = scored("AAALAAADAR", aaal_spectrum)
    weak = scored("WWWWTTTK", aaal_spectrum)
    precursor = aaal_spectrum.precursor_mass
    with pytest.raises(ValueError):
        nterm_cterm_crossover(weak, good, good, precursor, TAU, random.Random(1))
    with pytest.raises(ValueError):
        nterm_cterm_crossover(good, weak, good, precursor, TAU, random.Random(1))


def test_two_point_crossover_mechanics():
    p1, p2 = "AAKGGR", "GGGTTR"
    rng = random.Random(7)
    for _ in range(50):
        o1, o2 = two_point_crossover(p1, p2, rng)
        assert o1[-1] == p1[-1]
        assert o2[-1] == p2[-1]
        # conservation: swapped middles keep the residue multiset overall
        assert Counter(o1 + o2) == Counter(p1 + p2)


def test_two_point_crossover_short_parents_unchanged():
    assert two_point_crossover("AKR", "GGGTTR", random.Random(1)) == ("AKR", "GGGTTR")


def test_two_point_crossover_identical_parents_conserve_composition():
    p = "AAKGGR"
    o1, o2 = two_point_crossover(p, p, random.Random(5))
    assert Counter(o1 + o2) == Counter(p * 2)
    assert o1[-1] == o2[-1] == "R"


def test_flip_mutation_changes_one_interior_position():
    seq = "AAALAAADAR"
    rng = random.Random(11)
    for _ in range(200):
        child = flip_aa_mutation(seq, rng)
        assert len(child) == len(seq)
        diffs = [i for i, (a, b) in enumerate(zip(seq, child)) if a != b]
        assert len(diffs) == 1
        assert diffs[0] < len(seq) - 1
        assert "I" not in child


def test_flip_mutation_length_two():
    rng = random.Random(2)
    for _ in range(50):
        child = flip_aa_mutation("GR", rng)
        assert child[-1] == "R"
        assert child[0] != "G"


def test_flip_mutation_refuses_a_single_residue():
    # The terminal is never flipped, so one residue leaves nothing to draw.
    with pytest.raises(ValueError, match="two residues"):
        flip_aa_mutation("K", GuardedRandom(1))


def test_flip_mutation_keeps_symbols_outside_the_alphabet_flippable():
    # I and lower case differ from all 19 symbols, so each may become any.
    for seq in ("IK", "aK"):
        children = {flip_aa_mutation(seq, GuardedRandom(s)) for s in range(400)}
        assert {child[0] for child in children} == set(CANONICAL_ALPHABET)


def test_flip_mutation_preserves_terminal_statistically():
    rng = random.Random(13)
    assert all(flip_aa_mutation("LGVTLYK", rng)[-1] == "K" for _ in range(10_000))


def test_conflict_mutation_gwk():
    rng = random.Random(3)
    seen = {conflict_mass_mutation("GWK", rng) for _ in range(300)}
    assert seen == {"GDAK", "GADK", "GEGK", "GGEK", "GVSK", "GSVK"}


def test_conflict_mutation_terminal_excluded():
    for seq in ("AAAK", "AAAR"):
        assert conflict_mass_mutation(seq, random.Random(1)) == seq


def test_conflict_mutation_preserves_nominal_mass():
    rng = random.Random(41)
    from evopep.evaluation import random_tryptic_peptide

    drift = 0.0
    applied = 0
    for _ in range(1000):
        pep = random_tryptic_peptide(rng)
        child = conflict_mass_mutation(pep, rng)
        if child != pep:
            applied += 1
            assert len(child) == len(pep) + 1
            drift = max(drift, abs(parent_mass(child) - parent_mass(pep)))
    assert applied > 300
    assert drift < 0.05


# Canonical tryptic peptides of 2-64 residues. The length is drawn first, so
# that long parents, whose crossovers can outgrow the cap, are common.
peptides = st.integers(1, MAX_PEPTIDE_LENGTH - 1).flatmap(
    lambda n: st.builds(
        lambda body, terminal: body + terminal,
        st.text(CANONICAL_ALPHABET, min_size=n, max_size=n),
        st.sampled_from(TRYPTIC_TERMINALS),
    )
)
rngs = st.integers(0, 2**32).map(GuardedRandom)


def nominal_mass(seq):
    return sum(round(RESIDUE_MASSES[sym]) for sym in seq)


@settings(deadline=None)
@given(peptides, rngs)
def test_flip_mutation_properties(seq, rng):
    child = flip_aa_mutation(seq, rng)
    assert len(child) == len(seq)
    assert child[-1] == seq[-1]
    assert sum(a != b for a, b in zip(seq, child)) == 1


@settings(deadline=None)
@given(peptides, rngs)
def test_conflict_mutation_properties(seq, rng):
    child = conflict_mass_mutation(seq, rng)
    assert len(child) <= MAX_PEPTIDE_LENGTH
    if child != seq:
        assert len(child) == len(seq) + 1
        assert nominal_mass(child) == nominal_mass(seq)
        assert child[-1] == seq[-1]


@settings(deadline=None)
@given(peptides, peptides, rngs)
def test_two_point_crossover_properties(s1, s2, rng):
    o1, o2 = two_point_crossover(s1, s2, rng)
    assert o1[-1] == s1[-1] and o2[-1] == s2[-1]
    assert max(len(o1), len(o2)) <= MAX_PEPTIDE_LENGTH
    # A child that outgrew the cap took more than its share of the residues,
    # so its stand-in parent leaves the pair shorter than the parents.
    if len(o1) + len(o2) == len(s1) + len(s2):
        assert Counter(o1 + o2) == Counter(s1 + s2)
    else:
        assert o1 == s1 or o2 == s2


@st.composite
def anchored(draw, terminus):
    seq = draw(peptides)
    score = draw(st.integers(1, len(seq) - 1))
    fitness = draw(st.floats(-5.0, 5.0))
    if terminus == "n":
        return Individual(seq, fitness, score, 0, 0.0)
    return Individual(seq, fitness, 0, score, 0.0)


@settings(deadline=None)
@given(
    anchored("n"),
    anchored("c"),
    peptides,
    st.floats(200.0, 8000.0),
    rngs,
)
def test_nterm_cterm_crossover_returns_capped_tryptic_peptide(
    n_parent, c_parent, helper, precursor, rng
):
    child = nterm_cterm_crossover(
        n_parent, c_parent, Individual(helper, 0.0, 0, 0, 0.0), precursor, TAU, rng
    )
    assert 2 <= len(child) <= MAX_PEPTIDE_LENGTH
    assert child.endswith(TRYPTIC_TERMINALS)


def test_evolve_zero_generations_returns_pool_best(aaal_spectrum):
    result = evolve(aaal_spectrum, GaConfig(generations=0), random.Random(5))
    assert result.generations_used == 0
    assert len(result.trace) == 1
    assert result.best.fitness == result.trace[0].best_fitness


def test_evolve_deterministic(aaal_spectrum):
    cfg = GaConfig(generations=5)
    a = evolve(aaal_spectrum, cfg, random.Random(123))
    b = evolve(aaal_spectrum, cfg, random.Random(123))
    assert a == b


def test_evolve_population_invariants(aaal_spectrum):
    result = evolve(aaal_spectrum, GaConfig(generations=6), random.Random(3))
    assert len(result.trace) == 7
    fits = [row.best_fitness for row in result.trace]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert result.best.peptide.endswith(TRYPTIC_TERMINALS)


def test_evolve_recovers_ground_truth(aaal_spectrum):
    hits = sum(
        evolve(aaal_spectrum, GaConfig(), random.Random(f"run|{s}")).best.peptide
        == "AAALAAADAR"
        for s in range(30)
    )
    assert hits >= 24


class _NoDraws(random.Random):
    """A generator whose every draw fails the test."""

    def _draw(self, *args):
        raise AssertionError("a draw was made")

    random = getrandbits = _randbelow = _draw


def test_evolve_refuses_an_unreachable_precursor_before_drawing():
    # 20,000 Da is above any peptide of at most 64 residues.
    spec = clean_spectrum("LGVTLYK")
    far = make_spectrum(
        "far", (20000.0 + 2 * PROTON_MASS) / 2, 2, spec.mz, spec.intensity
    )
    with pytest.raises(
        EvolutionError,
        match=r"'far': no peptide .* precursor mass of 20000\.0000 Da",
    ):
        evolve(far, GaConfig(), _NoDraws())


def test_evolve_refuses_a_zero_intensity_spectrum_before_drawing():
    spec = clean_spectrum("LGVTLYK")
    zero = make_spectrum(
        "zero", spec.pepmass, spec.charge, spec.mz, [0.0] * len(spec.mz)
    )
    with pytest.raises(
        EvolutionError, match="'zero': spectrum has no positive intensity"
    ):
        evolve(zero, GaConfig(), _NoDraws())


def test_evolve_refuses_a_spectrum_whose_total_intensity_overflows():
    # Each intensity is finite, but seven of 1e308 add up to inf, which would
    # make every fitness NaN.
    spec = clean_spectrum("LGVTLYK")
    huge = make_spectrum("huge", spec.pepmass, spec.charge, spec.mz[:7], [1e308] * 7)
    assert huge.total_intensity == math.inf
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(
        EvolutionError, match="'huge': spectrum's total intensity overflows to inf"
    ):
        evolve(huge, GaConfig(), rng)
    assert rng.getstate() == state


def test_operators_fall_back_at_length_cap():
    # The precursor is far heavier than any 64-residue G/A candidate, so every
    # crossover of these parents would outgrow MAX_PEPTIDE_LENGTH somewhere.
    precursor = parent_mass("W" * 62 + "K")

    def ind(peptide, fitness=0.0, nterm=0, cterm=0):
        return Individual(peptide, fitness, nterm, cterm, 0.0)

    full = "W" * 63 + "K"
    assert conflict_mass_mutation(full, random.Random(1)) == full
    # Prefix plus suffix alone is 80 residues.
    n_long, c_long = ind("G" * 40 + "K", 1.0, nterm=39), ind("A" * 40 + "R", 2.0, cterm=39)
    rng = random.Random(1)
    child = nterm_cterm_crossover(n_long, c_long, n_long, precursor, TAU, rng)
    assert child == c_long.peptide
    # 42 residues that the helper's window, then mass adjustment, must grow.
    n_part, c_part = ind("G" * 30 + "K", 1.0, nterm=20), ind("G" * 30 + "R", 2.0, cterm=20)
    helper = ind("G" * 63 + "K")
    for seed in range(30):
        rng = random.Random(seed)
        child = nterm_cterm_crossover(n_part, c_part, helper, precursor, TAU, rng)
        assert child == c_part.peptide
    p1, p2 = "A" * 62 + "K", "G" * 62 + "R"
    for seed in range(30):
        o1, o2 = two_point_crossover(p1, p2, random.Random(seed))
        assert max(len(o1), len(o2)) <= MAX_PEPTIDE_LENGTH


@pytest.mark.parametrize("length", [40, 62])
def test_evolve_scores_only_capped_tryptic_peptides_on_long_precursor(length):
    # Crossover children and mutants of long parents can outgrow the length
    # cap; each operator must fall back instead of failing the whole run.
    rng = random.Random(length)
    truth = "".join(rng.choice(CANONICAL_ALPHABET) for _ in range(length - 1)) + "K"
    spec = preprocess(
        synthesize_spectrum(truth, SynthConfig(noise_peaks=20, dropout=0.1), rng)
    )
    with fitness_calls() as peptides:
        cfg = GaConfig(population=30, pool_size=60, generations=5)
        evolve(spec, cfg, random.Random(1))
    assert peptides
    assert all(
        2 <= len(peptide) <= MAX_PEPTIDE_LENGTH and peptide.endswith(TRYPTIC_TERMINALS)
        for peptide in peptides
    )


@st.composite
def ga_settings(draw):
    """Small GA settings, and operator rate edges that may leave one operator
    alone, to patch in for the published ones."""
    population = draw(st.integers(4, 30))
    weights = draw(st.lists(st.integers(0, 10), min_size=4, max_size=4).filter(any))
    rates = [w / sum(weights) for w in weights]
    cfg = GaConfig(
        pool_size=draw(st.integers(population, 60)),
        population=population,
        generations=draw(st.integers(0, 5)),
    )
    return cfg, tuple(accumulate(rates[:-1]))


@settings(max_examples=100, deadline=None)
@given(
    st.text(CANONICAL_ALPHABET, min_size=1, max_size=39),
    st.sampled_from(TRYPTIC_TERMINALS),
    ga_settings(),
    st.integers(0, 2**32),
    rngs,
)
def test_evolve_scores_capped_tryptic_peptides_and_keeps_its_best(
    body, terminal, settings_and_edges, seed, ga_rng
):
    cfg, edges = settings_and_edges
    rng = random.Random(seed)
    spec = preprocess(
        synthesize_spectrum(body + terminal, SynthConfig(noise_peaks=10, dropout=0.1), rng)
    )
    with mock.patch.object(engine, "_RATE_EDGES", edges), fitness_calls() as peptides:
        try:
            result = evolve(spec, cfg, ga_rng)
        except EvolutionError:  # no candidate reached the precursor mass
            result = None
    assert all(
        2 <= len(peptide) <= MAX_PEPTIDE_LENGTH and peptide.endswith(TRYPTIC_TERMINALS)
        for peptide in peptides
    )
    if result is not None:
        best = [row.best_fitness for row in result.trace]
        assert len(best) == cfg.generations + 1
        assert best == sorted(best)


def test_trace_mean_adds_left_to_right():
    # From Python 3.12 the builtin sum is compensated and gives 1.0 here.
    population = [
        Individual(peptide="GK", fitness=value, nterm=0, cterm=0, delta_mass=0.0)
        for value in (1e16, 1.0, -1e16)
    ]
    total = 0.0
    for ind in population:
        total += ind.fitness
    row = _trace_row(3, population, population[0])
    assert row.mean_fitness == total / 3 == 0.0
    assert row.best_fitness == 1e16


# trace_to_tsv of a tiny run, and the next 64 bits of its generator after
# the run, at 1 and 2 generations. They pin every draw of the init pool and of
# each generation: a change in the order or the number of draws changes them.
PINNED_RUNS = {
    1: (
        "generation\tbest_fitness\tmean_fitness\tbest_peptide\n"
        "0\t-0.073990\t-1.031863\tLDYLYQDAR\n"
        "1\t0.167588\t-0.933789\tLRYLYQDAR\n",
        16810499966224980048,
    ),
    2: (
        "generation\tbest_fitness\tmean_fitness\tbest_peptide\n"
        "0\t-0.073990\t-1.031863\tLDYLYQDAR\n"
        "1\t0.167588\t-0.933789\tLRYLYQDAR\n"
        "2\t0.245375\t-0.645728\tLGVYLYQDAR\n",
        16041442450294405030,
    ),
}


@pytest.mark.parametrize("generations", sorted(PINNED_RUNS))
def test_tiny_run_keeps_its_trace_and_stream(generations):
    raw = synthesize_spectrum("LGVTLYKDAR", SynthConfig(), random.Random(3))
    cfg = GaConfig(pool_size=60, population=30, generations=generations)
    rng = GuardedRandom(11)
    result = evolve(preprocess(raw), cfg, rng)
    trace, next_bits = PINNED_RUNS[generations]
    assert trace_to_tsv(result.trace) == trace
    assert rng.getrandbits(64) == next_bits


@pytest.mark.parametrize("generations", sorted(PINNED_RUNS))
def test_batched_tournaments_keep_the_run_and_stream(generations):
    # A plain generator draws each generation's entrants in batches, where
    # GuardedRandom above draws them one at a time.
    raw = synthesize_spectrum("LGVTLYKDAR", SynthConfig(), random.Random(3))
    cfg = GaConfig(pool_size=60, population=30, generations=generations)
    rng = random.Random(11)
    result = evolve(preprocess(raw), cfg, rng)
    trace, next_bits = PINNED_RUNS[generations]
    assert trace_to_tsv(result.trace) == trace
    assert rng.getrandbits(64) == next_bits


def test_trace_tsv_shape(aaal_spectrum):
    result = evolve(aaal_spectrum, GaConfig(generations=2), random.Random(1))
    text = trace_to_tsv(result.trace)
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == [
        "generation",
        "best_fitness",
        "mean_fitness",
        "best_peptide",
    ]
    assert len(lines) == 4
