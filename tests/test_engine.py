import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopep import (
    EvolutionError,
    GaConfig,
    Individual,
    SynthConfig,
    conflict_mass_mutation,
    evolve,
    flip_aa_mutation,
    make_spectrum,
    nterm_cterm_crossover,
    preprocess,
    select_pools,
    synthesize_spectrum,
    two_point_crossover,
)
from evopep.chem import (
    CANONICAL_ALPHABET,
    MAX_PEPTIDE_LENGTH,
    PROTON_MASS,
    TRYPTIC_TERMINALS,
    is_tryptic,
    parent_mass,
    residue_mass,
)
from evopep.engine import choose_operator, trace_to_tsv
from tests.conftest import clean_spectrum

TAU = 0.5
DELTA_BOUND = residue_mass("G") + TAU


@pytest.fixture(scope="module")
def aaal_spectrum():
    return clean_spectrum("AAALAAADAR")


def scored(peptide, spec):
    return Individual.score(peptide, spec, TAU)


def test_config_validates_rates():
    with pytest.raises(ValueError):
        GaConfig(rate_flip=0.2)  # rates no longer sum to 1
    with pytest.raises(ValueError):
        GaConfig(rate_flip=-0.1, rate_conflict=0.35)


def test_config_sub_pool_derived():
    assert GaConfig().sub_pool == 100
    assert GaConfig(population=250).sub_pool == 83


def test_operator_draw_frequencies():
    cfg = GaConfig()
    rng = random.Random(99)
    counts = Counter(choose_operator(cfg, rng) for _ in range(100_000))
    assert counts["nterm_cterm"] / 100_000 == pytest.approx(0.40, abs=0.01)
    assert counts["two_point"] / 100_000 == pytest.approx(0.35, abs=0.01)
    assert counts["flip"] / 100_000 == pytest.approx(0.10, abs=0.01)
    assert counts["conflict"] / 100_000 == pytest.approx(0.15, abs=0.01)


def test_select_pools_identical_population(aaal_spectrum):
    ind = scored("AAALAAADAR", aaal_spectrum)
    cfg = GaConfig(population=30)
    pools = select_pools([ind] * 30, cfg, random.Random(1))
    assert len(pools.helper) == cfg.sub_pool
    assert all(member is ind for member in pools.helper)
    assert len(pools.tournament) == cfg.sub_pool


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


def test_nterm_cterm_crossover_published_reconstruction(aaal_spectrum):
    n_parent = scored("AAALAGGWR", aaal_spectrum)
    c_parent = scored("NVLAAADAR", aaal_spectrum)
    helper = scored("RGLAAADVK", aaal_spectrum)
    assert n_parent.nterm == 4  # prefix AAALA
    assert c_parent.cterm == 6  # suffix LAAADAR
    exact = 0
    for seed in range(200):
        child = nterm_cterm_crossover(
            n_parent, c_parent, helper, aaal_spectrum, TAU, random.Random(seed)
        )
        assert is_tryptic(child.peptide)
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
            n_parent, c_parent, helper, aaal_spectrum, TAU, random.Random(seed)
        )
        if child.peptide == "AAALAAADAR":
            exact += 1
    assert exact > 0


def test_nterm_cterm_crossover_bound_or_parent(aaal_spectrum):
    n_parent = scored("AAALAGGWR", aaal_spectrum)
    c_parent = scored("NVLAAADAR", aaal_spectrum)
    helper = scored("RGLAAADVK", aaal_spectrum)
    parents = {n_parent.peptide, c_parent.peptide}
    for seed in range(100):
        child = nterm_cterm_crossover(
            n_parent, c_parent, helper, aaal_spectrum, TAU, random.Random(seed)
        )
        assert abs(child.delta_mass) < DELTA_BOUND or child.peptide in parents


def test_nterm_cterm_crossover_requires_anchors(aaal_spectrum):
    good = scored("AAALAAADAR", aaal_spectrum)
    weak = scored("WWWWTTTK", aaal_spectrum)
    with pytest.raises(ValueError):
        nterm_cterm_crossover(weak, good, good, aaal_spectrum, TAU, random.Random(1))
    with pytest.raises(ValueError):
        nterm_cterm_crossover(good, weak, good, aaal_spectrum, TAU, random.Random(1))


def test_two_point_crossover_mechanics(aaal_spectrum):
    p1 = scored("AAKGGR", aaal_spectrum)
    p2 = scored("GGGTTR", aaal_spectrum)
    rng = random.Random(7)
    for _ in range(50):
        o1, o2 = two_point_crossover(p1, p2, aaal_spectrum, TAU, rng)
        assert o1.peptide[-1] == p1.peptide[-1]
        assert o2.peptide[-1] == p2.peptide[-1]
        # conservation: swapped middles keep the residue multiset overall
        assert Counter(o1.peptide + o2.peptide) == Counter(p1.peptide + p2.peptide)


def test_two_point_crossover_short_parents_unchanged(aaal_spectrum):
    p1 = scored("AKR", aaal_spectrum)
    p2 = scored("GGGTTR", aaal_spectrum)
    assert two_point_crossover(p1, p2, aaal_spectrum, TAU, random.Random(1)) == (p1, p2)


def test_two_point_crossover_identical_parents_conserve_composition(aaal_spectrum):
    p = scored("AAKGGR", aaal_spectrum)
    o1, o2 = two_point_crossover(p, p, aaal_spectrum, TAU, random.Random(5))
    assert Counter(o1.peptide + o2.peptide) == Counter(p.peptide * 2)
    assert o1.peptide[-1] == o2.peptide[-1] == "R"


def test_flip_mutation_changes_one_interior_position(aaal_spectrum):
    ind = scored("AAALAAADAR", aaal_spectrum)
    rng = random.Random(11)
    for _ in range(200):
        child = flip_aa_mutation(ind, aaal_spectrum, TAU, rng)
        assert len(child.peptide) == len(ind.peptide)
        diffs = [i for i, (a, b) in enumerate(zip(ind.peptide, child.peptide)) if a != b]
        assert len(diffs) == 1
        assert diffs[0] < len(ind.peptide) - 1
        assert "I" not in child.peptide


def test_flip_mutation_length_two(aaal_spectrum):
    ind = scored("GR", aaal_spectrum)
    rng = random.Random(2)
    for _ in range(50):
        child = flip_aa_mutation(ind, aaal_spectrum, TAU, rng)
        assert child.peptide[-1] == "R"
        assert child.peptide[0] != "G"


def test_flip_mutation_preserves_terminal_statistically(aaal_spectrum):
    rng = random.Random(13)
    ind = scored("LGVTLYK", aaal_spectrum)
    assert all(
        flip_aa_mutation(ind, aaal_spectrum, TAU, rng).peptide[-1] == "K"
        for _ in range(10_000)
    )


def test_conflict_mutation_gwk(aaal_spectrum):
    ind = scored("GWK", aaal_spectrum)
    rng = random.Random(3)
    seen = {conflict_mass_mutation(ind, aaal_spectrum, TAU, rng).peptide for _ in range(300)}
    assert seen == {"GDAK", "GADK", "GEGK", "GGEK", "GVSK", "GSVK"}


def test_conflict_mutation_terminal_excluded(aaal_spectrum):
    for seq in ("AAAK", "AAAR"):
        ind = scored(seq, aaal_spectrum)
        child = conflict_mass_mutation(ind, aaal_spectrum, TAU, random.Random(1))
        assert child.peptide == seq


def test_conflict_mutation_preserves_nominal_mass(aaal_spectrum):
    rng = random.Random(41)
    from evopep.evaluation import random_tryptic_peptide

    drift = 0.0
    applied = 0
    for _ in range(1000):
        pep = random_tryptic_peptide(rng)
        ind = scored(pep, aaal_spectrum)
        child = conflict_mass_mutation(ind, aaal_spectrum, TAU, rng)
        if child.peptide != pep:
            applied += 1
            assert len(child.peptide) == len(pep) + 1
            drift = max(drift, abs(parent_mass(child.peptide) - parent_mass(pep)))
    assert applied > 300
    assert drift < 0.05


def test_evolve_zero_generations_returns_pool_best(aaal_spectrum):
    cfg = GaConfig(generations=0, seed=5)
    result = evolve(aaal_spectrum, cfg)
    assert result.generations_used == 0
    assert len(result.trace) == 1
    assert result.best.fitness == result.trace[0].best_fitness


def test_evolve_deterministic(aaal_spectrum):
    cfg = GaConfig(generations=5, seed=123)
    a = evolve(aaal_spectrum, cfg)
    b = evolve(aaal_spectrum, cfg)
    assert a == b


def test_evolve_population_invariants(aaal_spectrum):
    cfg = GaConfig(generations=6, seed=3)
    result = evolve(aaal_spectrum, cfg)
    assert len(result.trace) == 7
    fits = [row.best_fitness for row in result.trace]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert is_tryptic(result.best.peptide)


def test_evolve_recovers_ground_truth(aaal_spectrum):
    hits = sum(
        evolve(aaal_spectrum, GaConfig(seed=f"run|{s}")).best.peptide == "AAALAAADAR"
        for s in range(30)
    )
    assert hits >= 24


def test_operators_fall_back_at_length_cap():
    # The precursor is far heavier than any 64-residue G/A candidate, so every
    # crossover of these parents would outgrow MAX_PEPTIDE_LENGTH somewhere.
    precursor = parent_mass("W" * 62 + "K")
    spec = make_spectrum("heavy", precursor + PROTON_MASS, 1, [100.0, 200.0], [1.0, 1.0])

    def ind(peptide, fitness=0.0, nterm=0, cterm=0):
        return Individual(peptide, fitness, nterm, cterm, 0.0)

    full = ind("W" * 63 + "K")
    assert conflict_mass_mutation(full, spec, TAU, random.Random(1)) is full
    # Prefix plus suffix alone is 80 residues.
    n_long, c_long = ind("G" * 40 + "K", 1.0, nterm=39), ind("A" * 40 + "R", 2.0, cterm=39)
    assert nterm_cterm_crossover(n_long, c_long, n_long, spec, TAU, random.Random(1)) is c_long
    # 42 residues that the helper's window, then mass adjustment, must grow.
    n_part, c_part = ind("G" * 30 + "K", 1.0, nterm=20), ind("G" * 30 + "R", 2.0, cterm=20)
    helper = ind("G" * 63 + "K")
    for seed in range(30):
        rng = random.Random(seed)
        assert nterm_cterm_crossover(n_part, c_part, helper, spec, TAU, rng) is c_part
    p1, p2 = ind("A" * 62 + "K"), ind("G" * 62 + "R")
    for seed in range(30):
        o1, o2 = two_point_crossover(p1, p2, spec, TAU, random.Random(seed))
        assert max(len(o1.peptide), len(o2.peptide)) <= MAX_PEPTIDE_LENGTH


@pytest.mark.parametrize("length", [40, 62])
def test_evolve_scores_only_capped_tryptic_peptides_on_long_precursor(length):
    # Crossover children and mutants of long parents can outgrow the length
    # cap; each operator must fall back instead of failing the whole run.
    rng = random.Random(length)
    truth = "".join(rng.choice(CANONICAL_ALPHABET) for _ in range(length - 1)) + "K"
    spec = preprocess(
        synthesize_spectrum(truth, SynthConfig(noise_peaks=20, dropout=0.1), rng)
    )
    evolve(spec, GaConfig(population=30, pool_size=60, generations=5, seed=1))
    assert all(
        2 <= len(peptide) <= MAX_PEPTIDE_LENGTH and is_tryptic(peptide)
        for peptide, _ in spec.scores
    )


@st.composite
def ga_settings(draw):
    population = draw(st.integers(6, 30))
    weights = draw(st.lists(st.integers(0, 10), min_size=4, max_size=4).filter(any))
    rates = [w / sum(weights) for w in weights]
    return GaConfig(
        pool_size=draw(st.integers(population, 60)),
        population=population,
        generations=draw(st.integers(0, 5)),
        tournament_k=draw(st.integers(1, 7)),
        rate_nterm_cterm_cx=rates[0],
        rate_two_point_cx=rates[1],
        rate_flip=rates[2],
        rate_conflict=rates[3],
        elitism=draw(st.integers(1, min(5, population - 1))),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.text(CANONICAL_ALPHABET, min_size=1, max_size=39),
    st.sampled_from(TRYPTIC_TERMINALS),
    ga_settings(),
    st.integers(0, 2**32),
)
def test_evolve_scores_capped_tryptic_peptides_and_keeps_its_best(body, terminal, cfg, seed):
    rng = random.Random(seed)
    spec = preprocess(
        synthesize_spectrum(body + terminal, SynthConfig(noise_peaks=10, dropout=0.1), rng)
    )
    try:
        result = evolve(spec, cfg)
    except EvolutionError:  # no candidate reached the precursor mass
        result = None
    assert all(
        2 <= len(peptide) <= MAX_PEPTIDE_LENGTH and is_tryptic(peptide)
        for peptide, _ in spec.scores
    )
    if result is not None:
        best = [row.best_fitness for row in result.trace]
        assert len(best) == cfg.generations + 1
        assert best == sorted(best)


def test_trace_tsv_shape(aaal_spectrum):
    result = evolve(aaal_spectrum, GaConfig(generations=2, seed=1))
    text = trace_to_tsv(result.trace)
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == [
        "generation",
        "best_fitness",
        "mean_fitness",
        "best_peptide",
    ]
    assert len(lines) == 4
