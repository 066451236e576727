import copy
import dataclasses
import pickle
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evopep import (
    Individual,
    InvalidSpectrumError,
    PreprocessConfig,
    Scorer,
    SynthConfig,
    TheoreticalSpectrum,
    fitness,
    make_spectrum,
    preprocess,
    synthesize_spectrum,
    theoretical_spectrum,
)
from evopep.chem import (
    CANONICAL_ALPHABET,
    H2O_MASS,
    PROTON_MASS,
    RESIDUE_MASSES,
    InvalidPeptideError,
    canonical,
    left_to_right_sum,
    parent_mass,
)
from evopep.evaluation import random_tryptic_peptide
from evopep.scoring import _evaluate, fitness_from_terms
from evopep.spectrum import nearest_peaks
from tests.conftest import clean_spectrum

TAU = 0.5


def match_terms(peptide, spec, tau=TAU):
    """Matched intensity, unmatched b/y count, nterm and cterm, as ``fitness``
    computes them."""
    return _evaluate(canonical(peptide), Scorer(spec, tau))


def test_ladder_lgvtlyk_matches_published_values():
    theo = theoretical_spectrum("LGVTLYK")
    assert [round(m) for m in theo.b_ions] == [114, 171, 270, 371, 484, 647]
    assert [round(m) for m in theo.y_ions] == [147, 310, 423, 524, 623, 680]


def test_gk_ladder_and_no_internals():
    theo = theoretical_spectrum("GK")
    assert [round(m) for m in theo.b_ions] == [58]
    assert [round(m) for m in theo.y_ions] == [147]
    assert theo.internal_ions == ()


def test_internal_ions_are_interior_b_type():
    theo = theoretical_spectrum("AGSK")
    # only interior run of length >= 2 is GS
    expected = 57.0214637 + 87.0320284 + PROTON_MASS
    assert len(theo.internal_ions) == 1
    assert theo.internal_ions[0] == pytest.approx(expected, abs=1e-6)


def test_ladders_strictly_increasing():
    theo = theoretical_spectrum("LGVTLYKDES")
    assert all(a < b for a, b in zip(theo.b_ions, theo.b_ions[1:]))
    assert all(a < b for a, b in zip(theo.y_ions, theo.y_ions[1:]))


def test_complementarity_identity_random_peptides():
    rng = random.Random(17)
    for _ in range(1000):
        length = rng.randint(2, 20)
        seq = "".join(rng.choice("ACDEFGHKLMNPQRSTVWY") for _ in range(length))
        theo = theoretical_spectrum(seq)
        total = parent_mass(seq) + 2 * PROTON_MASS
        for j in range(length - 1):
            assert abs(theo.b_ions[j] + theo.y_ions[length - 2 - j] - total) < 1e-9


def test_theoretical_spectrum_rejects_short_peptide():
    with pytest.raises(InvalidPeptideError):
        theoretical_spectrum("K")


def test_self_match_all_ions_hit(ladder_lgvtlyk):
    _, n_unmatched, _, _ = match_terms("LGVTLYK", ladder_lgvtlyk)
    assert n_unmatched == 0


def test_empty_spectrum_matches_nothing():
    spec = make_spectrum("mt", 400.0, 2, [], [])
    theo = theoretical_spectrum("LGVTLYK")
    ions = np.array(theo.b_ions + theo.y_ions + theo.internal_ions)
    nearest, dist = nearest_peaks(spec.mz, ions)
    assert (nearest == -1).all()
    assert not (dist <= TAU).any()
    with pytest.raises(InvalidSpectrumError):
        fitness("LGVTLYK", spec, TAU)


def brute_force_match(ions, spec, tau):
    """All-pairs reference matcher: ion j matched iff any peak within tau."""
    flags = []
    hit_peaks = set()
    for ion in ions:
        best = None
        for idx, peak in enumerate(spec.peaks):
            if abs(peak.mz - ion) <= tau:
                if best is None or abs(peak.mz - ion) < abs(spec.peaks[best].mz - ion):
                    best = idx
        flags.append(best is not None)
        if best is not None:
            hit_peaks.add(best)
    return flags, hit_peaks


def test_matcher_agrees_with_brute_force_on_fixture():
    # Distinct powers of two: the matched intensity names the matched peaks.
    # 258.4 lies near an internal ion only.
    spec = make_spectrum(
        "fx",
        400.0,
        2,
        [100.0, 100.6, 171.2, 258.4, 310.0, 550.0],
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    )
    theo = theoretical_spectrum("LGVTLYK")
    matched_intensity, n_unmatched, _, _ = match_terms("LGVTLYK", spec)
    by_flags, _ = brute_force_match(theo.b_ions + theo.y_ions, spec, TAU)
    _, hit_peaks = brute_force_match(
        theo.b_ions + theo.y_ions + theo.internal_ions, spec, TAU
    )
    assert matched_intensity == sum(spec.intensity[i] for i in hit_peaks)
    assert n_unmatched == by_flags.count(False)


def test_shared_peak_counted_once():
    # one experimental peak within tau of two theoretical ions: b4 and the
    # internal fragment GVT have the same mass
    spec = make_spectrum("sp", 400.0, 2, [371.3], [5.0])
    theo = theoretical_spectrum("LGVTLYK")
    ions = theo.b_ions + theo.y_ions + theo.internal_ions
    assert sum(abs(ion - 371.3) <= TAU for ion in ions) == 2
    matched_intensity, _, _, _ = match_terms("LGVTLYK", spec)
    assert matched_intensity == 5.0


def test_nterm_cterm_ground_truth(ladder_aaal):
    result = fitness("AAALAAADAR", ladder_aaal, TAU)
    assert (result.nterm, result.cterm) == (8, 8)
    assert result.fitness == pytest.approx(2.6, abs=1e-9)


def test_nterm_partial_prefix_parent(ladder_aaal):
    # shares only the 5-residue prefix AAALA with the true peptide
    assert fitness("AAALAGGWR", ladder_aaal, TAU).nterm == 4


def test_scores_bounded_and_maximal_on_self_match():
    rng = random.Random(23)
    for _ in range(20):
        pep = random_tryptic_peptide(rng)
        result = fitness(pep, clean_spectrum(pep), TAU)
        assert result.nterm == len(pep) - 2
        assert result.cterm == len(pep) - 2


def test_fitness_assembly_ground_truth_row():
    value = fitness_from_terms(0.595, 0.000003, 8, 8, 0, 10)
    assert value == pytest.approx(2.1950, abs=0.0005)


def test_fitness_assembly_cterm_parent_row():
    # reproduce the published row from its own printed terms (N printed
    # normalized) within +/- 0.01
    value = 0.58 - 0.000002 + (0 + 7) / 9 - 0.02
    assert value == pytest.approx(1.34, abs=0.01)


def test_fitness_no_match_closed_form():
    # spectrum with one far-away peak, precursor equal to the parent mass
    pep = "GGGGK"
    pepmass = (parent_mass(pep) + 2 * PROTON_MASS) / 2
    spec = make_spectrum("far", pepmass, 2, [5000.0], [3.0])
    result = fitness(pep, spec, TAU)
    length = len(pep)
    assert result.fitness == pytest.approx(-2 * (length - 1) / length, abs=1e-9)
    _, n_unmatched, _, _ = match_terms(pep, spec)
    assert n_unmatched == 2 * (length - 1)


def test_fitness_self_match_dominates_and_terms(ladder_aaal):
    result = fitness("AAALAAADAR", ladder_aaal, TAU)
    matched_intensity, n_unmatched, _, _ = match_terms("AAALAAADAR", ladder_aaal)
    assert n_unmatched == 0
    assert abs(result.delta_mass) < 1e-6
    assert result.nterm == result.cterm == 8
    assert matched_intensity == pytest.approx(ladder_aaal.total_intensity)


def test_fitness_monotone_in_delta():
    for d1, d2 in ((0.0, 0.1), (0.1, 0.5), (0.5, 5.0)):
        f1 = fitness_from_terms(0.5, d1 / 900.0, 3, 3, 2, 9)
        f2 = fitness_from_terms(0.5, d2 / 900.0, 3, 3, 2, 9)
        assert f1 >= f2


def test_intensity_term_scale_invariant(ladder_aaal):
    scaled = make_spectrum(
        ladder_aaal.title,
        ladder_aaal.pepmass,
        ladder_aaal.charge,
        ladder_aaal.mz,
        ladder_aaal.intensity * 3.7,
    )
    a = fitness("AAALAGGWR", ladder_aaal, TAU)
    b = fitness("AAALAGGWR", scaled, TAU)
    ratio_a = match_terms("AAALAGGWR", ladder_aaal)[0] / ladder_aaal.total_intensity
    ratio_b = match_terms("AAALAGGWR", scaled)[0] / scaled.total_intensity
    assert ratio_a == pytest.approx(ratio_b, abs=1e-12)
    assert a.fitness == pytest.approx(b.fitness, abs=1e-9)


def test_fitness_rejects_zero_intensity():
    spec = make_spectrum("z", 400.0, 2, [100.0], [0.0])
    with pytest.raises(InvalidSpectrumError):
        fitness("LGVTLYK", spec, TAU)


def test_fitness_rejects_a_total_intensity_that_overflows():
    # Each intensity is finite, but their sum is inf: the matched fraction
    # would be inf / inf, a NaN fitness.
    mz = [100.0 * k for k in range(1, 8)]
    spec = make_spectrum("huge", 400.0, 2, mz, [1e308] * 7)
    with pytest.raises(InvalidSpectrumError, match="overflows to inf"):
        fitness("LGVTLYK", spec, TAU)


@pytest.mark.parametrize("pepmass,charge", [(PROTON_MASS, 1), (0.5, 2)])
def test_fitness_refuses_non_positive_precursor(pepmass, charge):
    # A zero precursor would divide the mass penalty by zero, and a negative
    # one would turn the penalty into a reward.
    spec = make_spectrum("z", pepmass, charge, [100.0, 200.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="neutral precursor mass must be positive"):
        fitness("AK", spec, TAU)


def test_fitness_rejects_short_peptide(ladder_aaal):
    with pytest.raises(InvalidPeptideError):
        fitness("K", ladder_aaal, TAU)


def bits(individual):
    """The fields of an ``Individual``, each float as its exact hex form."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(individual)
    )


@st.composite
def scorer_cases(draw):
    """A preprocessed synthetic spectrum, its tolerance, and peptides to score
    against it: the one it was made from, others of 2-64 residues (I included),
    and repeats."""
    tau = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 2.0))
    truth = draw(st.text(CANONICAL_ALPHABET, min_size=2, max_size=40))
    synth = SynthConfig(
        noise_peaks=draw(st.integers(0, 40)),
        dropout=draw(st.sampled_from([0.0, 0.2, 0.5])),
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    spec = preprocess(
        synthesize_spectrum(truth, synth, rng), PreprocessConfig(tolerance=tau)
    )
    # Dropout can remove every peak of a short peptide without noise, and
    # fitness refuses a spectrum without positive intensity.
    assume(spec.total_intensity > 0)
    others = st.text("".join(RESIDUE_MASSES), min_size=2, max_size=64)
    peptides = draw(st.lists(st.just(truth) | others, min_size=1, max_size=12))
    return spec, tau, peptides


@settings(max_examples=100, deadline=None)
@given(scorer_cases())
def test_individual_score_is_fitness_memoized(case):
    spec, tau, peptides = case
    scorer = Scorer(spec, tau)
    for peptide in peptides:
        first = Individual.score(peptide, scorer)
        assert bits(first) == bits(fitness(peptide, spec, tau))
        assert Individual.score(peptide, scorer) is first
    assert list(scorer.scores) == list(dict.fromkeys(peptides))


@pytest.mark.parametrize("tau", [2.0, float("nan"), -1.0])
def test_fitness_refuses_a_table_built_for_another_tau(tau):
    spec = preprocess(
        synthesize_spectrum("LGVTLYK", SynthConfig(noise_peaks=5), random.Random(1)),
        PreprocessConfig(),
    )
    with pytest.raises(ValueError, match="scorer was built for tau 0.5"):
        fitness("LGVTLYK", spec, tau, scorer=Scorer(spec, 0.5))


def test_fitness_refuses_a_table_built_for_another_spectrum(ladder_aaal):
    # An equal spectrum is still another one: the scorer is checked by identity.
    twin = make_spectrum(
        ladder_aaal.title, ladder_aaal.pepmass, ladder_aaal.charge,
        ladder_aaal.mz, ladder_aaal.intensity,
    )
    assert twin == ladder_aaal
    with pytest.raises(ValueError, match="scorer was built for another spectrum"):
        fitness("AAALAAADAR", ladder_aaal, TAU, scorer=Scorer(twin, TAU))


def test_individual_is_slotted_and_round_trips(ladder_aaal):
    # A run's memo holds thousands of Individuals, so they carry no __dict__.
    ind = fitness("AAALAAADAR", ladder_aaal, TAU)
    assert not hasattr(ind, "__dict__")
    assert pickle.loads(pickle.dumps(ind)) == ind
    assert copy.deepcopy(ind) == ind
    moved = dataclasses.replace(ind, fitness=0.5)
    assert (moved.peptide, moved.fitness) == (ind.peptide, 0.5)
    assert dataclasses.astuple(moved)[2:] == dataclasses.astuple(ind)[2:]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ind.fitness = 0.0


# A reference scorer kept apart from the program: the ion ladders built in a
# double loop over plain prefix sums, the nearest-peak search with
# ``np.where``, matched peaks through ``np.unique``, and runs counted with
# ``np.argmin``. The kernel must give the same bits.


def reference_ions(seq):
    prefix = list(accumulate(RESIDUE_MASSES[sym] for sym in seq))
    total = prefix[-1]
    p = np.array(prefix[:-1], dtype=np.float64)
    b = p + PROTON_MASS
    y = (total - p)[::-1] + (H2O_MASS + PROTON_MASS)
    internal = [
        prefix[end] - prefix[start - 1] + PROTON_MASS
        for start in range(1, len(seq) - 2)
        for end in range(start + 1, len(seq) - 1)
    ]
    return b, y, np.array(internal, dtype=np.float64)


def reference_nearest(mz, targets):
    idx = np.searchsorted(mz, targets)
    padded = np.concatenate(([-np.inf], mz, [np.inf]))
    dist_left = targets - padded[idx]
    dist_right = padded[idx + 1] - targets
    take_left = dist_left <= dist_right
    return idx - take_left, np.where(take_left, dist_left, dist_right)


def reference_pairs(flags):
    if len(flags) == 0 or not flags[0]:
        return 0
    run = int(np.argmin(flags)) if not flags.all() else len(flags)
    return max(run - 1, 0)


def reference_fitness(peptide, spec, tau):
    """The reference ``Individual``, the four terms that ``_evaluate`` returns
    and the total intensity."""
    seq = canonical(peptide)
    b, y, internal = reference_ions(seq)
    n_by = len(b) + len(y)
    _, partner_distance = reference_nearest(spec.mz, spec.partner_mz)
    nearest, dist = reference_nearest(spec.mz, np.concatenate([b, y, internal]))
    matched = dist <= tau
    intensity = spec.intensity.tolist()
    matched_intensity = 0.0
    for peak in sorted(set(nearest[matched].tolist())):
        matched_intensity += intensity[peak]
    anchored = matched[:n_by] & (partner_distance[nearest[:n_by]] <= 2 * tau)
    total = 0.0
    for value in intensity:
        total += value
    mass = 0.0
    for sym in seq:
        mass += RESIDUE_MASSES[sym]
    mass += H2O_MASS
    delta = spec.precursor_mass - mass
    n_unmatched = int((~matched[:n_by]).sum())
    nterm = reference_pairs(anchored[: len(b)])
    cterm = reference_pairs(anchored[len(b) :])
    value = fitness_from_terms(
        matched_intensity / total,
        abs(delta) / spec.precursor_mass,
        nterm,
        cterm,
        n_unmatched,
        len(seq),
    )
    individual = Individual(peptide, value, nterm, cterm, delta)
    return individual, (matched_intensity, n_unmatched, nterm, cterm), total


@st.composite
def scoring_cases(draw):
    """A peptide of 2-64 residues (I included), a spectrum and a tolerance.

    Peaks lie on a half-Da grid, at ion masses shifted by 0, +-tau/2, +-tau or
    2 tau (so ties and ions exactly tau away occur), on a subset of the b/y
    ladder (so terminus-anchored runs start and break), or anywhere in range.
    """
    peptide = draw(st.text("".join(RESIDUE_MASSES), min_size=2, max_size=64))
    tau = draw(st.sampled_from([0.25, 0.5, 1.0]))
    top = parent_mass(peptide) + 20.0
    b, y, internal = reference_ions(canonical(peptide))
    shift = st.sampled_from([-tau, -tau / 2, 0.0, tau / 2, tau, 2 * tau])
    kind = draw(st.sampled_from(["grid", "ions", "ladder", "uniform"]))
    if kind == "grid":
        steps = st.lists(st.integers(1, int(2 * top)), min_size=1, max_size=120)
        mz = [0.5 * step for step in draw(steps)]
    elif kind == "ions":
        ions = np.concatenate([b, y, internal]).tolist()
        pair = st.tuples(st.sampled_from(ions), shift)
        pairs = st.lists(pair, min_size=1, max_size=120)
        mz = [ion + delta for ion, delta in draw(pairs)]
    elif kind == "ladder":
        ladder = np.concatenate([b, y]).tolist()
        size = len(ladder)
        kept = st.lists(st.tuples(st.booleans(), shift), min_size=size, max_size=size)
        mz = [ion + delta for ion, (keep, delta) in zip(ladder, draw(kept)) if keep]
        mz = mz or ladder
    else:
        mz = draw(st.lists(st.floats(1.0, top), min_size=1, max_size=120))
    weights = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1e4)
    intensity = draw(st.lists(weights, min_size=len(mz), max_size=len(mz)))
    intensity[0] = max(intensity[0], 1.0)
    charge = draw(st.integers(1, 3))
    offset = st.sampled_from([0.0, tau, 2 * tau]) | st.floats(-3.0, 3.0)
    neutral = parent_mass(peptide) + draw(offset)
    pepmass = (neutral + charge * PROTON_MASS) / charge
    return peptide, make_spectrum("h", pepmass, charge, mz, intensity), tau


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_kernel_equals_reference_bit_for_bit(case):
    peptide, spec, tau = case
    individual, terms, total = reference_fitness(peptide, spec, tau)
    assert fitness(peptide, spec, tau) == individual
    assert _evaluate(canonical(peptide), Scorer(spec, tau)) == terms
    assert spec.total_intensity == total
    b, y, internal = reference_ions(canonical(peptide))
    assert theoretical_spectrum(peptide) == TheoreticalSpectrum(
        tuple(b.tolist()), tuple(y.tolist()), tuple(sorted(internal.tolist()))
    )


@st.composite
def table_cases(draw):
    """A spectrum and a tolerance for the match table.

    Peaks lie on a half- or quarter-Da grid (so ions fall exactly tau from a
    peak or halfway between two), anywhere, alone, or closer together than
    tau. The precursor puts some peak complements within 2 tau of a peak.
    """
    tau = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 5.0))
    kind = draw(st.sampled_from(["half", "quarter", "uniform", "single", "close"]))
    if kind in ("half", "quarter"):
        step = 0.5 if kind == "half" else 0.25
        grid = st.lists(st.integers(1, 8000), min_size=1, max_size=60)
        mz = [step * k for k in draw(grid)]
    elif kind == "uniform":
        mz = draw(st.lists(st.floats(1e-3, 2000.0), min_size=1, max_size=60))
    elif kind == "single":
        mz = [draw(st.floats(1e-3, 2000.0))]
    else:
        gaps = st.lists(st.floats(2e-4, tau), min_size=1, max_size=30)
        mz = list(accumulate(draw(gaps), initial=draw(st.floats(1.0, 2000.0))))
    offset = st.sampled_from([0.0, tau, 2 * tau]) | st.floats(-3.0, 3.0)
    neutral = max(min(mz) + max(mz) - 2 * PROTON_MASS + draw(offset), 1.0)
    return make_spectrum("t", neutral + PROTON_MASS, 1, mz, [1.0] * len(mz)), tau


def assert_table_matches_nearest_peaks(spec, tau):
    """The table's outcome at every bound, every peak, every ``mz +- tau``,
    every midpoint between peaks, and 1-3 ulps either side of each, equals
    that of ``nearest_peaks`` and ``dist <= tau``."""
    scorer = Scorer(spec, tau)
    mz = spec.mz
    # Skip the infinite bounds, and the largest float (a bound past the last
    # peak), whose next float would overflow.
    bounds = scorer.bounds[np.abs(scorer.bounds) < np.finfo(np.float64).max]
    centres = np.concatenate([bounds, mz, mz - tau, mz + tau, (mz[:-1] + mz[1:]) / 2])
    points = [centres]
    up = down = centres
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        points += [up, down]
    x = np.concatenate(points)
    nearest, dist = nearest_peaks(mz, x)
    matched = dist <= tau
    segment = scorer.bounds.searchsorted(x)
    expected_peak = np.where(matched, nearest, len(mz))
    expected_anchored = matched & (spec.partner_distance[nearest] <= 2 * tau)
    # 0 unmatched, 1 matched, 2 matched and anchored.
    expected_code = matched.astype(np.uint8) + expected_anchored
    assert (scorer.peak[segment] == expected_peak).all()
    assert scorer.code.dtype == np.uint8
    assert (scorer.code[segment] == expected_code).all()


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_match_table_equals_nearest_peaks_within_tau(case):
    assert_table_matches_nearest_peaks(*case)


def test_match_table_of_a_peak_one_tolerance_above_zero():
    # mz - tau is 0.0: stepping down one ulp at a time from there would walk
    # through the subnormals before reaching the threshold near -1.1e-16.
    spec = make_spectrum("one", 2.0, 1, [1.0], [1.0])
    assert_table_matches_nearest_peaks(spec, 1.0)
    scorer = Scorer(spec, 1.0)
    segment = scorer.bounds.searchsorted([-1e-15, 0.0, 2.0, 2.0 + 1e-15])
    assert scorer.peak[segment].tolist() == [1, 0, 0, 1]


def intensity_sum_case(seed):
    """A peptide of 2-64 residues, a spectrum of 0-3000 peaks, some on its
    ions and the rest spread over its mass range, and a tolerance."""
    rng = random.Random(seed)
    peptide = "".join(rng.choices(CANONICAL_ALPHABET, k=rng.randint(2, 64)))
    theo = theoretical_spectrum(peptide)
    ions = [*theo.b_ions, *theo.y_ions, *theo.internal_ions]
    n = rng.choice([rng.randint(0, 8), rng.randint(8, 140), rng.randint(140, 3000)])
    on_ions = rng.randint(0, n)
    top = parent_mass(peptide) + 20.0
    mz = [rng.choice(ions) + rng.uniform(-0.3, 0.3) for _ in range(on_ions)]
    mz += [rng.uniform(1.0, top) for _ in range(n - on_ions)]
    scale = rng.choice([1.0, 1e-3, 1e4])
    intensity = [scale * rng.lognormvariate(0.0, 2.0) for _ in mz]
    pepmass = (parent_mass(peptide) + 2 * PROTON_MASS) / 2
    return peptide, make_spectrum("p", pepmass, 2, mz, intensity), TAU


def test_intensity_sums_add_left_to_right():
    hit_counts, numpy_differs = [], 0
    for seed in range(200):
        peptide, spec, tau = intensity_sum_case(seed)
        values = spec.intensity.tolist()
        total = left_to_right_sum(values)
        assert spec.total_intensity.hex() == total.hex()
        numpy_differs += total != spec.intensity.sum()
        if not values:
            continue
        theo = theoretical_spectrum(peptide)
        ions = np.array([*theo.b_ions, *theo.y_ions, *theo.internal_ions])
        nearest, dist = nearest_peaks(spec.mz, ions)
        hits = sorted(set(nearest[dist <= tau].tolist()))
        hit_counts.append(len(hits))
        matched = _evaluate(canonical(peptide), Scorer(spec, tau))[0]
        assert matched.hex() == left_to_right_sum([values[i] for i in hits]).hex()
        numpy_differs += matched != spec.intensity[hits].sum()
    # Hit counts below 8, from 8 to 128 and above 128 all occur, and some sum
    # differs from numpy's ``sum()``: the pin fails on a return to it.
    assert min(hit_counts) < 8
    assert any(8 <= k <= 128 for k in hit_counts)
    assert max(hit_counts) > 128
    assert numpy_differs > 0
