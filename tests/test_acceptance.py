"""Acceptance suite: one test per release criterion, at fixed tolerances.

The heavy recovery experiments share session fixtures; every criterion prints
a single PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import random
import time

import pytest

from evopep import (
    GaConfig,
    Individual,
    PreprocessConfig,
    Scorer,
    SynthConfig,
    compute_metrics,
    evolve,
    extract_tags,
    make_spectrum,
    preprocess,
    synthesize_spectrum,
    theoretical_spectrum,
)
from evopep.chem import CONFLICT_REPLACEMENTS, PROTON_MASS, parent_mass
from evopep.cli import main as cli_main
from evopep.engine import conflict_mass_mutation, nterm_cterm_crossover
from evopep.evaluation import random_tryptic_peptide
from evopep.scoring import fitness_from_terms
from evopep.tags import build_init_pool, random_peptide

TAU = 0.5
CORPUS_SEED = 0
CORPUS_SIZE = 20
SEEDS_PER_SPECTRUM = 5


def report(number: int, ok: bool, summary: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {number}: {summary}"


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_tryptic_peptide(rng) for _ in range(CORPUS_SIZE)]


def run_corpus(corpus, synth_cfg, spectrum_seed_base, ga_seed_prefix):
    """Evolve every (peptide, seed) pair; returns prediction pairs + traces."""
    pairs = []
    traces = []
    for index, peptide in enumerate(corpus):
        raw = synthesize_spectrum(
            peptide, synth_cfg, random.Random(spectrum_seed_base + index)
        )
        spec = preprocess(raw, PreprocessConfig(tolerance=TAU))
        for seed in range(SEEDS_PER_SPECTRUM):
            result = evolve(spec, GaConfig(seed=f"{ga_seed_prefix}{index}|{seed}"))
            pairs.append((result.best.peptide, peptide))
            traces.append([row.best_fitness for row in result.trace])
    return pairs, traces


@pytest.fixture(scope="session")
def clean_recovery(corpus):
    started = time.time()
    pairs, traces = run_corpus(corpus, SynthConfig(), 1000, "")
    return pairs, traces, time.time() - started


@pytest.fixture(scope="session")
def degraded_recovery(corpus):
    cfg = SynthConfig(dropout=0.1, noise_peaks=20)
    pairs, traces = run_corpus(corpus, cfg, 2000, "deg|")
    return pairs, traces


def test_criterion_01_ladder_fidelity():
    started = time.time()
    theo = theoretical_spectrum("LGVTLYK")
    ladder_ok = [round(m) for m in theo.b_ions] == [114, 171, 270, 371, 484, 647] and [
        round(m) for m in theo.y_ions
    ] == [147, 310, 423, 524, 623, 680]
    rng = random.Random(1)
    complement_ok = True
    for _ in range(1000):
        length = rng.randint(2, 20)
        seq = "".join(rng.choice("ACDEFGHKLMNPQRSTVWY") for _ in range(length))
        t = theoretical_spectrum(seq)
        total = parent_mass(seq) + 2 * PROTON_MASS
        for j in range(length - 1):
            if abs(t.b_ions[j] + t.y_ions[length - 2 - j] - total) >= 1e-9:
                complement_ok = False
    elapsed = time.time() - started
    report(
        1,
        ladder_ok and complement_ok and elapsed < 1.0,
        f"12/12 ladder masses, complementarity to 1e-9 on 1000 peptides, {elapsed:.2f}s",
    )


def test_criterion_02_fitness_arithmetic():
    value = fitness_from_terms(0.595, 0.000003, 8, 8, 0, 10)
    ok = abs(value - 2.1950) <= 0.0005
    report(2, ok, f"assembled fitness {value:.6f} within 2.1950 +/- 0.0005")


def test_criterion_03_conflict_dictionary():
    table_ok = CONFLICT_REPLACEMENTS == {
        "W": ("DA", "AD", "EG", "GE", "VS", "SV"),
        "R": ("VG", "GV"),
        "Q": ("AG", "GA"),
        "N": ("GG",),
    }
    rng = random.Random(33)
    max_drift = 0.0
    applied = 0
    while applied < 1000:
        pep = random_tryptic_peptide(rng)
        child = conflict_mass_mutation(pep, rng)
        if child != pep:
            applied += 1
            max_drift = max(max_drift, abs(parent_mass(child) - parent_mass(pep)))
    ok = table_ok and max_drift < 0.05
    report(3, ok, f"published table reproduced; max mass drift {max_drift:.4f} Da over 1000")


def test_criterion_04_oracle_recovery(clean_recovery):
    pairs, _, elapsed = clean_recovery
    metrics = compute_metrics(pairs, tau=TAU)
    ok = metrics.peptide_recall >= 0.70 and metrics.recall >= 0.90 and elapsed < 600
    report(
        4,
        ok,
        f"clean corpus: peptide recall {metrics.peptide_recall:.3f} (>=0.70), "
        f"AA recall {metrics.recall:.3f} (>=0.90), {elapsed:.0f}s (<600s)",
    )


def test_criterion_05_degraded_robustness(degraded_recovery):
    pairs, _ = degraded_recovery
    metrics = compute_metrics(pairs, tau=TAU)
    ok = metrics.recall >= 0.60
    report(5, ok, f"degraded corpus: AA recall {metrics.recall:.3f} (>=0.60)")


def test_criterion_06_initialization_superiority():
    spec = preprocess(
        synthesize_spectrum("AAALAAADAR", SynthConfig(), random.Random(0)),
        PreprocessConfig(),
    )
    scorer = Scorer(spec, TAU)
    tag_wins = 0
    tag_delta = []
    random_delta = []
    for seed in range(30):
        pool = build_init_pool(scorer, 1000, random.Random(f"init|{seed}"))
        rng = random.Random(f"rand|{seed}")
        baseline = [
            Individual.score(random_peptide(rng), scorer) for _ in range(1000)
        ]
        if max(c.fitness for c in pool) > max(c.fitness for c in baseline):
            tag_wins += 1
        tag_delta.extend(abs(c.delta_mass) for c in pool)
        random_delta.extend(abs(c.delta_mass) for c in baseline)
    mean_tag = sum(tag_delta) / len(tag_delta)
    mean_random = sum(random_delta) / len(random_delta)
    ok = tag_wins >= 28 and mean_tag < mean_random
    report(
        6,
        ok,
        f"tag init beats random in {tag_wins}/30 pools (>=28); "
        f"mean |dmass| {mean_tag:.1f} vs {mean_random:.1f} Da",
    )


def test_criterion_07_crossover_effectiveness():
    # The published experiment ran on a real (noisy) spectrum; a complete
    # ladder buried in noise reproduces that setting.
    spec = preprocess(
        synthesize_spectrum(
            "AAALAAADAR", SynthConfig(noise_peaks=30), random.Random(7)
        ),
        PreprocessConfig(),
    )
    scorer = Scorer(spec, TAU)
    gains_n, gains_c, gains_h = [], [], []
    for seed in range(30):
        pool = build_init_pool(scorer, 1000, random.Random(f"init|{seed}"))
        anchored_n = [c for c in pool if c.nterm >= 1]
        anchored_c = [c for c in pool if c.cterm >= 1]
        assert anchored_n and anchored_c, "pool lacks anchored parents"
        n_parent = max(anchored_n, key=lambda c: (c.nterm, c.fitness))
        c_parent = max(anchored_c, key=lambda c: (c.cterm, c.fitness))
        helper = max(pool, key=lambda c: c.fitness)
        child = Individual.score(
            nterm_cterm_crossover(
                n_parent, c_parent, helper, spec.precursor_mass, TAU,
                random.Random(f"cx|{seed}"),
            ),
            scorer,
        )
        gains_n.append(child.fitness - n_parent.fitness)
        gains_c.append(child.fitness - c_parent.fitness)
        gains_h.append(child.fitness - helper.fitness)
    mean = lambda xs: sum(xs) / len(xs)
    ok = mean(gains_n) > 0 and mean(gains_c) > 0 and mean(gains_h) > 0
    report(
        7,
        ok,
        "mean offspring gain vs N/C/helper parents = "
        f"{mean(gains_n):+.3f}/{mean(gains_c):+.3f}/{mean(gains_h):+.3f} (all > 0)",
    )


def test_criterion_08_cli_determinism(tmp_path):
    peptides = tmp_path / "peps.txt"
    peptides.write_text("LGVTLYK\nAAALAAADAR\n", encoding="utf-8")
    mgf = tmp_path / "batch.mgf"
    assert cli_main(["synth", str(peptides), "-o", str(mgf), "--seed", "5"]) == 0
    outputs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.tsv"
        code = cli_main(
            [
                "sequence",
                str(mgf),
                "--seed",
                "42",
                "--runs",
                "2",
                "--generations",
                "5",
                "--jobs",
                jobs,
                "-o",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(8, ok, "sequence output byte-identical across reruns and --jobs 1/2")


def brute_force_tags(mzs, tau):
    """Exhaustive quadruple-loop enumeration (sorted-order pruning only)."""
    from evopep.chem import RESIDUE_MASSES

    labels = sorted(sym for sym in RESIDUE_MASSES if sym != "I")
    max_gap = max(RESIDUE_MASSES.values()) + tau

    def residues_for(gap):
        return [sym for sym in labels if abs(gap - RESIDUE_MASSES[sym]) <= tau]

    found = set()
    n = len(mzs)
    for i in range(n):
        for j in range(i + 1, n):
            if mzs[j] - mzs[i] > max_gap:
                break
            first = residues_for(mzs[j] - mzs[i])
            if not first:
                continue
            for k in range(j + 1, n):
                if mzs[k] - mzs[j] > max_gap:
                    break
                second = residues_for(mzs[k] - mzs[j])
                if not second:
                    continue
                for m in range(k + 1, n):
                    if mzs[m] - mzs[k] > max_gap:
                        break
                    third = residues_for(mzs[m] - mzs[k])
                    for a in first:
                        for b in second:
                            for c in third:
                                found.add(((i, j, k, m), a + b + c))
    return found


def test_criterion_09_tag_extraction_oracle():
    rng = random.Random(9)
    mismatches = 0
    for _ in range(50):
        count = rng.randint(4, 30)
        mzs = sorted(rng.uniform(100.0, 900.0) for _ in range(count))
        spec = make_spectrum("bf", 600.0, 2, mzs, [1.0] * count)
        tags = extract_tags(spec, TAU)
        fast = {(tags.tag(t).peak_indices, tags[t]) for t in range(len(tags))}
        if fast != brute_force_tags([p.mz for p in spec.peaks], TAU):
            mismatches += 1
    report(9, mismatches == 0, f"extract_tags == brute force on 50 spectra ({mismatches} mismatches)")


def test_criterion_10_elitism_monotonicity(clean_recovery, degraded_recovery):
    _, clean_traces, _ = clean_recovery
    _, degraded_traces = degraded_recovery
    violations = 0
    for trace in clean_traces + degraded_traces:
        if any(b < a - 1e-12 for a, b in zip(trace, trace[1:])):
            violations += 1
    report(
        10,
        violations == 0,
        f"best-fitness traces non-decreasing in all {len(clean_traces) + len(degraded_traces)} runs",
    )
