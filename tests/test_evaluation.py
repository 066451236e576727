import math
import random
import sys

import pytest

from evopep import (
    Individual,
    Metrics,
    Scorer,
    SynthConfig,
    aggregate_runs,
    compute_metrics,
    matched_amino_acids,
    synthesize_spectrum,
)
from evopep.chem import CANONICAL_ALPHABET, parent_mass
from evopep.cli import _read_truth
from evopep.evaluation import random_tryptic_peptide

TAU = 0.5


def test_matched_identity():
    assert matched_amino_acids("LGVTLYK", "LGVTLYK") == 7


def test_matched_isobaric_prefix_alignment():
    # TT and AM are isobaric within the tolerance; the suffix realigns.
    assert matched_amino_acids("TTVEVFLER", "AMVEVFLER") == 7


def test_matched_disjoint():
    assert matched_amino_acids("GGGK", "WWWR") == 0


def test_matched_bounds_and_self():
    rng = random.Random(5)
    for _ in range(50):
        a = random_tryptic_peptide(rng)
        b = random_tryptic_peptide(rng)
        m = matched_amino_acids(a, b)
        assert 0 <= m <= min(len(a), len(b))
        assert matched_amino_acids(a, a) == len(a)


def test_compute_metrics_all_exact():
    metrics = compute_metrics([("LGVTLYK", "LGVTLYK"), ("AAAK", "AAAK")])
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert metrics.peptide_recall == 1.0
    assert metrics.n_spectra == 2


def test_compute_metrics_single_exact():
    metrics = compute_metrics([("AAALAAADAR", "AAALAAADAR")])
    assert metrics.peptide_recall == 1.0
    assert metrics.avg_len_predicted == 10


def test_compute_metrics_empty_prediction_penalizes_recall():
    metrics = compute_metrics([("", "LGVTLYK")])
    assert metrics.recall == 0.0
    assert metrics.peptide_recall == 0.0
    assert metrics.avg_len_predicted == 0.0


def test_compute_metrics_il_canonical_equality():
    metrics = compute_metrics([("IGVTIYK", "LGVTLYK")])
    assert metrics.peptide_recall == 1.0


def test_compute_metrics_rejects_empty_batch():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_synthesize_clean_ladder_matches_published_masses():
    spec = synthesize_spectrum("LGVTLYK", SynthConfig(), random.Random(0))
    assert len(spec.peaks) == 12
    assert sorted(round(p.mz) for p in spec.peaks) == sorted(
        [114, 171, 270, 371, 484, 647, 147, 310, 423, 524, 623, 680]
    )
    assert spec.precursor_mass == pytest.approx(parent_mass("LGVTLYK"), abs=1e-9)


def test_synthesize_full_dropout_leaves_noise_only():
    cfg = SynthConfig(dropout=1.0, noise_peaks=8)
    spec = synthesize_spectrum("LGVTLYK", cfg, random.Random(1))
    assert len(spec.peaks) == 8


def test_synthesize_dropout_and_noise_counts():
    cfg = SynthConfig(dropout=0.2, noise_peaks=30)
    rng = random.Random(2)
    pep = "AAALAAADAR"
    spec = synthesize_spectrum(pep, cfg, rng)
    ladder = 2 * (len(pep) - 1)
    assert len(spec.peaks) <= ladder + 30


def test_synthesize_validates_config():
    with pytest.raises(ValueError):
        SynthConfig(dropout=1.5)
    with pytest.raises(ValueError):
        SynthConfig(noise_peaks=-1)


def test_synth_config_refuses_more_noise_peaks_than_a_list_can_hold():
    assert SynthConfig(noise_peaks=sys.maxsize).noise_peaks == sys.maxsize
    with pytest.raises(ValueError, match=f"^noise_peaks must be at most {sys.maxsize}$"):
        SynthConfig(noise_peaks=sys.maxsize + 1)


def test_self_fitness_beats_single_flips():
    rng = random.Random(9)
    pep = "LGVTLYK"
    spec = synthesize_spectrum(pep, SynthConfig(), rng)
    # One Scorer builds the spectrum's match table once for all 101 scores.
    scorer = Scorer(spec, TAU)
    base = Individual.score(pep, scorer).fitness
    for _ in range(100):
        pos = rng.randrange(len(pep) - 1)
        sym = rng.choice([s for s in CANONICAL_ALPHABET if s != pep[pos]])
        variant = pep[:pos] + sym + pep[pos + 1 :]
        assert Individual.score(variant, scorer).fitness < base


def test_aggregate_single_run_zero_std():
    m = compute_metrics([("AAAK", "AAAK")])
    mean, std = aggregate_runs([m])
    assert mean == m
    assert std.precision == 0.0


def test_aggregate_constant_zero_std():
    m = compute_metrics([("AAAK", "AAAK")])
    _, std = aggregate_runs([m, m, m])
    assert std.recall == 0.0


def test_aggregate_hand_fixture():
    def with_recall(value):
        return Metrics(
            precision=value,
            recall=value,
            peptide_recall=value,
            avg_len_partial_matches=0.0,
            avg_len_predicted=0.0,
            n_spectra=1,
        )

    mean, std = aggregate_runs([with_recall(0.8), with_recall(0.9), with_recall(1.0)])
    assert mean.recall == pytest.approx(0.9, abs=1e-12)
    assert std.recall == pytest.approx(0.1, abs=1e-9)


def test_aggregate_adds_left_to_right():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right and 0.6 as the
    # builtin sum computes it from Python 3.12.
    values = (0.1, 0.2, 0.3)
    runs = [
        Metrics(
            precision=value,
            recall=1.0,
            peptide_recall=1.0,
            avg_len_partial_matches=0.0,
            avg_len_predicted=0.0,
            n_spectra=1,
        )
        for value in values
    ]
    total = 0.0
    for value in values:
        total += value
    mean = total / 3
    squares = 0.0
    for value in values:
        squares += (value - mean) ** 2
    summary_mean, summary_std = aggregate_runs(runs)
    assert total == 0.6000000000000001
    assert summary_mean.precision == mean
    assert summary_std.precision == math.sqrt(squares / 2)


def test_ground_truth_round_trip(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text(
        "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAAALAAADAR\n", encoding="utf-8"
    )
    assert _read_truth(str(path)) == {"s1": "LGVTLYK", "s2": "AAALAAADAR"}


def test_ground_truth_validates_peptides(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("spectrum_id\tpeptide\ns1\tNOTAPEPTIDE1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="truth.tsv:2:"):
        _read_truth(str(path))


def test_random_tryptic_peptide_shape():
    rng = random.Random(3)
    for _ in range(200):
        pep = random_tryptic_peptide(rng)
        assert 7 <= len(pep) <= 12
        assert pep[-1] in "KR"
        assert all(sym not in "KR" for sym in pep[:-1])
