"""Accuracy metrics, ground-truth handling and the synthetic-spectrum oracle.

Amino-acid matches are established by prefix-mass alignment: a predicted
residue counts when its symbol equals a truth residue whose N-terminal prefix
mass agrees within the tolerance, each truth residue being consumed at most
once, greedily left to right. Peptide-level matches are exact string equality
after I/L canonicalization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Iterable

from .chem import (
    PROTON_MASS,
    RESIDUE_MASSES,
    left_to_right_sum,
    parent_mass,
    validate_peptide,
)
from .scoring import theoretical_spectrum
from .spectrum import Spectrum, make_spectrum

# Synthetic noise peaks are placed within this margin around the ion range.
_NOISE_MARGIN = 50.0

# Average residue frequencies in proteins (%), with I folded into L. Used to
# draw realistic benchmark peptides.
_NATURAL_RESIDUE_WEIGHTS: dict[str, float] = {
    "A": 8.25,
    "C": 1.38,
    "D": 5.45,
    "E": 6.72,
    "F": 3.86,
    "G": 7.07,
    "H": 2.27,
    "L": 9.65 + 5.91,
    "M": 2.41,
    "N": 4.06,
    "P": 4.74,
    "Q": 3.93,
    "S": 6.64,
    "T": 5.35,
    "V": 6.86,
    "W": 1.10,
    "Y": 2.92,
}
_NATURAL_SYMBOLS = tuple(_NATURAL_RESIDUE_WEIGHTS)
_NATURAL_WEIGHTS = tuple(_NATURAL_RESIDUE_WEIGHTS.values())


@dataclass(frozen=True)
class GroundTruthRecord:
    spectrum_id: str
    peptide: str


@dataclass(frozen=True)
class Metrics:
    """Amino-acid and peptide-level accuracy over a batch of predictions."""

    precision: float
    recall: float
    peptide_recall: float
    avg_len_partial_matches: float
    avg_len_predicted: float
    n_spectra: int


@dataclass(frozen=True)
class MetricsSummary:
    """Per-field mean and standard deviation over several runs."""

    mean: Metrics
    std: Metrics
    n_runs: int


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic-spectrum generator used as a test oracle."""

    noise_peaks: int = 0
    dropout: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must be within [0, 1]")
        if self.noise_peaks < 0:
            raise ValueError("noise_peaks must be >= 0")


def random_tryptic_peptide(rng: random.Random) -> str:
    """Random fully-tryptic peptide of 7 to 12 residues: natural-frequency
    interior residues (no internal K/R, i.e. no missed cleavages) ending in
    K or R."""
    length = rng.randint(7, 12)
    body = "".join(rng.choices(_NATURAL_SYMBOLS, weights=_NATURAL_WEIGHTS, k=length - 1))
    return body + rng.choice("KR")


def _prefix_masses(seq: str) -> list[float]:
    return list(accumulate(RESIDUE_MASSES[sym] for sym in seq))


def matched_amino_acids(predicted: str, truth: str, tau: float = 0.5) -> int:
    """Count predicted residues aligned to truth residues by prefix mass.

    A predicted residue matches a truth residue when the symbols agree and
    the N-terminal prefix masses (through each residue) differ by at most
    ``tau``; every truth residue is consumed at most once, scanning both
    sequences left to right.
    """
    pred = validate_peptide(predicted)
    true = validate_peptide(truth)
    pred_prefix = _prefix_masses(pred)
    true_prefix = _prefix_masses(true)
    matched = 0
    next_truth = 0
    for i, sym in enumerate(pred):
        for j in range(next_truth, len(true)):
            if true[j] == sym and abs(pred_prefix[i] - true_prefix[j]) <= tau:
                matched += 1
                next_truth = j + 1
                break
    return matched


def compute_metrics(
    results: Iterable[tuple[str, str]], tau: float = 0.5
) -> Metrics:
    """Aggregate accuracy over (predicted, truth) pairs.

    An empty predicted sequence is allowed and counts as a complete miss.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    pairs = list(results)
    if not pairs:
        raise ValueError("compute_metrics needs at least one (predicted, truth) pair")
    total_matched = 0
    total_predicted = 0
    total_truth = 0
    exact = 0
    for predicted, truth in pairs:
        true = validate_peptide(truth)
        total_truth += len(true)
        if not predicted:
            continue
        pred = validate_peptide(predicted)
        total_predicted += len(pred)
        total_matched += matched_amino_acids(pred, true, tau)
        if pred == true:
            exact += 1
    n = len(pairs)
    return Metrics(
        precision=total_matched / total_predicted if total_predicted else 0.0,
        recall=total_matched / total_truth,
        peptide_recall=exact / n,
        avg_len_partial_matches=total_matched / n,
        avg_len_predicted=total_predicted / n,
        n_spectra=n,
    )


def synthesize_spectrum(
    peptide: str, cfg: SynthConfig, rng: random.Random, title: str = ""
) -> Spectrum:
    """Build a spectrum from a peptide by inverting ladder construction.

    Emits one peak per surviving b/y ion (after independent dropout) at the
    exact theoretical mass, plus uniform-random noise peaks across the ion
    range widened by 50 Da. The precursor metadata is chosen so the derived
    precursor mass equals the peptide's parent mass exactly (charge 2).
    """
    seq = validate_peptide(peptide)
    theo = theoretical_spectrum(seq)
    ladder = list(theo.b_ions) + list(theo.y_ions)
    mz = [mass for mass in ladder if rng.random() >= cfg.dropout]
    intensity = [1.0] * len(mz)
    lo = min(ladder) - _NOISE_MARGIN
    hi = max(ladder) + _NOISE_MARGIN
    for _ in range(cfg.noise_peaks):
        mz.append(rng.uniform(max(lo, 1.0), hi))
        intensity.append(rng.uniform(0.1, 1.0))
    pepmass = (parent_mass(seq) + 2 * PROTON_MASS) / 2
    return make_spectrum(title or f"synthetic:{seq}", pepmass, 2, mz, intensity)


def aggregate_runs(per_run: Iterable[Metrics]) -> MetricsSummary:
    """Per-field sample mean and standard deviation across runs.

    A single run reports a standard deviation of zero.
    """
    runs = list(per_run)
    if not runs:
        raise ValueError("aggregate_runs needs at least one Metrics value")
    names = [f.name for f in fields(Metrics)]
    means = {}
    stds = {}
    n = len(runs)
    for name in names:
        values = [float(getattr(m, name)) for m in runs]
        mean = left_to_right_sum(values) / n
        if n > 1:
            var = left_to_right_sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        means[name] = mean
        stds[name] = std
    means["n_spectra"] = int(means["n_spectra"])
    stds["n_spectra"] = int(stds["n_spectra"])
    return MetricsSummary(mean=Metrics(**means), std=Metrics(**stds), n_runs=n)


def ground_truth_tsv(records: Iterable[GroundTruthRecord]) -> str:
    """Serialize ground-truth records as TSV with a header row."""
    lines = ["spectrum_id\tpeptide"]
    lines.extend(f"{r.spectrum_id}\t{r.peptide}" for r in records)
    return "\n".join(lines) + "\n"
