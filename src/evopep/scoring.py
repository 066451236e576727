"""Theoretical fragment ladders and peptide-spectrum match scoring.

A candidate peptide is turned into a theoretical spectrum of singly charged
b-ions, y-ions and internal b-type fragments, matched against an experimental
peak list within a mass tolerance, and scored with a five-term fitness:
matched-intensity fraction, a precursor mass-difference penalty, and
terminus-anchored sequential-match scores minus the unmatched b/y count,
normalized by peptide length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chem import (
    H2O_MASS,
    PROTON_MASS,
    RESIDUE_MASSES,
    InvalidPeptideError,
    parent_mass,
    validate_peptide,
)
from .spectrum import Spectrum, nearest_peaks

# Singly protonated fragments: a b-ion is a prefix plus one proton, a y-ion a
# suffix plus water and one proton, so complementary pairs sum to
# parent mass + 2 protons.
B_ION_OFFSET = PROTON_MASS
Y_ION_OFFSET = H2O_MASS + PROTON_MASS


class InvalidSpectrumError(ValueError):
    """Raised when a spectrum cannot be scored (e.g. zero total intensity)."""


@dataclass(frozen=True)
class TheoreticalSpectrum:
    """Fragment masses of a candidate peptide (m/z of singly charged ions)."""

    b_ions: tuple[float, ...]
    y_ions: tuple[float, ...]
    internal_ions: tuple[float, ...]


@dataclass(frozen=True)
class PeakAssignment:
    """Ion-level match flags plus the set of experimental peaks they hit."""

    matched_peaks: tuple[int, ...]
    b_matched: tuple[bool, ...]
    y_matched: tuple[bool, ...]
    internal_matched: tuple[bool, ...]


@dataclass(frozen=True)
class MatchResult:
    """All terms of one peptide-spectrum match, plus the combined fitness."""

    matched_intensity_sum: float
    total_intensity_sum: float
    n_unmatched: int
    delta_mass: float
    nterm: int
    cterm: int
    fitness: float


@dataclass(frozen=True)
class Individual:
    """A candidate peptide with its cached scores; the GA chromosome."""

    peptide: str
    fitness: float
    nterm: int
    cterm: int
    delta_mass: float

    @classmethod
    def score(cls, peptide: str, spec: Spectrum, tau: float) -> "Individual":
        # Converged GA populations re-create the same strings constantly, so
        # scores are memoized in ``spec.scores`` (pure in the peptide).
        key = (peptide, tau)
        cached = spec.scores.get(key)
        if cached is None:
            result = fitness(peptide, spec, tau)
            cached = spec.scores[key] = cls(
                peptide=peptide,
                fitness=result.fitness,
                nterm=result.nterm,
                cterm=result.cterm,
                delta_mass=result.delta_mass,
            )
        return cached


def _ion_arrays(seq: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b, y and internal fragment masses of a validated sequence."""
    masses = [RESIDUE_MASSES[sym] for sym in seq]
    prefix = list(accumulate(masses))
    total = prefix[-1]
    p = np.array(prefix[:-1], dtype=np.float64)
    b = p + B_ION_OFFSET
    y = (total - p)[::-1] + Y_ION_OFFSET
    # Internal b-type fragments: contiguous interior runs of >= 2 residues,
    # excluding both termini.
    length = len(seq)
    internal: list[float] = []
    for start in range(1, length - 2):
        base = prefix[start - 1]
        for end in range(start + 1, length - 1):
            internal.append(prefix[end] - base + B_ION_OFFSET)
    return b, y, np.array(internal, dtype=np.float64)


def theoretical_spectrum(peptide: str) -> TheoreticalSpectrum:
    """Build the theoretical fragment spectrum of a peptide (length >= 2)."""
    seq = validate_peptide(peptide)
    if len(seq) < 2:
        raise InvalidPeptideError("theoretical spectrum requires length >= 2")
    b, y, internal = _ion_arrays(seq)
    return TheoreticalSpectrum(
        b_ions=tuple(b.tolist()),
        y_ions=tuple(y.tolist()),
        internal_ions=tuple(sorted(internal.tolist())),
    )


def _leading_pair_count(flags: np.ndarray) -> int:
    """Number of consecutive (j, j+1) pairs, from the start, with both true."""
    if len(flags) == 0 or not flags[0]:
        return 0
    run = int(np.argmin(flags)) if not flags.all() else len(flags)
    return max(run - 1, 0)


def _evaluate(seq: str, spec: Spectrum, tau: float) -> tuple[float, int, int, int]:
    """Matched intensity, unmatched b/y count, nterm and cterm of a sequence."""
    b, y, internal = _ion_arrays(seq)
    n_by = len(b) + len(y)
    if spec.mz.size == 0:
        return 0.0, n_by, 0, 0
    nearest, dist = nearest_peaks(spec.mz, np.concatenate([b, y, internal]))
    matched = dist <= tau
    matched_intensity = float(spec.intensity[np.unique(nearest[matched])].sum())
    n_unmatched = int((~matched[:n_by]).sum())
    # Noise peaks land on single b or y m/z values by chance, while a real
    # cleavage usually shows both of its complementary ions; so only ions
    # whose complement is observed extend a terminus-anchored run.
    anchored = matched[:n_by] & (spec.partner_distance[nearest[:n_by]] <= 2 * tau)
    nterm = _leading_pair_count(anchored[: len(b)])
    cterm = _leading_pair_count(anchored[len(b) :])
    return matched_intensity, n_unmatched, nterm, cterm


def match_peaks(
    theo: TheoreticalSpectrum, spec: Spectrum, tau: float
) -> PeakAssignment:
    """Match theoretical ions against experimental peaks within ``tau``.

    An ion matches when the nearest peak lies within the tolerance; a peak may
    satisfy several ions but contributes its intensity only once.
    """
    n_b = len(theo.b_ions)
    n_by = n_b + len(theo.y_ions)
    ions = np.array(theo.b_ions + theo.y_ions + theo.internal_ions, dtype=np.float64)
    nearest, dist = nearest_peaks(spec.mz, ions)
    matched = dist <= tau
    flags = tuple(matched.tolist())
    return PeakAssignment(
        matched_peaks=tuple(np.unique(nearest[matched]).tolist()),
        b_matched=flags[:n_b],
        y_matched=flags[n_b:n_by],
        internal_matched=flags[n_by:],
    )


def nterm_cterm_scores(peptide: str, spec: Spectrum, tau: float) -> tuple[int, int]:
    """Sequential-match scores from each terminus.

    Counts consecutive matched-ion pairs along the b-ladder (N-terminus) and
    y-ladder (C-terminus), requiring each matched peak's precursor complement
    to be corroborated by a peak within twice the tolerance.
    """
    seq = validate_peptide(peptide)
    if len(seq) < 2:
        raise InvalidPeptideError("scores require length >= 2")
    _, _, nterm, cterm = _evaluate(seq, spec, tau)
    return nterm, cterm


def fitness_from_terms(
    intensity_fraction: float,
    delta_penalty: float,
    nterm: float,
    cterm: float,
    n_unmatched: float,
    length: int,
) -> float:
    """Combine the five match terms into the overall fitness value."""
    return (
        intensity_fraction
        - delta_penalty
        + (nterm + cterm - n_unmatched) / length
    )


def fitness(peptide: str, spec: Spectrum, tau: float) -> MatchResult:
    """Score a peptide-spectrum match; returns every term plus the fitness."""
    seq = validate_peptide(peptide)
    if len(seq) < 2:
        raise InvalidPeptideError("fitness requires peptide length >= 2")
    total = spec.total_intensity
    if total <= 0:
        raise InvalidSpectrumError("spectrum has no positive intensity")
    matched_intensity, n_unmatched, nterm, cterm = _evaluate(seq, spec, tau)
    precursor = spec.precursor_mass
    delta = precursor - parent_mass(seq)
    value = fitness_from_terms(
        intensity_fraction=matched_intensity / total,
        delta_penalty=abs(delta) / precursor,
        nterm=nterm,
        cterm=cterm,
        n_unmatched=n_unmatched,
        length=len(seq),
    )
    return MatchResult(
        matched_intensity_sum=matched_intensity,
        total_intensity_sum=total,
        n_unmatched=n_unmatched,
        delta_mass=delta,
        nterm=nterm,
        cterm=cterm,
        fitness=value,
    )
