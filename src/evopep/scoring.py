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
from functools import lru_cache
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
class Individual:
    """A candidate peptide with its scores; the GA chromosome and the one
    result type of ``fitness``."""

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
            cached = spec.scores[key] = fitness(peptide, spec, tau)
        return cached


@lru_cache(maxsize=None)  # one entry per length, at most MAX_PEPTIDE_LENGTH
def _ion_index(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each ion of a peptide length reads its prefix sums.

    Ion ``i`` is ``prefix[hi[i]] - prefix[lo[i]] + offset[i]``, ``prefix[k]``
    being the mass of the first ``k`` residues. The ions are the
    ``length - 1`` b-ions, then as many y-ions, then the internal b-type
    fragments: contiguous interior runs of >= 2 residues, excluding both
    termini, by start then end.
    """
    ions = [(cut, 0, B_ION_OFFSET) for cut in range(1, length)]
    ions += [(length, cut, Y_ION_OFFSET) for cut in range(length - 1, 0, -1)]
    ions += [
        (end, start, B_ION_OFFSET)
        for start in range(1, length - 2)
        for end in range(start + 2, length)
    ]
    arrays = tuple(np.array(column) for column in zip(*ions))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _ions(seq: str) -> np.ndarray:
    """b, y and internal fragment masses of a validated sequence, in the
    order of ``_ion_index``."""
    prefix = np.fromiter(
        accumulate(map(RESIDUE_MASSES.__getitem__, seq), initial=0.0),
        np.float64,
        len(seq) + 1,
    )
    hi, lo, offset = _ion_index(len(seq))
    return prefix[hi] - prefix[lo] + offset


def theoretical_spectrum(peptide: str) -> TheoreticalSpectrum:
    """Build the theoretical fragment spectrum of a peptide (length >= 2)."""
    seq = validate_peptide(peptide)
    if len(seq) < 2:
        raise InvalidPeptideError("theoretical spectrum requires length >= 2")
    ions = _ions(seq).tolist()
    cuts = len(seq) - 1
    return TheoreticalSpectrum(
        b_ions=tuple(ions[:cuts]),
        y_ions=tuple(ions[cuts : 2 * cuts]),
        internal_ions=tuple(sorted(ions[2 * cuts :])),
    )


def _evaluate(seq: str, spec: Spectrum, tau: float) -> tuple[float, int, int, int]:
    """Matched intensity, unmatched b/y count, nterm and cterm of a sequence.

    A peak hit by several ions counts its intensity once. ``spec`` must hold a
    peak: ``fitness``, the one caller, refuses a spectrum without intensity.
    """
    cuts = len(seq) - 1
    n_by = 2 * cuts
    nearest, dist = nearest_peaks(spec.mz, _ions(seq))
    matched = dist <= tau
    # The mask sums each hit peak once, in m/z order.
    hit = np.zeros(len(spec.mz), dtype=bool)
    hit[nearest[matched]] = True
    matched_intensity = float(spec.intensity[hit].sum())
    n_unmatched = n_by - int(np.count_nonzero(matched[:n_by]))
    # Noise peaks land on single b or y m/z values by chance, while a real
    # cleavage usually shows both of its complementary ions; so only ions
    # whose complement is observed extend a terminus-anchored run. A run of
    # k anchored ions from a terminus scores its k - 1 consecutive pairs.
    anchored = matched[:n_by] & (spec.partner_distance[nearest[:n_by]] <= 2 * tau)
    flags = anchored.tobytes()
    n_gap, c_gap = flags.find(0, 0, cuts), flags.find(0, cuts, n_by)
    nterm = max((cuts if n_gap < 0 else n_gap) - 1, 0)
    cterm = max((n_by if c_gap < 0 else c_gap) - cuts - 1, 0)
    return matched_intensity, n_unmatched, nterm, cterm


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


def fitness(peptide: str, spec: Spectrum, tau: float) -> Individual:
    """Score a peptide-spectrum match: the peptide as passed, with its
    fitness, terminus scores and precursor mass difference."""
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
    return Individual(
        peptide=peptide, fitness=value, nterm=nterm, cterm=cterm, delta_mass=delta
    )
