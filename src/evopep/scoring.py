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
from typing import NamedTuple

import numpy as np

from .chem import (
    H2O_MASS,
    PROTON_MASS,
    RESIDUE_MASSES,
    InvalidPeptideError,
    canonical,
    check_tolerance,
    parent_mass,
    validate_peptide,
)
from .spectrum import Spectrum

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


@dataclass(frozen=True, slots=True)
class Individual:
    """A candidate peptide with its scores; the GA chromosome and the one
    result type of ``fitness``. Slotted: a run's memo holds thousands."""

    peptide: str
    fitness: float
    nterm: int
    cterm: int
    delta_mass: float

    @classmethod
    def score(cls, peptide: str, scorer: "Scorer") -> "Individual":
        # Converged GA populations re-create the same strings constantly, so
        # each run memoizes its scores in ``scorer.scores``.
        cached = scorer.scores.get(peptide)
        if cached is None:
            cached = scorer.scores[peptide] = fitness(
                peptide, scorer.spec, scorer.tau, table=scorer.table
            )
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


class MatchTable(NamedTuple):
    """What an ion matches, as one lookup per ion.

    Segment ``j = bounds.searchsorted(x)`` holds every m/z with
    ``bounds[j - 1] < x <= bounds[j]``, and every ion in it has the same
    outcome under ``spectrum.nearest_peaks`` and ``distance <= tau``:
    ``peak[j]`` is the index of the peak it matches, or the peak count when
    its nearest peak is farther than tau, and ``code[j]`` is a byte:
    ``UNMATCHED``, ``MATCHED``, or ``ANCHORED`` when the matched peak's
    precursor complement has a peak within ``2 * tau``. ``spec`` and ``tau``
    are what the table was built for.
    """

    bounds: np.ndarray
    peak: np.ndarray
    code: np.ndarray
    spec: Spectrum
    tau: float


# The outcome bytes of ``MatchTable.code``.
UNMATCHED, MATCHED, ANCHORED = 0, 1, 2
_ANCHORED_BYTE = bytes([ANCHORED])

# XOR with this on a negative float's bits reverses their order, so that
# float64 bit patterns, read as int64, sort like the floats they encode.
_MAGNITUDE_BITS = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _ordered(bits: np.ndarray) -> np.ndarray:
    """Order-preserving int64 key of float64 bits; its own inverse."""
    return bits ^ ((bits >> 63) & _MAGNITUDE_BITS)


def _last_true(holds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per interval, the largest float x in ``(lo, hi]`` for which ``holds``
    is true, or ``lo`` where it holds nowhere.

    ``holds`` maps an array of candidates, one per interval, to a mask, and
    must be true up to a threshold and false above it in every interval.
    Bisection runs over the ordered keys of the floats, so the answer is
    exact, and 64 halvings narrow any float interval to one key.
    """
    lo = _ordered(lo.view(np.int64))
    hi = _ordered(hi.view(np.int64)) + 1
    for _ in range(64):
        # The floor of (lo + hi) / 2, without overflowing int64.
        mid = (lo & hi) + ((lo ^ hi) >> 1)
        true = holds(_ordered(mid).view(np.float64))
        np.copyto(lo, mid, where=true)
        np.copyto(hi, mid, where=~true)
    return _ordered(lo).view(np.float64)


def _match_table(spec: Spectrum, tau: float) -> MatchTable:
    """The ``MatchTable`` of a spectrum at tolerance ``tau``.

    ``nearest_peaks`` puts an ion x with ``a < x <= b`` (``a``, ``b``
    neighbouring peaks, or -inf and inf past the ends) in gap ``(a, b]`` and
    compares ``fl(x - a)``, ``fl(b - x)`` and tau. Rounding is monotone, so
    within a gap ``fl(x - a) <= fl(b - x)``, ``fl(x - a) <= tau`` and
    ``fl(b - x) > tau`` each hold up to one float threshold, found exactly by
    ``_last_true``. Those cut each gap into three segments: matched to ``a``,
    unmatched, matched to ``b`` (any of them may be empty).
    """
    check_tolerance("tau", tau)
    n = len(spec.mz)
    padded = np.concatenate(([-np.inf], spec.mz, [np.inf]))
    a, b = padded[:-1], padded[1:]
    # At the ends an infinite peak gives inf - inf = nan, which fails every
    # comparison, as the infinite distance of nearest_peaks does.
    with np.errstate(invalid="ignore"):
        nearer_a = _last_true(lambda x: x - a <= b - x, a, b)
        within_a = _last_true(lambda x: x - a <= tau, a, b)
        beyond_b = _last_true(lambda x: b - x > tau, a, b)
    bounds = np.stack(
        [np.minimum(within_a, nearer_a), np.maximum(beyond_b, nearer_a), b], axis=1
    ).ravel()
    # Gap k reads peaks k - 1, none, k; the first gap has no peak below it and
    # the last none above, and past the last bound lies no peak either.
    peak = np.full(len(bounds) + 1, n)
    peak[2::3] = peak[3::3] = np.arange(n + 1)
    code = np.append(
        np.where(spec.partner_distance <= 2 * tau, ANCHORED, MATCHED), UNMATCHED
    ).astype(np.uint8)[peak]
    return MatchTable(bounds, peak, code, spec, tau)


class Scorer:
    """One GA run's scoring state: a spectrum, a tolerance, their
    ``MatchTable`` and the memo of the peptides that the run has scored."""

    def __init__(self, spec: Spectrum, tau: float):
        self.spec, self.tau = spec, tau
        self.table = _match_table(spec, tau)
        self.scores: dict[str, Individual] = {}


def _evaluate(seq: str, spec: Spectrum, table: MatchTable) -> tuple[float, int, int, int]:
    """Matched intensity, unmatched b/y count, nterm and cterm of a sequence.

    A peak hit by several ions counts its intensity once. ``spec`` must hold a
    peak: ``fitness``, the one caller, refuses a spectrum without intensity.
    """
    cuts = len(seq) - 1
    n_by = 2 * cuts
    n = len(spec.mz)
    segment = table.bounds.searchsorted(_ions(seq))
    peak = table.peak[segment]
    # The mask sums each hit peak once, in m/z order; slot n takes the misses.
    hit = np.zeros(n + 1, dtype=bool)
    hit[peak] = True
    matched_intensity = float(spec.intensity[hit[:n]].sum())
    # Noise peaks land on single b or y m/z values by chance, while a real
    # cleavage usually shows both of its complementary ions; so only ions
    # whose complement is observed extend a terminus-anchored run. A run of
    # k anchored ions from a terminus scores its k - 1 consecutive pairs.
    codes = table.code[segment[:n_by]].tobytes()
    b_codes, y_codes = codes[:cuts], codes[cuts:]
    nterm = max(cuts - len(b_codes.lstrip(_ANCHORED_BYTE)) - 1, 0)
    cterm = max(cuts - len(y_codes.lstrip(_ANCHORED_BYTE)) - 1, 0)
    return matched_intensity, codes.count(UNMATCHED), nterm, cterm


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


def fitness(
    peptide: str, spec: Spectrum, tau: float, *, table: MatchTable | None = None
) -> Individual:
    """Score a peptide-spectrum match: the peptide as passed, with its
    fitness, terminus scores and precursor mass difference.

    A call without ``table``, the spectrum's ``MatchTable`` at ``tau``,
    builds it, which takes far longer than the scoring itself; a table
    built for another spectrum or tolerance is refused. Many peptides
    scored against one spectrum should go through one ``Scorer`` and
    ``Individual.score``, which build the table once and memoize."""
    mass = parent_mass(peptide)  # validates the peptide
    seq = canonical(peptide)
    if len(seq) < 2:
        raise InvalidPeptideError("fitness requires peptide length >= 2")
    total = spec.total_intensity
    if total <= 0:
        raise InvalidSpectrumError("spectrum has no positive intensity")
    if table is None:
        table = _match_table(spec, tau)
    elif table.spec is not spec:
        raise ValueError("match table was built for another spectrum")
    elif table.tau != tau:  # also for a NaN tau
        raise ValueError(f"match table was built for tau {table.tau}, not {tau}")
    matched_intensity, n_unmatched, nterm, cterm = _evaluate(seq, spec, table)
    precursor = spec.precursor_mass
    delta = precursor - mass
    # Both calls pass their arguments by position, which is cheaper per call.
    value = fitness_from_terms(
        matched_intensity / total, abs(delta) / precursor, nterm, cterm,
        n_unmatched, len(seq),
    )
    return Individual(peptide, value, nterm, cterm, delta)
