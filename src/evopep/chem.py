"""Amino-acid masses, peptide mass arithmetic and the conflict-mass dictionary.

All masses are monoisotopic and expressed in daltons (Da). Residue masses are
the standard values used throughout CID fragment matching; their integer
roundings ("nominal" masses) are what appear in low-resolution ladder tables.
Isoleucine and leucine share a residue mass and are treated as one symbol:
peptide strings are canonicalized with ``I -> L`` before any arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

# Fundamental constants (Da).
PROTON_MASS = 1.00727647
H2O_MASS = 18.0105646863

# Monoisotopic residue masses (Da). I and L are identical by construction.
RESIDUE_MASSES: dict[str, float] = {
    "A": 71.0371138,
    "C": 103.0091845,
    "D": 115.0269430,
    "E": 129.0425931,
    "F": 147.0684139,
    "G": 57.0214637,
    "H": 137.0589119,
    "I": 113.0840640,
    "K": 128.0949630,
    "L": 113.0840640,
    "M": 131.0404846,
    "N": 114.0429274,
    "P": 97.0527639,
    "Q": 128.0585775,
    "R": 156.1011110,
    "S": 87.0320284,
    "T": 101.0476785,
    "V": 99.0684139,
    "W": 186.0793130,
    "Y": 163.0633285,
}

_SYMBOLS = frozenset(RESIDUE_MASSES)
_ANY_CASE_MASSES = {
    **RESIDUE_MASSES, **{sym.lower(): mass for sym, mass in RESIDUE_MASSES.items()}
}

# Canonical alphabet used when generating or mutating sequences: I is folded
# into L, leaving 19 distinct symbols.
CANONICAL_ALPHABET: tuple[str, ...] = tuple(
    sorted(sym for sym in RESIDUE_MASSES if sym != "I")
)

# Single residues whose mass collides with a di-peptide at nominal precision.
CONFLICT_REPLACEMENTS: dict[str, tuple[str, ...]] = {
    "W": ("DA", "AD", "EG", "GE", "VS", "SV"),
    "R": ("VG", "GV"),
    "Q": ("AG", "GA"),
    "N": ("GG",),
}

MAX_PEPTIDE_LENGTH = 64

# Fragment tolerances stay below half the glycine residue mass: from there on,
# two b-ions one residue apart can match the same peak.
TOLERANCE_LIMIT = RESIDUE_MASSES["G"] / 2

TRYPTIC_TERMINALS = ("K", "R")


class InvalidResidueError(ValueError):
    """Raised for a symbol outside the 20-letter amino-acid alphabet."""


class InvalidPeptideError(ValueError):
    """Raised for peptide strings violating length or residue constraints."""


def residue_mass(symbol: str) -> float:
    """Monoisotopic residue mass of a single amino-acid symbol."""
    try:
        return RESIDUE_MASSES[symbol]
    except KeyError:
        raise InvalidResidueError(f"unknown amino-acid symbol {symbol!r}") from None


def canonical(sequence: str) -> str:
    """Uppercase a residue string and fold I into L."""
    return sequence.upper().replace("I", "L")


def validate_peptide(sequence: str) -> str:
    """Canonicalize and validate a peptide string, returning the canonical form.

    Length must be 1..64 and every symbol must be a known residue.
    """
    seq = canonical(sequence)
    if not seq:
        raise InvalidPeptideError("empty peptide")
    if len(seq) > MAX_PEPTIDE_LENGTH:
        raise InvalidPeptideError(
            f"peptide length {len(seq)} exceeds maximum {MAX_PEPTIDE_LENGTH}"
        )
    if not _SYMBOLS.issuperset(seq):
        bad = next(sym for sym in seq if sym not in _SYMBOLS)
        raise InvalidResidueError(f"unknown amino-acid symbol {bad!r}")
    return seq


def parent_mass(sequence: str) -> float:
    """Total peptide mass: sum of residue masses plus one water."""
    return unchecked_parent_mass(validate_peptide(sequence))


def unchecked_parent_mass(sequence: str) -> float:
    """``parent_mass`` of a string that ``validate_peptide`` accepts, without
    validating it again.

    The masses are added left to right, as the builtin ``sum`` adds floats
    before Python 3.12, which made it compensated; so every Python gives the
    same bits. Both cases of a symbol are looked up, so the string need not
    be in canonical form.
    """
    mass = 0.0
    for symbol in sequence:
        mass += _ANY_CASE_MASSES[symbol]
    return mass + H2O_MASS


def check_tolerance(name: str, value: float) -> None:
    """Refuse a fragment tolerance that is not finite and positive, or that
    reaches TOLERANCE_LIMIT."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    if value >= TOLERANCE_LIMIT:
        raise ValueError(
            f"{name} must be below {TOLERANCE_LIMIT:.4f} Da, half the glycine "
            f"residue mass, got {value}"
        )


def left_to_right_sum(values: Iterable[float]) -> float:
    """The floats of ``values`` added left to right from 0.0.

    This is what the builtin ``sum`` computes before Python 3.12; from 3.12
    it compensates, so its last bits, and a 6-decimal text, can differ. Every
    float sum that reaches an output is taken here, so outputs do not depend
    on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def precursor_mass(pepmass: float, charge: int) -> float:
    """Neutral precursor mass from the measured m/z and charge state; a
    pepmass at or below one proton, giving a mass of 0 or below, is refused,
    and so is one whose product with the charge overflows."""
    if pepmass <= 0:
        raise ValueError(f"pepmass must be positive, got {pepmass}")
    if charge < 1:
        raise ValueError(f"charge must be a positive integer, got {charge}")
    try:
        mass = pepmass * charge - charge * PROTON_MASS
    except OverflowError:  # a charge too large to convert to a float
        mass = math.inf
    if not math.isfinite(mass):
        raise ValueError(f"neutral precursor mass must be finite, got {mass}")
    if mass <= 0:
        raise ValueError(f"neutral precursor mass must be positive, got {mass}")
    return mass

