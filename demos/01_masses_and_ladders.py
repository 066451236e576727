"""Residue masses, peptide mass arithmetic and fragment ladders.

Run with: python demos/01_masses_and_ladders.py
"""

from evopep import (
    CONFLICT_REPLACEMENTS,
    RESIDUE_MASSES,
    parent_mass,
    precursor_mass,
    theoretical_spectrum,
)

# The 20 standard residues; isoleucine and leucine share one mass, so the
# library folds I into L everywhere.
print("residue masses (Da):")
for symbol in sorted(RESIDUE_MASSES):
    print(f"  {symbol}  {RESIDUE_MASSES[symbol]:10.5f}")

# A peptide's parent mass is the residue sum plus one water.
peptide = "LGVTLYK"
print(f"\nparent mass of {peptide}: {parent_mass(peptide):.5f} Da")

# A doubly charged ion measured at m/z 415.2255 corresponds to this neutral
# precursor mass:
print(f"precursor mass (415.2255, 2+): {precursor_mass(415.2255, 2):.5f} Da")

# CID fragmentation produces b-ions (prefixes) and y-ions (suffixes); each
# b/y pair sums to the parent mass plus two protons.
theo = theoretical_spectrum(peptide)
print(f"\nfragment ladder of {peptide}:")
print("  b-ions:", " ".join(f"{m:8.3f}" for m in theo.b_ions))
print("  y-ions:", " ".join(f"{m:8.3f}" for m in theo.y_ions))
print("  internal fragments:", len(theo.internal_ions))

# Some single residues weigh the same as a two-residue stretch at integer
# precision; this drives one of the GA's mutation operators.
print("\nconflict-mass replacements:")
for symbol in "WRQN":
    print(f"  {symbol} -> {', '.join(CONFLICT_REPLACEMENTS.get(symbol, ()))}")
