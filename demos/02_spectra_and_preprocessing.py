"""Synthetic spectra, MGF round-trips and the preprocessing pipeline.

Run with: python demos/02_spectra_and_preprocessing.py
"""

import random

from evopep import (
    PreprocessConfig,
    SynthConfig,
    add_complements,
    denoise,
    emit_mgf,
    normalize,
    parse_mgf,
    synthesize_spectrum,
)

rng = random.Random(42)

# Build a degraded spectrum of a known peptide: 10% of ladder ions dropped,
# 25 uniform-random noise peaks added.
cfg = SynthConfig(dropout=0.10, noise_peaks=25)
raw = synthesize_spectrum("AAALAAADAR", cfg, rng, title="demo-spectrum")
print(f"raw spectrum: {len(raw.mz)} peaks, precursor {raw.precursor_mass:.3f} Da")

# Spectra serialize to Mascot Generic Format and parse back losslessly
# (to 6 decimal places).
text = emit_mgf([raw])
print("\nfirst MGF lines:")
print("\n".join(text.splitlines()[:6]))
again = parse_mgf(text)[0]
assert len(again.mz) == len(raw.mz)

# Preprocessing stage 1: windowed noise filtering. Windows with more than 9
# peaks drop everything below their modal intensity.
pcfg = PreprocessConfig()
quiet = denoise(again, pcfg)
print(f"\nafter denoise:    {len(quiet.mz)} peaks")

# Stage 2: square-root intensities, normalized to 1.0 per window.
flat = normalize(quiet, pcfg)
print(f"after normalize:  {len(flat.mz)} peaks, max intensity "
      f"{flat.intensity.max():.2f}")

# Stage 3: complementary-peak augmentation. Each fragment peak implies a
# partner at precursor + 2*proton - m/z; missing partners are inserted.
full = add_complements(flat, pcfg)
added = len(full.mz) - len(flat.mz)
print(f"after complements: {len(full.mz)} peaks ({added} added)")
