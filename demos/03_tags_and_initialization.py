"""Sequence tags and the tag-based initialization pool.

Run with: python demos/03_tags_and_initialization.py
"""

import random

from evopep import (
    Individual,
    PreprocessConfig,
    SynthConfig,
    build_init_pool,
    extract_tags,
    preprocess,
    synthesize_spectrum,
)
from evopep.tags import random_peptide

rng = random.Random(7)
truth = "AAALAAADAR"
spec = preprocess(
    synthesize_spectrum(truth, SynthConfig(noise_peaks=15), rng),
    PreprocessConfig(),
)

# A tag is three residues read off four peaks whose consecutive gaps each
# match a residue mass within the tolerance.
tags = extract_tags(spec, tau=0.5)
print(f"extracted {len(tags)} tags from {len(spec.mz)} peaks; first few:")
for tag in tags[:5]:
    print(f"  {tag.residues}  start m/z {tag.start_mz:8.3f}  peaks {tag.peak_indices}")

# Initialization concatenates 2-4 random tags, appends K or R, then inserts
# or removes residues until the mass sits within one glycine of the
# precursor. Candidates are scored as they are produced.
pool = build_init_pool(spec, tau=0.5, pool_size=1000, rng=random.Random(1))
best = max(pool.candidates, key=lambda c: c.fitness)
print(f"\npool of {len(pool.candidates)} candidates")
print(f"best tag-based candidate: {best.peptide}  fitness {best.fitness:.3f}")
print(f"mean |mass error|: "
      f"{sum(abs(c.delta_mass) for c in pool.candidates) / len(pool.candidates):.2f} Da")

# Compare with naive random initialization (no mass adjustment): fitness is
# dominated by the mass-difference penalty.
random_candidates = [
    Individual.score(random_peptide(random.Random(i), 7, 12), spec, 0.5)
    for i in range(1000)
]
best_random = max(random_candidates, key=lambda c: c.fitness)
print(f"\nbest random candidate:    {best_random.peptide}  fitness {best_random.fitness:.3f}")
print(f"mean |mass error|: "
      f"{sum(abs(c.delta_mass) for c in random_candidates) / len(random_candidates):.2f} Da")
