"""Sequence tags and the tag-based initialization pool.

Run with: python demos/03_tags_and_initialization.py
"""

import random

from evopep import (
    Individual,
    PreprocessConfig,
    Scorer,
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
# match a residue mass within the tolerance. The index reads as the tags'
# residues (tags[t]); tags.tag(t) decodes tag t with its peaks, and the
# first peak's m/z is read from the spectrum.
tags = extract_tags(spec, tau=0.5)
print(f"extracted {len(tags)} tags from {len(spec.mz)} peaks; first few:")
for tag in map(tags.tag, range(min(5, len(tags)))):
    start_mz = spec.mz[tag.peak_indices[0]]
    print(f"  {tag.residues}  start m/z {start_mz:8.3f}  peaks {tag.peak_indices}")

# Initialization concatenates 2-4 random tags, appends K or R, then inserts
# or removes residues until the mass sits within one glycine of the
# precursor. It returns the distinct peptides unscored; evolve scores them,
# as here, through a Scorer: the spectrum's match table at tau, built once,
# and a memo of every peptide scored with it.
peptides = build_init_pool(spec, tau=0.5, pool_size=1000, rng=random.Random(1))
scorer = Scorer(spec, tau=0.5)
pool = [Individual.score(peptide, scorer) for peptide in peptides]
best = max(pool, key=lambda c: c.fitness)
print(f"\npool of {len(pool)} candidates")
print(f"best tag-based candidate: {best.peptide}  fitness {best.fitness:.3f}")
print(f"mean |mass error|: "
      f"{sum(abs(c.delta_mass) for c in pool) / len(pool):.2f} Da")

# Compare with naive random initialization (no mass adjustment): fitness is
# dominated by the mass-difference penalty.
random_candidates = [
    Individual.score(random_peptide(random.Random(i)), scorer)
    for i in range(1000)
]
best_random = max(random_candidates, key=lambda c: c.fitness)
print(f"\nbest random candidate:    {best_random.peptide}  fitness {best_random.fitness:.3f}")
print(f"mean |mass error|: "
      f"{sum(abs(c.delta_mass) for c in random_candidates) / len(random_candidates):.2f} Da")
