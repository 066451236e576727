"""A full sequencing run: evolve a population against one spectrum.

Run with: python demos/04_evolution.py
"""

import random

from evopep import (
    GaConfig,
    PreprocessConfig,
    SynthConfig,
    evolve,
    preprocess,
    synthesize_spectrum,
)
from evopep.engine import trace_to_tsv

truth = "AAALAAADAR"
spec = preprocess(
    synthesize_spectrum(truth, SynthConfig(noise_peaks=20), random.Random(3)),
    PreprocessConfig(),
)
print(f"target peptide: {truth}  ({len(spec.mz)} peaks after preprocessing)")

# Default configuration: pool 1000, population 300, 50 generations, four
# operators at rates 0.40/0.35/0.10/0.15, tournament size 7, three elites.
# The run takes every draw from the generator it is given, so a generator
# seeded alike gives the same run.
result = evolve(spec, GaConfig(), random.Random(2026))

print(f"\nbest individual: {result.best.peptide}")
print(f"  fitness {result.best.fitness:.4f}  nterm {result.best.nterm}  "
      f"cterm {result.best.cterm}  mass error {result.best.delta_mass:+.4f} Da")
print(f"  exact match: {result.best.peptide == truth}")

print("\nconvergence (every 10th generation):")
for row in result.trace[::10]:
    print(f"  gen {row.generation:2d}  best {row.best_fitness:6.3f}  "
          f"mean {row.mean_fitness:6.3f}  {row.best_peptide}")

# Traces serialize to TSV for plotting.
tsv = trace_to_tsv(result.trace)
print(f"\ntrace TSV: {len(tsv.splitlines())} rows (header + one per generation)")
