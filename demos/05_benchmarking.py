"""Benchmark loop: synthesize a corpus, sequence it, score the results.

Run with: python demos/05_benchmarking.py   (about a minute)
"""

import random

from evopep import (
    GaConfig,
    PreprocessConfig,
    SynthConfig,
    aggregate_runs,
    compute_metrics,
    evolve,
    preprocess,
    random_tryptic_peptide,
    synthesize_spectrum,
)

# A small corpus of realistic tryptic peptides (natural residue frequencies,
# K/R only at the C-terminus).
corpus_rng = random.Random(11)
corpus = [random_tryptic_peptide(corpus_rng) for _ in range(6)]
print("corpus:", ", ".join(corpus))

runs = 3
per_run = []
for run_index in range(runs):
    pairs = []
    for index, peptide in enumerate(corpus):
        spec = preprocess(
            synthesize_spectrum(peptide, SynthConfig(), random.Random(index)),
            PreprocessConfig(),
        )
        rng = random.Random(f"demo|{run_index}|{index}")
        result = evolve(spec, GaConfig(), rng)
        pairs.append((result.best.peptide, peptide))
    metrics = compute_metrics(pairs)
    per_run.append(metrics)
    print(f"run {run_index}: precision {metrics.precision:.3f}  "
          f"recall {metrics.recall:.3f}  peptide recall {metrics.peptide_recall:.3f}")

mean, std = aggregate_runs(per_run)
print(f"\nover {len(per_run)} runs:")
print(f"  precision      {mean.precision:.3f} ± {std.precision:.3f}")
print(f"  recall         {mean.recall:.3f} ± {std.recall:.3f}")
print(f"  peptide recall {mean.peptide_recall:.3f} ± {std.peptide_recall:.3f}")
print(f"  avg predicted length {mean.avg_len_predicted:.2f}")
