"""De novo peptide sequencing from tandem mass spectra with a genetic algorithm.

The library reconstructs full-length peptide sequences from MS/MS peak lists:
spectra are preprocessed (noise filtering, intensity normalization,
complementary-peak augmentation), 3-letter sequence tags seed an
initialization pool, and a GA with four selection pools and domain-specific
crossover/mutation operators searches for the sequence that best explains the
spectrum under a five-term peptide-spectrum-match fitness.
"""

import os

# evopep makes no BLAS call, yet importing numpy starts a second OpenBLAS
# thread that burns CPU in every process, pool workers included. This must
# run before numpy is first imported; a value the caller has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .chem import (
    CONFLICT_REPLACEMENTS,
    H2O_MASS,
    PROTON_MASS,
    RESIDUE_MASSES,
    InvalidPeptideError,
    InvalidResidueError,
    parent_mass,
    precursor_mass,
    residue_mass,
)
from .engine import (
    EvolutionError,
    EvolveResult,
    GaConfig,
    evolve,
)
from .scoring import (
    Individual,
    InvalidSpectrumError,
    Scorer,
    TheoreticalSpectrum,
    fitness,
    theoretical_spectrum,
)
from .spectrum import (
    MgfParseError,
    Peak,
    PreprocessConfig,
    Spectrum,
    add_complements,
    denoise,
    emit_mgf,
    make_spectrum,
    normalize,
    parse_mgf,
    preprocess,
)
from .tags import Tag, TagIndex, build_init_pool, extract_tags

__version__ = "0.1.0"

# Only `evaluate`, `synth` and callers that synthesize spectra or score
# predictions read these, so `import evopep`, and every `sequence` process,
# loads their module only when one of them is first read (PEP 562).
_EVALUATION_NAMES = frozenset(
    {
        "Metrics",
        "SynthConfig",
        "aggregate_runs",
        "compute_metrics",
        "matched_amino_acids",
        "random_tryptic_peptide",
        "synthesize_spectrum",
    }
)


def __getattr__(name: str):
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EVALUATION_NAMES)


__all__ = [
    "CONFLICT_REPLACEMENTS",
    "H2O_MASS",
    "PROTON_MASS",
    "RESIDUE_MASSES",
    "EvolutionError",
    "EvolveResult",
    "GaConfig",
    "Individual",
    "InvalidPeptideError",
    "InvalidResidueError",
    "InvalidSpectrumError",
    "Metrics",
    "MgfParseError",
    "Peak",
    "PreprocessConfig",
    "Scorer",
    "Spectrum",
    "SynthConfig",
    "Tag",
    "TagIndex",
    "TheoreticalSpectrum",
    "add_complements",
    "aggregate_runs",
    "build_init_pool",
    "compute_metrics",
    "denoise",
    "emit_mgf",
    "evolve",
    "extract_tags",
    "fitness",
    "make_spectrum",
    "matched_amino_acids",
    "random_tryptic_peptide",
    "normalize",
    "parent_mass",
    "parse_mgf",
    "precursor_mass",
    "preprocess",
    "residue_mass",
    "synthesize_spectrum",
    "theoretical_spectrum",
]
