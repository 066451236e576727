"""De novo peptide sequencing from tandem mass spectra with a genetic algorithm.

The library reconstructs full-length peptide sequences from MS/MS peak lists:
spectra are preprocessed (noise filtering, intensity normalization,
complementary-peak augmentation), 3-letter sequence tags seed an
initialization pool, and a GA with four selection pools and domain-specific
crossover/mutation operators searches for the sequence that best explains the
spectrum under a five-term peptide-spectrum-match fitness.
"""

from .chem import (
    CONFLICT_REPLACEMENTS,
    H2O_MASS,
    PROTON_MASS,
    RESIDUE_MASSES,
    InvalidPeptideError,
    InvalidResidueError,
    canonical,
    parent_mass,
    precursor_mass,
    residue_mass,
)
from .engine import (
    EvolutionError,
    EvolveResult,
    GaConfig,
    conflict_mass_mutation,
    evolve,
    flip_aa_mutation,
    nterm_cterm_crossover,
    select_pools,
    two_point_crossover,
)
from .evaluation import (
    NATURAL_RESIDUE_WEIGHTS,
    GroundTruthRecord,
    Metrics,
    MetricsSummary,
    SynthConfig,
    aggregate_runs,
    compute_metrics,
    matched_amino_acids,
    random_tryptic_peptide,
    synthesize_spectrum,
)
from .scoring import (
    Individual,
    InvalidSpectrumError,
    TheoreticalSpectrum,
    fitness,
    fitness_from_terms,
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
from .tags import Tag, TagIndex, adjust_mass, build_init_pool, extract_tags

__version__ = "0.1.0"

__all__ = [
    "CONFLICT_REPLACEMENTS",
    "NATURAL_RESIDUE_WEIGHTS",
    "H2O_MASS",
    "PROTON_MASS",
    "RESIDUE_MASSES",
    "EvolutionError",
    "EvolveResult",
    "GaConfig",
    "GroundTruthRecord",
    "Individual",
    "InvalidPeptideError",
    "InvalidResidueError",
    "InvalidSpectrumError",
    "Metrics",
    "MetricsSummary",
    "MgfParseError",
    "Peak",
    "PreprocessConfig",
    "Spectrum",
    "SynthConfig",
    "Tag",
    "TagIndex",
    "TheoreticalSpectrum",
    "add_complements",
    "adjust_mass",
    "aggregate_runs",
    "build_init_pool",
    "canonical",
    "compute_metrics",
    "conflict_mass_mutation",
    "denoise",
    "emit_mgf",
    "evolve",
    "extract_tags",
    "fitness",
    "fitness_from_terms",
    "flip_aa_mutation",
    "make_spectrum",
    "matched_amino_acids",
    "random_tryptic_peptide",
    "normalize",
    "nterm_cterm_crossover",
    "parent_mass",
    "parse_mgf",
    "precursor_mass",
    "preprocess",
    "residue_mass",
    "select_pools",
    "synthesize_spectrum",
    "theoretical_spectrum",
    "two_point_crossover",
]
