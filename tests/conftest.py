import random

import pytest

from evopep import (
    PreprocessConfig,
    SynthConfig,
    preprocess,
    synthesize_spectrum,
)


class GuardedRandom(random.Random):
    """A ``random.Random`` whose every draw must have something to draw from.

    The GA indexes through ``_randbelow``, and ``_randbelow(0)`` never
    returns on Python 3.11 and later; here it fails the test instead.
    """

    def _randbelow(self, n):
        assert n >= 1, f"_randbelow({n}) has nothing to draw"
        return super()._randbelow(n)


def clean_spectrum(peptide: str):
    """Noise-free complete-ladder spectrum, preprocessed like the pipeline."""
    raw = synthesize_spectrum(peptide, SynthConfig(), random.Random(0))
    return preprocess(raw, PreprocessConfig())


@pytest.fixture
def ladder_aaal():
    return clean_spectrum("AAALAAADAR")


@pytest.fixture
def ladder_lgvtlyk():
    return clean_spectrum("LGVTLYK")
