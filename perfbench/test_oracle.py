"""The benchmark's oracle agrees with the library on small random cases.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

import random
from pathlib import Path

import pytest

import gen
import oracle
from evopep import (
    PreprocessConfig,
    extract_tags,
    fitness,
    matched_amino_acids,
    parse_mgf,
    preprocess,
)

TAU = 0.5
CASES = 25


def _spectra(tmp_path: Path, seed: int, peaks: int):
    corpus = gen.Corpus(CASES, 6, 14, 500.0, 1800.0, 0.2, peaks, 0.08)
    records = gen.draw(corpus, seed, "t")
    mgf = tmp_path / "t.mgf"
    gen.write_mgf(records, mgf)
    text = mgf.read_text(encoding="utf-8")
    return records, oracle.parse_mgf(text), parse_mgf(text)


@pytest.mark.parametrize("peaks", [0, 50, 150])
def test_preprocess_matches_library(tmp_path, peaks):
    _, ours, theirs = _spectra(tmp_path, 1, peaks)
    for rec, spec in zip(ours, theirs):
        lib = preprocess(spec, PreprocessConfig(tolerance=TAU))
        assert oracle.preprocess(rec, TAU) == [(p.mz, p.intensity) for p in lib.peaks]


@pytest.mark.parametrize("peaks", [0, 60])
def test_score_matches_library(tmp_path, peaks):
    records, ours, theirs = _spectra(tmp_path, 2, peaks)
    rng = random.Random(7)
    for truth, rec, spec in zip(records, ours, theirs):
        lib_spec = preprocess(spec, PreprocessConfig(tolerance=TAU))
        prepared = oracle.preprocess(rec, TAU)
        # The truth, a near miss and a random peptide of each spectrum.
        near = truth["peptide"][:-3] + truth["peptide"][-2:-4:-1] + truth["peptide"][-1]
        other = gen.tryptic_peptide(rng, 2, 20)
        for peptide in (truth["peptide"], near, other):
            lib = fitness(peptide, lib_spec, TAU)
            got = oracle.score(peptide, rec, prepared, TAU)
            assert (got["nterm"], got["cterm"]) == (lib.nterm, lib.cterm)
            assert got["fitness"] == pytest.approx(lib.fitness, abs=1e-9)
            assert got["delta_mass_da"] == pytest.approx(lib.delta_mass, abs=1e-9)


@pytest.mark.parametrize("peaks", [0, 70, 200])
def test_path_count_matches_extract_tags(tmp_path, peaks):
    _, ours, theirs = _spectra(tmp_path, 3, peaks)
    for rec, spec in zip(ours[:8], theirs[:8]):
        lib = preprocess(spec, PreprocessConfig(tolerance=TAU))
        assert oracle.three_edge_paths(oracle.preprocess(rec, TAU), TAU) == len(
            extract_tags(lib, TAU)
        )


def test_alignment_matches_library():
    rng = random.Random(4)
    for _ in range(300):
        truth = gen.tryptic_peptide(rng, 2, 16)
        edits = list(truth)
        for _ in range(rng.randint(0, 4)):
            edits[rng.randrange(len(edits))] = rng.choice(sorted(oracle.ALPHABET))
        predicted = "".join(edits)
        assert oracle.matched_residues(predicted, truth, TAU) == matched_amino_acids(
            predicted, truth, TAU
        )
