"""SHA-256 digests of each command's output on one small fixed input.

Every output must be byte-identical under a fixed seed on every Python that
``pyproject.toml`` admits. From 3.12 the builtin ``sum`` adds floats with
compensation, so a float sum that reaches an output and is not taken left
to right shows here first. A digest changes only with a disclosed change
of predictions or of an output format.
"""

import hashlib
import random

import pytest

from evopep.cli import main
from evopep.engine import GaConfig, evolve, trace_to_tsv
from evopep.spectrum import parse_mgf, preprocess

PEPTIDES = "LGVTLYK\nAAALAAADAR\nVGEAWLR\n"

DIGESTS = {
    "synth.mgf":
        "acaa6b2f62b0c4ef8449141dddd513eeb16625c5370780033d42bbdf8111922e",
    "synth.truth.tsv":
        "9981bd11fa80688936828f8a8ca258d962012675ec95f40ea748d586d7bb9862",
    "preprocess.mgf":
        "ab36d02e298d32a027ad6c32071bf0186d188dbbb796c7ed796774c30838e977",
    "preprocess.stdout":
        "d660c3769d144631c053781f0fe4f073bfbd027f9f4d93d4bb9410c3d4686e46",
    "tags.tsv":
        "783db478ff9bc5986ff8e7ab1fa0476016ce334e574443fc2b9976aba9102e76",
    "sequence.tsv":
        "ec0c4e44e479b1e15b7074fc6b9eb4f1b4ded8267c370c31e09e0f33e0ae97a6",
    "evaluate.tsv":
        "3f8fa96d20f6d246d6f66f639d2752a80b6c27233442e7c9548d1b836d74ad35",
    "trace.tsv":
        "1ad85b9a980e5561dcb4db5a1b3fd831b1e3d64c24ef2cab5b8a14f93c625c3c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The work directory and the paths of the synth outputs, which the
    other commands read."""
    work = tmp_path_factory.mktemp("golden")
    peptides = work / "peptides.txt"
    peptides.write_text(PEPTIDES, encoding="utf-8")
    mgf, truth = work / "synth.mgf", work / "synth.truth.tsv"
    assert main([
        "synth", str(peptides), "-o", str(mgf),
        "--seed", "5", "--noise", "10", "--dropout", "0.1",
    ]) == 0
    return {"work": work, "synth.mgf": mgf, "synth.truth.tsv": truth}


def test_synth_output(outputs):
    for name in ("synth.mgf", "synth.truth.tsv"):
        assert sha256(outputs[name].read_bytes()) == DIGESTS[name], name


def test_preprocess_output(outputs, capsys):
    out = outputs["work"] / "preprocess.mgf"
    capsys.readouterr()
    assert main(["preprocess", str(outputs["synth.mgf"]), str(out)]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert sha256(out.read_bytes()) == DIGESTS["preprocess.mgf"]
    assert sha256(printed) == DIGESTS["preprocess.stdout"]


def test_tags_output(outputs):
    out = outputs["work"] / "tags.tsv"
    assert main(["tags", str(outputs["synth.mgf"]), "-o", str(out)]) == 0
    assert sha256(out.read_bytes()) == DIGESTS["tags.tsv"]


def test_sequence_and_evaluate_output(outputs):
    results = outputs["work"] / "sequence.tsv"
    report = outputs["work"] / "evaluate.tsv"
    assert main([
        "sequence", str(outputs["synth.mgf"]), "--seed", "1", "--runs", "2",
        "--generations", "3", "--population", "30", "--pool-size", "60",
        "-o", str(results),
    ]) == 0
    assert main([
        "evaluate", str(results), str(outputs["synth.truth.tsv"]), "-o", str(report)
    ]) == 0
    assert sha256(results.read_bytes()) == DIGESTS["sequence.tsv"]
    assert sha256(report.read_bytes()) == DIGESTS["evaluate.tsv"]


def test_trace_output(outputs):
    spec = preprocess(parse_mgf(outputs["synth.mgf"].read_text("utf-8"))[0])
    cfg = GaConfig(pool_size=60, population=30, generations=3)
    text = trace_to_tsv(evolve(spec, cfg, random.Random(2)).trace)
    assert sha256(text.encode("utf-8")) == DIGESTS["trace.tsv"]
