"""The traced benchmark run keeps working: every boundary that
``perfbench/tracer.py`` wraps is still entered, and tracing leaves the
output of ``sequence`` unchanged. A refactor that renames or bypasses a
wrapped function fails here, not only in ``perfbench/run.py --trace 1``."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

from evopep import SynthConfig, emit_mgf, synthesize_spectrum

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEQUENCE = ["--seed", "1", "--jobs", "2", "--runs", "2", "--generations", "2",
            "--population", "30"]


def _python(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_traced_sequence_enters_every_boundary(tmp_path, monkeypatch):
    rng = random.Random(5)
    spectra = [
        synthesize_spectrum(peptide, SynthConfig(noise_peaks=15, dropout=0.1), rng,
                            title=f"s{index}")
        for index, peptide in enumerate(["LGVTLYK", "AAALAAADAR"])
    ]
    mgf = tmp_path / "in.mgf"
    mgf.write_text(emit_mgf(spectra), encoding="utf-8")
    plain, traced = tmp_path / "plain.tsv", tmp_path / "traced.tsv"
    _python("-m", "evopep.cli", "sequence", str(mgf), *SEQUENCE, "-o", str(plain),
            cwd=tmp_path)
    _python(str(PERFBENCH / "tracer.py"), str(tmp_path / "trace" / "chunk0"), "--",
            "sequence", str(mgf), *SEQUENCE, "-o", str(traced), cwd=tmp_path)
    assert traced.read_bytes() == plain.read_bytes()

    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    _, counters, entered = run.load_spans(tmp_path / "trace")
    assert entered, "the tracer wrote no spans"
    assert sorted(name for name, count in entered.items() if count == 0) == []
    assert counters["tags.count"] > 0
