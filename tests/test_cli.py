import dataclasses
import io
import logging
import os
import pickle
import subprocess
import sys
from functools import cached_property
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopep import cli
from evopep.chem import CANONICAL_ALPHABET, PROTON_MASS, residue_mass
from evopep.cli import SEQUENCE_COLUMNS, _read_results, _read_truth, main
from evopep.engine import GaConfig, evolve
from evopep.evaluation import GroundTruthRecord, ground_truth_tsv
from evopep.spectrum import (
    Spectrum,
    content_lines,
    emit_mgf,
    make_spectrum,
    parse_mgf,
    preprocess,
)
from evopep.tags import extract_tags

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def peptide_file(tmp_path):
    return write(tmp_path / "peps.txt", "LGVTLYK\nAAALAAADAR\n")


def synth(tmp_path, peptide_file, *extra):
    mgf = tmp_path / "batch.mgf"
    truth = tmp_path / "truth.tsv"
    code = run(
        "synth", peptide_file, "-o", str(mgf), "--truth", str(truth), "--seed", "5", *extra
    )
    assert code == 0
    return mgf, truth


def test_defaults_match_published_parameters():
    from evopep.cli import _DEFAULTS

    assert _DEFAULTS["runs"] == 30
    cfg = GaConfig()
    assert cfg.pool_size == 1000
    assert cfg.population == 300
    assert cfg.sub_pool == 100
    assert cfg.generations == 50
    assert cfg.tournament_k == 7
    assert cfg.rates == (0.40, 0.35, 0.10, 0.15)
    assert cfg.tau == 0.5


def test_synth_writes_ladder_and_truth(tmp_path, peptide_file):
    mgf, truth = synth(tmp_path, peptide_file)
    text = mgf.read_text()
    assert text.count("BEGIN IONS") == 2
    first = text.split("END IONS")[0]
    peak_lines = [
        ln for ln in first.splitlines() if ln and ln[0].isdigit() and " " in ln
    ]
    assert len(peak_lines) == 12  # clean LGVTLYK ladder
    truth_lines = truth.read_text().strip().splitlines()
    assert truth_lines[0] == "spectrum_id\tpeptide"
    assert len(truth_lines) == 3


def test_synth_empty_input(tmp_path):
    empty = write(tmp_path / "none.txt", "")
    mgf = tmp_path / "out.mgf"
    assert run("synth", str(empty), "-o", str(mgf)) == 0
    assert mgf.read_text() == ""
    assert (tmp_path / "out.truth.tsv").read_text() == "spectrum_id\tpeptide\n"


def test_synth_invalid_residue_line_numbered(tmp_path, capsys):
    bad = write(tmp_path / "bad.txt", "LGVTLYK\nNOTPEPT1DE\n")
    code = run("synth", str(bad), "-o", str(tmp_path / "x.mgf"))
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_synth_one_residue_peptide_errors_at_its_line(tmp_path, capsys):
    peps = write(tmp_path / "peps2.txt", "LGVTLYK\n# comment\n\nK\n")
    assert run("synth", peps, "-o", str(tmp_path / "x.mgf")) == 2
    err = capsys.readouterr().err
    assert f"error: {peps}:4: theoretical spectrum requires length >= 2" in err


def test_synth_dropout_noise_counts(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file, "--dropout", "0.2", "--noise", "30")
    records = mgf.read_text().split("BEGIN IONS")[1:]
    for record, length in zip(records, (7, 10)):
        peak_lines = [
            ln for ln in record.splitlines() if ln and ln[0].isdigit() and " " in ln
        ]
        assert len(peak_lines) <= 2 * (length - 1) + 30


def test_sequence_deterministic_across_invocations_and_jobs(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    outputs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.tsv"
        code = run(
            "sequence", str(mgf), "--seed", "42", "--runs", "2",
            "--generations", "4", "--jobs", jobs, "-o", str(out),
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# `sequence` output of the test below, as written before the variation
# operators became functions on strings. Predictions change only on purpose.
GOLDEN_SEQUENCE_TSV = (
    "\t".join(SEQUENCE_COLUMNS) + "\n"
    "synth-00000\t0\tLGVTLYK\t1.887936\t5\t5\t0.000001\t3\n"
    "synth-00000\t1\tLGDHTYK\t0.529210\t5\t1\t-39.933376\t3\n"
    "synth-00001\t0\tACAWAR\t1.292960\t4\t4\t223.170964\t3\n"
    "synth-00001\t1\tMNWR\t0.845256\t2\t2\t294.208078\t3\n"
)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sequence_matches_golden_output(tmp_path, peptide_file, jobs):
    mgf, _ = synth(tmp_path, peptide_file, "--noise", "10", "--dropout", "0.1")
    out = tmp_path / "r.tsv"
    assert run(
        "sequence", str(mgf), "--seed", "1", "--runs", "2", "--generations", "3",
        "--population", "30", "--pool-size", "60", "--jobs", jobs, "-o", str(out),
    ) == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_SEQUENCE_TSV


def test_sequence_output_shape(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "r.tsv"
    assert run(
        "sequence", str(mgf), "--seed", "1", "--runs", "2",
        "--generations", "2", "-o", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t") == [
        "spectrum_id", "run_index", "predicted_peptide", "fitness",
        "nterm", "cterm", "delta_mass_da", "generations_used",
    ]
    assert len(lines) == 5  # 2 spectra x 2 runs + header
    assert all(row.split("\t")[7] == "2" for row in lines[1:])


def test_sequence_runs_leave_spectra_plain_values(tmp_path, peptide_file, monkeypatch):
    import evopep.cli
    import evopep.tags

    runs = []
    extracted = []

    def spy(spec, cfg):
        before = len(extracted)
        result = evolve(spec, cfg)
        runs.append((spec, len(extracted) - before))
        return result

    def extract_spy(spec, tau):
        extracted.append(spec.title)
        return extract_tags(spec, tau)

    monkeypatch.setattr(evopep.cli, "evolve", spy)
    monkeypatch.setattr(evopep.tags, "extract_tags", extract_spy)
    mgf, _ = synth(tmp_path, peptide_file)
    assert run(
        "sequence", str(mgf), "--runs", "2", "--generations", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    # At --jobs 1 the runs of a spectrum share its object, and each run
    # extracts its tags once.
    assert [extractions for _, extractions in runs] == [1] * 4
    assert extracted == ["synth-00000"] * 2 + ["synth-00001"] * 2
    # A run leaves nothing on its spectrum but the cached properties.
    fields = {field.name for field in dataclasses.fields(Spectrum)}
    cached = {
        name for name, value in vars(Spectrum).items()
        if isinstance(value, cached_property)
    }
    assert all(set(vars(spec)) <= fields | cached for spec, _ in runs)
    # So runs on one spectrum object give what runs on fresh copies give.
    spec = runs[0][0]
    configs = [GaConfig(pool_size=60, population=30, generations=3, seed=s) for s in "ab"]
    again = [evolve(spec, cfg) for cfg in configs]
    fresh = [evolve(pickle.loads(pickle.dumps(spec)), cfg) for cfg in configs]
    assert again == fresh


class _RecordingPool:
    """Stands in for the process pool: records its tasks, runs them here."""

    started = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        _RecordingPool.started.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


def test_sequence_splits_runs_of_one_spectrum_across_jobs(
    tmp_path, peptide_file, monkeypatch
):
    import evopep.cli

    one = write(tmp_path / "one.txt", "LGVTLYK\n")
    mgf, _ = synth(tmp_path, one)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.tsv"
        assert run(
            "sequence", str(mgf), "--seed", "3", "--runs", "4",
            "--generations", "2", "--jobs", jobs, "-o", str(out),
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 5

    monkeypatch.setattr(evopep.cli, "_process_pool", _RecordingPool)
    _RecordingPool.started.clear()
    assert run(
        "sequence", str(mgf), "--runs", "4", "--generations", "2", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    assert [(task[3], task[4]) for task in pool.tasks] == [(0, r) for r in range(4)]


@pytest.mark.parametrize(
    "peptides", ["LGVTLYK\nAAALAAADAR\n", "LGVTLYK\nAAALAAADAR\nGGK\n"]
)
def test_sequence_makes_one_task_per_spectrum_run(tmp_path, monkeypatch, peptides):
    import evopep.cli

    mgf, _ = synth(tmp_path, write(tmp_path / "peps.txt", peptides))
    monkeypatch.setattr(evopep.cli, "_process_pool", _RecordingPool)
    _RecordingPool.started.clear()
    assert run(
        "sequence", str(mgf), "--runs", "3", "--generations", "1", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    # 6 or 9 tasks for 2 workers: the count is not rounded to a multiple of
    # the worker count, whose workers take the next task as they free up.
    assert [(task[3], task[4]) for task in pool.tasks] == [
        (spec, r) for spec in range(peptides.count("\n")) for r in range(3)
    ]


def test_sequence_output_ignores_how_tasks_fall_on_workers(tmp_path, monkeypatch):
    import evopep.cli

    # Three spectra, a count that is not a multiple of 2 workers.
    peps = write(tmp_path / "peps.txt", "LGVTLYK\nAAALAAADAR\nGGK\n")
    mgf, _ = synth(tmp_path, peps, "--noise", "5")
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"j{jobs}.tsv"
        assert run(
            "sequence", str(mgf), "--seed", "4", "--runs", "4", "--generations", "2",
            "--population", "30", "--pool-size", "60", "--jobs", jobs, "-o", str(out),
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 1 + 12

    monkeypatch.setattr(evopep.cli, "_process_pool", _RecordingPool)
    _RecordingPool.started.clear()
    assert run(
        "sequence", str(mgf), "--seed", "4", "--runs", "4", "--generations", "2",
        "--population", "30", "--pool-size", "60", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    assert [(task[3], task[4]) for task in pool.tasks] == [
        (spec, r) for spec in range(3) for r in range(4)
    ]
    assert (tmp_path / "r.tsv").read_bytes() == outputs[0]


def test_sequence_forks_no_more_workers_than_tasks(tmp_path, peptide_file, monkeypatch):
    import evopep.cli

    monkeypatch.setattr(evopep.cli, "_process_pool", _RecordingPool)
    _RecordingPool.started.clear()
    mgf, _ = synth(tmp_path, peptide_file)
    assert run(
        "sequence", str(mgf), "--runs", "1", "--generations", "1", "--jobs", "8",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    assert len(pool.tasks) == 2
    assert pool.max_workers == 2


def test_sequence_zero_runs_starts_no_pool(tmp_path, peptide_file, monkeypatch):
    import evopep.cli

    monkeypatch.setattr(evopep.cli, "_process_pool", _RecordingPool)
    _RecordingPool.started.clear()
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "r.tsv"
    assert run("sequence", str(mgf), "--runs", "0", "--jobs", "2", "-o", str(out)) == 0
    assert _RecordingPool.started == []
    assert out.read_text().splitlines() == ["\t".join(SEQUENCE_COLUMNS)]


def test_importing_the_cli_loads_no_process_pool():
    # Only a `sequence` with a pool to start imports the pool's modules, only
    # `evaluate` and `synth` import evopep.evaluation, and numpy.typing is
    # read by type checkers alone: no process pays for them on startup.
    lazy = ["evopep.evaluation", "concurrent.futures", "multiprocessing", "numpy.typing"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module in ("evopep.cli", "evopep"):
        code = f"import sys, {module}; print(*[m in sys.modules for m in {lazy!r}])"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"] * len(lazy), module


class _BrokenPool(_RecordingPool):
    """A pool whose worker died before it returned a result."""

    def map(self, fn, tasks):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a worker process was killed")


def test_sequence_broken_pool_errors(tmp_path, peptide_file, monkeypatch, capsys):
    import evopep.cli

    mgf, _ = synth(tmp_path, peptide_file)
    monkeypatch.setattr(evopep.cli, "_process_pool", _BrokenPool)
    out = tmp_path / "r.tsv"
    assert run(
        "sequence", str(mgf), "--runs", "2", "--generations", "1", "--jobs", "2",
        "-o", str(out),
    ) == 2
    err = capsys.readouterr().err
    assert "error: worker pool broke: a worker process was killed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_module_entry_point_prints_what_main_writes(tmp_path, peptide_file, capsys):
    # `python -m evopep.cli` goes through console_main, which freezes the
    # GC before it exits; the rows must be those main() writes in-process.
    mgf, _ = synth(tmp_path, peptide_file)
    argv = ["sequence", str(mgf), "--runs", "2", "--generations", "2",
            "--population", "30", "--pool-size", "60", "--seed", "4"]
    capsys.readouterr()
    assert run(*argv) == 0
    in_process = capsys.readouterr().out
    assert len(in_process.splitlines()) == 1 + 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "evopep.cli", *argv], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == in_process

    bad = write(tmp_path / "bad.mgf", "BEGIN IONS\nPEPMASS=nan\n100.0 5.0\nEND IONS\n")
    done = subprocess.run(
        [sys.executable, "-m", "evopep.cli", "sequence", bad], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_dash_output_writes_to_stdout(tmp_path, peptide_file, capsys, monkeypatch):
    mgf, truth = synth(tmp_path, peptide_file)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    commands = {
        "sequence": ["sequence", str(mgf), "--runs", "2", "--generations", "2",
                     "--population", "30", "--pool-size", "60"],
        "tags": ["tags", str(mgf)],
        "evaluate": ["evaluate", str(tmp_path / "sequence.tsv"), str(truth)],
    }
    for name, argv in commands.items():
        to_file = tmp_path / f"{name}.tsv"
        assert run(*argv, "-o", str(to_file)) == 0
        capsys.readouterr()
        assert run(*argv, "-o", "-") == 0
        assert capsys.readouterr().out.encode("utf-8") == to_file.read_bytes(), name
    assert list(work.iterdir()) == []


def _zero_intensity_mgf(mgf):
    """The first spectrum of ``mgf`` again, titled "zero", every intensity 0."""
    spec = parse_mgf(mgf.read_text())[0]
    zero = make_spectrum(
        "zero", spec.pepmass, spec.charge, spec.mz, [0.0] * len(spec.mz)
    )
    return emit_mgf([zero])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sequence_zero_intensity_spectrum_only_errors(
    tmp_path, peptide_file, capsys, caplog, jobs
):
    mgf, _ = synth(tmp_path, peptide_file)
    zero = write(tmp_path / "zero.mgf", _zero_intensity_mgf(mgf))
    with caplog.at_level(logging.WARNING):
        code = run("sequence", zero, "--runs", "4", "--generations", "1",
                   "--jobs", jobs, "-o", str(tmp_path / "r.tsv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: all sequencing runs failed" in err
    assert "Traceback" not in err
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == ["skipping zero: spectrum has no positive intensity"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sequence_zero_intensity_spectrum_skipped(
    tmp_path, peptide_file, capsys, caplog, jobs
):
    mgf, _ = synth(tmp_path, peptide_file)
    mixed = write(tmp_path / "mixed.mgf", _zero_intensity_mgf(mgf) + mgf.read_text())
    out = tmp_path / "r.tsv"
    with caplog.at_level(logging.WARNING):
        assert run(
            "sequence", mixed, "--runs", "4", "--generations", "1", "--jobs", jobs,
            "-o", str(out),
        ) == 0
    ids = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
    assert ids == ["synth-00000"] * 4 + ["synth-00001"] * 4
    assert "Traceback" not in capsys.readouterr().err
    skipped = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    assert skipped == ["skipping zero: spectrum has no positive intensity"]


def test_sequence_skips_spectrum_no_peptide_can_reach(
    tmp_path, peptide_file, monkeypatch, caplog
):
    import evopep.cli

    evolved = []

    def spy(spec, cfg):
        evolved.append(spec.title)
        return evolve(spec, cfg)

    monkeypatch.setattr(evopep.cli, "evolve", spy)
    one = write(tmp_path / "one.txt", "LGVTLYK\n")
    mgf, _ = synth(tmp_path, one)
    spec = parse_mgf(mgf.read_text())[0]
    # 20,000 Da is above any peptide of at most 64 residues.
    far = make_spectrum(
        "far", (20000.0 + 2 * PROTON_MASS) / 2, 2, spec.mz, spec.intensity
    )
    both = write(tmp_path / "both.mgf", mgf.read_text() + emit_mgf([far]))
    out = tmp_path / "r.tsv"
    with caplog.at_level(logging.WARNING):
        assert run(
            "sequence", both, "--runs", "2", "--generations", "1",
            "--population", "20", "--pool-size", "20", "-o", str(out),
        ) == 0
    assert evolved == ["synth-00000"] * 2
    ids = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
    assert ids == ["synth-00000"] * 2
    assert [r.getMessage() for r in caplog.records] == [
        "skipping far: no peptide the GA can build comes near its precursor "
        "mass of 20000.0000 Da"
    ]


@pytest.mark.parametrize("command", ["sequence", "tags"])
def test_non_positive_pepmass_errors_at_its_line(tmp_path, capsys, command):
    mgf = write(
        tmp_path / "bad.mgf",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500\nCHARGE=2+\n150.0 1.0\nEND IONS\n"
        "BEGIN IONS\nTITLE=b\nPEPMASS=-5\nCHARGE=2+\n150.0 1.0\nEND IONS\n",
    )
    assert run(command, mgf, "-o", str(tmp_path / "out.tsv")) == 2
    err = capsys.readouterr().err
    assert f"error: {mgf}:9: PEPMASS must be positive, got '-5'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sequence", "tags"])
def test_precursor_at_or_below_one_proton_errors_at_its_line(tmp_path, capsys, command):
    mgf = write(
        tmp_path / "bad.mgf",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500\nCHARGE=2+\n150.0 1.0\nEND IONS\n"
        "BEGIN IONS\nTITLE=b\nPEPMASS=0.5\nCHARGE=2+\n150.0 1.0\nEND IONS\n",
    )
    assert run(command, mgf, "-o", str(tmp_path / "out.tsv")) == 2
    err = capsys.readouterr().err
    assert f"error: {mgf}:9: neutral precursor mass must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,output", [("preprocess", ""), ("tags", "-o"), ("sequence", "-o")])
@pytest.mark.parametrize(
    "pepmass,charge", [("1e308", "2+"), ("500", "1" + "0" * 400)], ids=["inf", "huge-charge"]
)
def test_overflowing_precursor_errors_at_its_line(
    tmp_path, capsys, command, output, pepmass, charge
):
    mgf = write(
        tmp_path / "bad.mgf",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500\nCHARGE=2+\n150.0 1.0\nEND IONS\n"
        f"BEGIN IONS\nTITLE=b\nPEPMASS={pepmass}\nCHARGE={charge}\n150.0 1.0\nEND IONS\n",
    )
    out = [output, str(tmp_path / "out")] if output else [str(tmp_path / "out")]
    assert run(command, mgf, *out) == 2
    err = capsys.readouterr().err
    assert f"error: {mgf}:9: neutral precursor mass must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "header,peak",
    [("PEPMASS=500", "nan 5.0"), ("PEPMASS=500", "100.0 inf"), ("PEPMASS=nan", "100.0 5.0")],
)
def test_sequence_non_finite_mgf_value_errors(tmp_path, capsys, header, peak):
    mgf = write(
        tmp_path / "bad.mgf",
        f"BEGIN IONS\n{header}\nCHARGE=2+\n150.0 1.0\n{peak}\nEND IONS\n",
    )
    code = run("sequence", mgf, "--runs", "1", "--generations", "0",
               "--pool-size", "5", "--population", "4", "--tournament", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {mgf}:" in err and "must be finite" in err
    assert "Traceback" not in err


def test_sequence_repeated_title_errors(tmp_path, peptide_file, capsys):
    mgf, _ = synth(tmp_path, peptide_file)
    twice = write(tmp_path / "twice.mgf", mgf.read_text() * 2)
    assert run("sequence", twice, "--runs", "1", "--generations", "0") == 2
    assert "spectrum id 'synth-00000' is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("title", ["#first", "first\tsecond"], ids=["comment", "tab"])
def test_sequence_refuses_id_its_results_cannot_carry(
    tmp_path, peptide_file, capsys, title
):
    # `evaluate` would skip a row whose id starts with '#' as a comment, and
    # a tab would split the id over two columns.
    mgf, _ = synth(tmp_path, peptide_file)
    renamed = write(
        tmp_path / "renamed.mgf",
        mgf.read_text().replace("TITLE=synth-00000", f"TITLE={title}"),
    )
    assert run("sequence", renamed, "--runs", "1", "--generations", "0") == 2
    assert f"spectrum id {title!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, title",
    [
        pytest.param(
            command, title, id=name if command == "tags" else f"{command}-{name}"
        )
        for command in ("tags", "preprocess")
        for name, title in (
            ("comment", "#first"), ("tab", "first\tsecond"), ("repeated", "synth-00001")
        )
    ],
)
def test_tags_refuses_the_ids_sequence_refuses(
    tmp_path, peptide_file, capsys, command, title
):
    # `tags` writes the id into its rows and `preprocess` into its summary.
    mgf, _ = synth(tmp_path, peptide_file)
    renamed = write(
        tmp_path / "renamed.mgf",
        mgf.read_text().replace("TITLE=synth-00000", f"TITLE={title}"),
    )
    out = tmp_path / "out"
    output = ["-o", str(out)] if command == "tags" else [str(out)]
    assert run(command, renamed, *output) == 2
    captured = capsys.readouterr()
    assert f"error: {renamed}: spectrum id {title!r}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def _die(task):
    os._exit(3)


def test_sequence_dying_worker_errors(tmp_path, peptide_file, monkeypatch, capsys):
    import evopep.cli

    monkeypatch.setattr(evopep.cli, "_sequence_job", _die)
    mgf, _ = synth(tmp_path, peptide_file)
    assert run(
        "sequence", str(mgf), "--runs", "1", "--generations", "0", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_sequence_generations_zero(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "g0.tsv"
    assert run(
        "sequence", str(mgf), "--seed", "1", "--runs", "1",
        "--generations", "0", "-o", str(out),
    ) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_pipeline_synth_sequence_evaluate(tmp_path, peptide_file):
    mgf, truth = synth(tmp_path, peptide_file)
    results = tmp_path / "results.tsv"
    assert run(
        "sequence", str(mgf), "--seed", "7", "--runs", "3",
        "--generations", "10", "-o", str(results),
    ) == 0
    report = tmp_path / "metrics.tsv"
    assert run("evaluate", str(results), str(truth), "-o", str(report)) == 0
    lines = [
        ln for ln in report.read_text().strip().splitlines() if not ln.startswith("#")
    ]
    assert len(lines) == 5  # header + 3 runs + aggregate
    assert lines[-1].startswith("aggregate")
    assert "±" in lines[-1]


def test_evaluate_perfect_predictions(tmp_path):
    truth = write(
        tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAAAK\n"
    )
    results = write(
        tmp_path / "r.tsv",
        "spectrum_id\trun_index\tpredicted_peptide\n"
        "s1\t0\tLGVTLYK\ns2\t0\tAAAK\n",
    )
    report = tmp_path / "m.tsv"
    assert run("evaluate", results, truth, "-o", str(report)) == 0
    row = [
        ln for ln in report.read_text().splitlines() if ln.startswith("0\t")
    ][0].split("\t")
    assert row[1] == "1.000000" and row[2] == "1.000000" and row[3] == "1.000000"


def test_evaluate_missing_prediction_penalizes_recall(tmp_path):
    truth = write(
        tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAAAK\n"
    )
    results = write(
        tmp_path / "r.tsv",
        "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\n",
    )
    report = tmp_path / "m.tsv"
    assert run("evaluate", results, truth, "-o", str(report)) == 0
    row = [ln for ln in report.read_text().splitlines() if ln.startswith("0\t")][0]
    fields = row.split("\t")
    assert float(fields[1]) == 1.0  # precision unaffected
    assert float(fields[2]) == pytest.approx(7 / 11)  # recall penalized


@pytest.mark.parametrize("tau", ["nan", "inf", "0", "-0.5"])
def test_evaluate_refuses_bad_tau(tmp_path, capsys, tau):
    truth = write(tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\n")
    results = write(
        tmp_path / "r.tsv",
        "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\n",
    )
    assert run("evaluate", results, truth, "--tau", tau) == 2
    message = f"error: tau must be finite and positive, got {float(tau)}"
    assert message in capsys.readouterr().err


def test_evaluate_empty_results_errors(tmp_path):
    truth = write(tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\n")
    empty = write(tmp_path / "r.tsv", "")
    assert run("evaluate", empty, truth) == 2


@pytest.mark.parametrize(
    "rows, where",
    [
        ("s1\t0\n", "r.tsv:2:"),  # fewer fields than the header
        ("s1\tfirst\tLGVTLYK\n", "r.tsv:2:"),  # non-integer run_index
        ("s1\t0\tLGVTLYK\n\ns1\t0\tAAAK\n", "r.tsv:4: repeated row for spectrum 's1' run 0"),
        # The empty prediction of a failed run on line 2 is allowed.
        ("s1\t0\t\ns1\t1\tAXZK\n", "r.tsv:3: unknown amino-acid symbol 'X'"),
    ],
    ids=["short-row", "non-integer-run", "repeated-row", "bad-peptide"],
)
def test_evaluate_malformed_results_row_errors(tmp_path, capsys, rows, where):
    truth = write(tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\n")
    header = "spectrum_id\trun_index\tpredicted_peptide\n"
    results = write(tmp_path / "r.tsv", header + rows)
    assert run("evaluate", results, truth) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        (
            "s1\tLGVTLYK\ns2\tAAAK\n",
            "1: header 's1\\tLGVTLYK' lacks columns ['spectrum_id', 'peptide']",
        ),
        (
            "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAAAK\ns1\tLGVTLYK\n",
            "4: spectrum id 's1' repeats line 2",
        ),
        (
            "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAXZK\n",
            "3: unknown amino-acid symbol 'X'",
        ),
    ],
    ids=["no-header", "repeated-id", "bad-peptide"],
)
def test_evaluate_faulty_truth_file_errors(tmp_path, capsys, text, where):
    truth = write(tmp_path / "t.tsv", text)
    results = write(
        tmp_path / "r.tsv",
        "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\ns2\t0\tAAAK\n",
    )
    assert run("evaluate", results, truth) == 2
    assert f"error: {truth}:{where}" in capsys.readouterr().err


# Ids that a TITLE line can carry (one stripped line) and `sequence` accepts.
# Only "\n" and "\r" end a line, so a form feed or U+2028 may be inside one.
accepted_ids = st.text(min_size=1).filter(
    lambda sid: sid == sid.strip()
    and "\n" not in sid
    and "\r" not in sid
    and not sid.startswith("#")
    and "\t" not in sid
)
peptides = st.text(CANONICAL_ALPHABET, min_size=1, max_size=64)


@settings(deadline=None)
@given(
    st.lists(st.tuples(accepted_ids, peptides), max_size=6, unique_by=lambda r: r[0])
)
def test_ground_truth_round_trip(tmp_path_factory, rows):
    records = [GroundTruthRecord(spectrum_id=sid, peptide=pep) for sid, pep in rows]
    path = tmp_path_factory.mktemp("truth") / "t.tsv"
    path.write_text(ground_truth_tsv(records), "utf-8")
    if not records:  # a header with no rows under it is refused
        with pytest.raises(ValueError, match="no rows under the header"):
            _read_truth(str(path))
    else:
        assert _read_truth(str(path)) == dict(rows)


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(accepted_ids, st.integers(0, 99)), peptides, min_size=1, max_size=8
    )
)
def test_sequence_rows_round_trip(tmp_path_factory, predictions):
    rows = [
        f"{sid}\t{run}\t{pep}\t1.000000\t1\t1\t0.000000\t3"
        for (sid, run), pep in predictions.items()
    ]
    path = tmp_path_factory.mktemp("results") / "r.tsv"
    path.write_text("\n".join(["\t".join(SEQUENCE_COLUMNS), *rows]) + "\n", "utf-8")
    runs = sorted({run for _, run in predictions})
    assert _read_results(str(path)) == (predictions, runs)


def test_preprocess_round_trip(tmp_path, peptide_file, capsys):
    mgf, _ = synth(tmp_path, peptide_file, "--noise", "40")
    out = tmp_path / "pp.mgf"
    assert run("preprocess", str(mgf), str(out)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2
    for line in printed:
        name, before, after = line.split("\t")
        assert int(before) > 0 and int(after) > 0
    assert run("tags", str(out), "-o", str(tmp_path / "tags.tsv")) == 0


def test_preprocess_missing_file(tmp_path):
    assert run("preprocess", str(tmp_path / "nope.mgf"), str(tmp_path / "o.mgf")) == 2


def test_tags_output_contains_known_tag(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "tags.tsv"
    assert run("tags", str(mgf), "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "spectrum_id\tstart_mz\tresidues\tpeak_indices"
    ladder_rows = [ln.split("\t") for ln in lines[1:] if ln.startswith("synth-00000")]
    assert any(row[2] == "GVT" for row in ladder_rows)
    keys = [(float(r[1]), r[2]) for r in ladder_rows]
    assert keys == sorted(keys)


def test_tags_rows_equal_a_full_sort(tmp_path):
    # From peak 0, the tag through peak 1 ("GAS") precedes the one through
    # peak 2 ("AGS") in the index, but follows it in the sorted rows.
    gly, ala, ser, val = (residue_mass(sym) for sym in "GASV")
    steps = [0.0, gly, ala, gly + ala, gly + ala + ser, gly + ala + ser + val]
    spec = make_spectrum("mixed", 800.0, 1, [100.0 + m for m in steps], [1.0] * 6)
    mgf = write(tmp_path / "mixed.mgf", emit_mgf([spec]))
    out = tmp_path / "tags.tsv"
    assert run("tags", mgf, "-o", str(out)) == 0

    (parsed,) = parse_mgf((tmp_path / "mixed.mgf").read_text(encoding="utf-8"))
    index = extract_tags(preprocess(parsed), 0.5)
    tags = [index.tag(t) for t in range(len(index))]
    key = lambda t: (t.start_mz, t.residues, t.peak_indices)
    assert tags != sorted(tags, key=key)
    expected = [
        f"mixed\t{t.start_mz:.6f}\t{t.residues}\t{','.join(map(str, t.peak_indices))}"
        for t in sorted(tags, key=key)
    ]
    assert out.read_text().splitlines()[1:] == expected


class _RowCountingOutput(io.StringIO):
    rows = -1  # the header is not a row

    def write(self, text):
        self.rows += text.count("\n")
        return super().write(text)


def test_tags_writes_each_start_peak_as_it_goes(tmp_path, peptide_file, monkeypatch):
    mgf, _ = synth(tmp_path, peptide_file, "--noise", "40")
    out = _RowCountingOutput()
    pulled = []  # (spectrum, start peak) of each tag pulled from the index
    pending = []  # tags pulled but not yet written, at each pull

    class CountingIndex:
        def __init__(self, spec, tau):
            self.spec, self.index = spec, extract_tags(spec, tau)

        def __len__(self):
            return len(self.index)

        def tag(self, t):
            tag = self.index.tag(t)
            pulled.append((id(self.spec), tag.peak_indices[0]))
            pending.append(len(pulled) - out.rows)
            return tag

    monkeypatch.setattr(cli, "extract_tags", CountingIndex)
    monkeypatch.setattr(sys, "stdout", out)
    assert run("tags", str(mgf)) == 0
    assert out.rows == len(pulled)
    # A start peak's rows are written once the first tag of the next one has
    # been pulled, so at most two start peaks' tags are ever pending.
    groups = [len(list(g)) for _, g in groupby(pulled)]
    assert len(groups) > 10
    assert max(pending) <= max(a + b for a, b in zip(groups, groups[1:]))


def test_tags_too_few_peaks_gives_no_rows(tmp_path):
    mgf = write(
        tmp_path / "small.mgf",
        "BEGIN IONS\nTITLE=tiny\nPEPMASS=400\nCHARGE=2+\n100 1\n200 1\nEND IONS\n",
    )
    out = tmp_path / "tags.tsv"
    assert run("tags", mgf, "-o", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 1


def test_usage_errors_exit_one(tmp_path):
    assert run("sequence") == 1
    assert run("unknown-command") == 1
    assert run("sequence", "x.mgf", "--rates", "0.5,0.5") == 1
    assert run("sequence", "x.mgf", "--runs", "-1") == 1
    assert run("sequence", "x.mgf", "--jobs", "0") == 1
    assert run("sequence", "x.mgf", "--jobs", "-3") == 1
    assert run("synth", "x.txt", "-o", "x.mgf", "--tau", "0.3") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rates", "nan,0,0,1"], "operator rates must be finite and >= 0"),
        (["--tau", "nan"], "tau must be finite and positive, got nan"),
        (["--pool-size", "0"], "pool_size must be >= 1, got 0"),
        (["--population", "3"], "population must exceed elitism (3), got 3"),
    ],
    ids=["nan-rate", "nan-tau", "empty-pool", "population-at-elitism"],
)
def test_sequence_refuses_bad_ga_setting(
    tmp_path, peptide_file, capsys, flags, message
):
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "out.tsv"
    assert run("sequence", str(mgf), "--runs", "1", "-o", str(out), *flags) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("tournament", [31, 10**9])
def test_sequence_refuses_tournament_above_population(
    tmp_path, peptide_file, capsys, source, tournament
):
    # select_pools draws tournament_k entrants per winner, so 10**9 would
    # never finish a generation; it is refused before any run starts.
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "out.tsv"
    if source == "flag":
        options = ["--tournament", str(tournament)]
    else:
        options = ["--config", write(tmp_path / "run.cfg", f"tournament={tournament}\n")]
    argv = ["sequence", str(mgf), "--runs", "1", "--population", "30", "-o", str(out)]
    assert run(*argv, *options) == 2
    message = f"error: tournament_k must be <= population (30), got {tournament}"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "tags"])
@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_non_finite_tau_errors(tmp_path, peptide_file, capsys, command, tau):
    mgf, _ = synth(tmp_path, peptide_file)
    out = str(tmp_path / "out")
    output = [out] if command == "preprocess" else ["-o", out]
    assert run(command, str(mgf), *output, "--tau", tau) == 2
    message = f"error: tolerance must be finite and positive, got {tau}"
    assert message in capsys.readouterr().err


def test_config_file_precedence(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(tmp_path / "run.cfg", "generations=2\nseed=9\nruns=2\n")
    out_cfg = tmp_path / "cfg.tsv"
    assert run("sequence", str(mgf), "--config", str(config), "-o", str(out_cfg)) == 0
    rows = out_cfg.read_text().strip().splitlines()[1:]
    assert len(rows) == 4  # runs=2 from file
    assert all(r.split("\t")[7] == "2" for r in rows)
    # flag overrides the file
    out_flag = tmp_path / "flag.tsv"
    assert run(
        "sequence", str(mgf), "--config", str(config),
        "--generations", "1", "-o", str(out_flag),
    ) == 0
    assert all(
        r.split("\t")[7] == "1"
        for r in out_flag.read_text().strip().splitlines()[1:]
    )


# Per option: the subcommand that takes its flag, a text, and its value.
OPTION_TEXTS = {
    "seed": ("sequence", "abc", "abc"),
    "runs": ("sequence", "4", 4),
    "generations": ("sequence", "7", 7),
    "population": ("sequence", "40", 40),
    "pool_size": ("sequence", "80", 80),
    "tournament": ("sequence", "5", 5),
    "tau": ("sequence", "0.3", 0.3),
    "rates": ("sequence", "0.1, 0.2,0.3,0.4", (0.1, 0.2, 0.3, 0.4)),
    "jobs": ("sequence", "2", 2),
    "dropout": ("synth", "0.25", 0.25),
    "noise": ("synth", "12", 12),
}


def test_option_texts_cover_every_option():
    assert OPTION_TEXTS.keys() == cli._OPTIONS.keys()


@pytest.mark.parametrize("key", OPTION_TEXTS)
def test_flag_and_config_line_parse_alike(tmp_path, key):
    command, text, value = OPTION_TEXTS[key]
    config = write(tmp_path / "run.cfg", f"{key}={text}\n")
    base = [command, "in", "-o", "out"]
    parser = cli.build_parser()
    from_flag = parser.parse_args([*base, "--" + key.replace("_", "-"), text])
    from_config = parser.parse_args([*base, "--config", config])
    assert cli._effective_options(from_flag)[key] == value
    assert cli._effective_options(from_config)[key] == value


def test_config_file_unknown_key(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(tmp_path / "bad.cfg", "bogus=1\n")
    assert run("sequence", str(mgf), "--config", str(config)) == 2


# A UTF-8 byte-order mark, as some editors write it, ahead of each input kind.
BOM = "\ufeff"


def test_sequence_reads_an_mgf_that_starts_with_a_bom(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    marked = write(tmp_path / "bom.mgf", BOM + mgf.read_text(encoding="utf-8"))
    outputs = []
    for source in (str(mgf), marked):
        out = tmp_path / "out.tsv"
        assert run(
            "sequence", source, "--runs", "1", "--generations", "0", "-o", str(out)
        ) == 0
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[1] == outputs[0]
    assert [row.split("\t")[0] for row in outputs[1].splitlines()[1:]] == [
        "synth-00000",
        "synth-00001",
    ]


def test_evaluate_reads_a_truth_file_that_starts_with_a_bom(tmp_path):
    text = "spectrum_id\tpeptide\ns1\tLGVTLYK\n"
    results = write(
        tmp_path / "r.tsv", "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\n"
    )
    reports = []
    for name, truth_text in (("t.tsv", text), ("bom.tsv", BOM + text)):
        report = tmp_path / f"{name}.metrics"
        truth = write(tmp_path / name, truth_text)
        assert run("evaluate", results, truth, "-o", str(report)) == 0
        reports.append(report.read_text(encoding="utf-8"))
    assert reports[1] == reports[0]
    assert "\n0\t1.000000\t1.000000\t1.000000\t" in reports[1]


def test_config_file_that_starts_with_a_bom(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(tmp_path / "bom.cfg", BOM + "runs=2\ngenerations=1\n")
    out = tmp_path / "out.tsv"
    assert run("sequence", str(mgf), "--config", config, "-o", str(out)) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 4  # runs=2 from the file's first line
    assert all(row.split("\t")[7] == "1" for row in rows)


# Each input kind with a byte that is not UTF-8 on its second line, as the
# argv position "{bad}"; one case puts a byte-order mark ahead of the file.
@pytest.mark.parametrize(
    "argv, mark",
    [
        (("sequence", "{bad}", "--runs", "1"), b""),
        (("sequence", "{bad}", "--runs", "1"), BOM.encode("utf-8")),
        (("tags", "{bad}"), b""),
        (("preprocess", "{bad}", "{out}"), b""),
        (("evaluate", "{bad}", "{truth}"), b""),
        (("evaluate", "{results}", "{bad}"), b""),
        (("synth", "{bad}", "-o", "{out}"), b""),
        (("sequence", "{mgf}", "--runs", "1", "--config", "{bad}"), b""),
    ],
    ids=[
        "sequence",
        "sequence-bom",
        "tags",
        "preprocess",
        "evaluate-results",
        "evaluate-truth",
        "synth",
        "config",
    ],
)
def test_input_that_is_not_utf8_is_named_at_its_line(
    tmp_path, peptide_file, capsys, argv, mark
):
    mgf, truth = synth(tmp_path, peptide_file)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(mark + b"BEGIN IONS\nTITLE=caf\xe9 \xff\nEND IONS\n")
    results = write(
        tmp_path / "r.tsv", "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tGK\n"
    )
    paths = {
        "bad": str(bad),
        "mgf": str(mgf),
        "truth": str(truth),
        "results": results,
        "out": str(tmp_path / "out"),
    }
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}:2: byte 0xe9 is not UTF-8")


@pytest.mark.parametrize(
    "argv",
    [
        ("tags", "{bad}"),
        ("evaluate", "{bad}", "{truth}"),
        ("evaluate", "{results}", "{bad}"),
        ("synth", "{bad}", "-o", "{out}"),
        ("sequence", "{mgf}", "--runs", "1", "--config", "{bad}"),
    ],
    ids=["mgf", "results", "truth", "peptides", "config"],
)
@pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_bad_byte_is_named_at_its_line_under_either_line_ending(
    tmp_path, peptide_file, capsys, argv, ending
):
    # Lines end at "\n", "\r\n" or "\r"; the byte 0xff is on line 5.
    mgf, truth = synth(tmp_path, peptide_file)
    lines = ["BEGIN IONS", "TITLE=a", "PEPMASS=500", "CHARGE=2+", "150.0 1.0", "END IONS"]
    bad = tmp_path / "bad.txt"
    text = ending.join(lines) + ending
    bad.write_bytes(text.encode("utf-8").replace(b"150.0", b"150.\xff0"))
    results = write(
        tmp_path / "r.tsv", "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tGK\n"
    )
    paths = {
        "bad": str(bad),
        "mgf": str(mgf),
        "truth": str(truth),
        "results": results,
        "out": str(tmp_path / "out"),
    }
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:5: byte 0xff is not UTF-8")


@pytest.mark.parametrize(
    "inside", ["\x0c", "\u2028", "\x0b", "\x1c", "\x85"],
    ids=["form-feed", "line-separator", "vertical-tab", "file-separator", "next-line"],
)
def test_title_may_hold_a_character_that_ends_no_line(tmp_path, peptide_file, inside):
    # str.splitlines would end a line at each of these characters, and read
    # the rest of the title as a malformed peak line.
    mgf, _ = synth(tmp_path, peptide_file)
    text = mgf.read_text(encoding="utf-8")
    title = f"first{inside}half"
    renamed = text.replace("TITLE=synth-00000", f"TITLE={title}")
    spectra, plain = parse_mgf(renamed), parse_mgf(text)
    assert [spec.title for spec in spectra] == [title, "synth-00001"]
    assert spectra[1:] == plain[1:]
    assert spectra[0].peaks == plain[0].peaks
    outputs = []
    for name, body in (("plain.mgf", text), ("renamed.mgf", renamed)):
        out = tmp_path / f"{name}.tags"
        assert run("tags", write(tmp_path / name, body), "-o", str(out)) == 0
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[1] == outputs[0].replace("synth-00000\t", f"{title}\t")


@pytest.mark.parametrize("command", ["preprocess", "tags", "sequence"])
def test_mgf_error_names_its_path_and_line(tmp_path, capsys, command):
    mgf = write(
        tmp_path / "bad.mgf", "BEGIN IONS\nPEPMASS=500\nCHARGE=2+\n150.0\nEND IONS\n"
    )
    out = str(tmp_path / "out")
    assert run(command, mgf, *([out] if command == "preprocess" else ["-o", out])) == 2
    assert capsys.readouterr().err == f"error: {mgf}:4: malformed peak line '150.0'\n"


EVALUATE_INPUTS = {
    "results": "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\n",
    "truth": "spectrum_id\tpeptide\ns1\tLGVTLYK\n",
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "no header row (the file is empty or all comments)"),
        ("# nothing\n\n  \n", "no header row (the file is empty or all comments)"),
        ("header\n  # no rows\n", "no rows under the header"),
    ],
    ids=["empty", "comments", "header-only"],
)
@pytest.mark.parametrize("which", EVALUATE_INPUTS)
def test_tsv_without_rows_is_named_by_its_path(tmp_path, capsys, which, text, message):
    files = dict(EVALUATE_INPUTS)
    files[which] = text.replace("header", files[which].partition("\n")[0])
    paths = {name: write(tmp_path / f"{name}.tsv", body) for name, body in files.items()}
    assert run("evaluate", paths["results"], paths["truth"]) == 2
    assert capsys.readouterr().err == f"error: {paths[which]}: {message}\n"


def evaluate_report(tmp_path, name, results, truth):
    results, truth = (
        write(tmp_path / f"{name}.{kind}.tsv", text)
        for kind, text in (("results", results), ("truth", truth))
    )
    report = tmp_path / f"{name}.report"
    assert run("evaluate", results, truth, "-o", str(report)) == 0
    return report.read_text(encoding="utf-8")


def test_indented_comment_lines_are_skipped_in_results_and_truth(tmp_path):
    results = "spectrum_id\trun_index\tpredicted_peptide\ns1\t0\tLGVTLYK\ns2\t0\tAAAK\n"
    truth = "spectrum_id\tpeptide\ns1\tLGVTLYK\ns2\tAAAK\n"
    plain = evaluate_report(tmp_path, "plain", results, truth)
    noted = evaluate_report(
        tmp_path,
        "noted",
        results.replace("\ns2", "\n  # s1 ran once\ns2"),
        "\t# from synth\n" + truth.replace("\ns2", "\n \t#x\ns2"),
    )
    assert noted == plain
    assert "\n0\t1.000000\t1.000000\t1.000000\t" in plain


@given(st.text(min_size=1).filter(lambda sid: not set(sid) & set("\t\r\n")))
def test_tsv_ids_refuses_exactly_the_ids_whose_rows_are_comments(sid):
    row = f"{sid}\t0\tGK"
    skipped = not list(content_lines([row]))
    try:
        cli._tsv_ids([make_spectrum(sid, 500.0, 2, [150.0], [1.0])], "in.mgf")
    except ValueError:
        assert skipped
    else:
        assert not skipped


def test_synth_config_refuses_options_synth_does_not_take(tmp_path, peptide_file, capsys):
    config = write(tmp_path / "synth.cfg", "seed=3\ntau=nan\njobs=4\n")
    out = tmp_path / "out.mgf"
    assert run("synth", peptide_file, "-o", str(out), "--config", config) == 2
    message = f"error: {config}:2: option 'tau' does not apply to synth"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["noise=5", "dropout=0.1"])
def test_sequence_config_refuses_synth_options(tmp_path, peptide_file, capsys, line):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(tmp_path / "run.cfg", f"runs=1\n{line}\n")
    assert run("sequence", str(mgf), "--config", config) == 2
    key = line.partition("=")[0]
    message = f"error: {config}:2: option {key!r} does not apply to sequence"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["jobs=0", "runs=-2", "rates=1,2"])
def test_config_file_count_below_minimum_errors(tmp_path, peptide_file, capsys, line):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(
        tmp_path / "bad.cfg", f"generations=0\npool_size=5\npopulation=4\n{line}\n"
    )
    assert run("sequence", str(mgf), "--config", config) == 2
    assert f"error: {config}:4: " in capsys.readouterr().err
