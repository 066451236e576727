import logging
import os

import pytest

from evopep.cli import SEQUENCE_COLUMNS, main
from evopep.engine import GaConfig, evolve
from evopep.spectrum import emit_mgf, make_spectrum, parse_mgf
from evopep.tags import extract_tags


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
    assert cfg.rate_flip == 0.10
    assert cfg.rate_conflict == 0.15
    assert cfg.rate_two_point_cx == 0.35
    assert cfg.rate_nterm_cterm_cx == 0.40
    assert cfg.elitism == 3
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


def test_sequence_memo_shared_by_runs_and_freed(tmp_path, peptide_file, monkeypatch):
    import evopep.cli
    import evopep.tags

    calls = []
    extracted = []

    def spy(spec, cfg):
        calls.append((spec, len(spec.scores)))
        return evolve(spec, cfg)

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
    # The second run of each spectrum starts from the first run's scores and
    # tags, and both memos are emptied after the spectrum's last run.
    assert [size > 0 for _, size in calls] == [False, True, False, True]
    assert extracted == ["synth-00000", "synth-00001"]
    assert all(spec.scores == {} for spec, _ in calls)
    assert all(spec.tag_residues == {} for spec, _ in calls)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its tasks, runs them here."""

    started = []

    def __init__(self, max_workers):
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

    monkeypatch.setattr(evopep.cli, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.started.clear()
    assert run(
        "sequence", str(mgf), "--runs", "4", "--generations", "2", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    assert [task[4] for task in pool.tasks] == [range(0, 2), range(2, 4)]


@pytest.mark.parametrize(
    "peptides, blocks",
    [("LGVTLYK\nAAALAAADAR\n", 1), ("LGVTLYK\nAAALAAADAR\nGGK\n", 2)],
)
def test_sequence_task_count_is_multiple_of_jobs(
    tmp_path, monkeypatch, peptides, blocks
):
    import evopep.cli

    mgf, _ = synth(tmp_path, write(tmp_path / "peps.txt", peptides))
    monkeypatch.setattr(evopep.cli, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.started.clear()
    assert run(
        "sequence", str(mgf), "--runs", "4", "--generations", "1", "--jobs", "2",
        "-o", str(tmp_path / "r.tsv"),
    ) == 0
    (pool,) = _RecordingPool.started
    # Two spectra fill two workers whole; three are split into two blocks
    # each, so each worker gets six runs rather than one getting eight.
    assert len(pool.tasks) % 2 == 0
    assert [(task[3], len(task[4])) for task in pool.tasks] == [
        (spec, 4 // blocks)
        for spec in range(peptides.count("\n"))
        for _ in range(blocks)
    ]


def test_sequence_zero_runs_starts_no_pool(tmp_path, peptide_file, monkeypatch):
    import evopep.cli

    monkeypatch.setattr(evopep.cli, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.started.clear()
    mgf, _ = synth(tmp_path, peptide_file)
    out = tmp_path / "r.tsv"
    assert run("sequence", str(mgf), "--runs", "0", "--jobs", "2", "-o", str(out)) == 0
    assert _RecordingPool.started == []
    assert out.read_text().splitlines() == ["\t".join(SEQUENCE_COLUMNS)]


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
               "--pool-size", "5", "--population", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert "error: line " in err and "must be finite" in err
    assert "Traceback" not in err


def test_sequence_repeated_title_errors(tmp_path, peptide_file, capsys):
    mgf, _ = synth(tmp_path, peptide_file)
    twice = write(tmp_path / "twice.mgf", mgf.read_text() * 2)
    assert run("sequence", twice, "--runs", "1", "--generations", "0") == 2
    assert "spectrum id 'synth-00000' is repeated" in capsys.readouterr().err


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
    ],
    ids=["short-row", "non-integer-run", "repeated-row"],
)
def test_evaluate_malformed_results_row_errors(tmp_path, capsys, rows, where):
    truth = write(tmp_path / "t.tsv", "spectrum_id\tpeptide\ns1\tLGVTLYK\n")
    header = "spectrum_id\trun_index\tpredicted_peptide\n"
    results = write(tmp_path / "r.tsv", header + rows)
    assert run("evaluate", results, truth) == 2
    assert where in capsys.readouterr().err


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


def test_preprocess_no_complements_smaller(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file, "--dropout", "0.3")
    with_c = tmp_path / "with.mgf"
    without_c = tmp_path / "without.mgf"
    assert run("preprocess", str(mgf), str(with_c)) == 0
    assert run("preprocess", str(mgf), str(without_c), "--no-complements") == 0
    count = lambda p: p.read_text().count("\n")
    assert count(without_c) < count(with_c)


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


def test_config_file_unknown_key(tmp_path, peptide_file):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(tmp_path / "bad.cfg", "bogus=1\n")
    assert run("sequence", str(mgf), "--config", str(config)) == 2


@pytest.mark.parametrize("line", ["jobs=0", "runs=-2"])
def test_config_file_count_below_minimum_errors(tmp_path, peptide_file, capsys, line):
    mgf, _ = synth(tmp_path, peptide_file)
    config = write(
        tmp_path / "bad.cfg", f"generations=0\npool_size=5\npopulation=4\n{line}\n"
    )
    assert run("sequence", str(mgf), "--config", config) == 2
    assert f"error: {config}:4: " in capsys.readouterr().err
