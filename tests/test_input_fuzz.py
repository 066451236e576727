"""Mutated config files and peptide lists through the commands that read them.

A config file is a few lines drawn from: every option, an unknown key and a
repeated key; a line without '=', one with '=' and no value, a comment and a
blank line; and values that include nan, inf, 1e308, -1 and 400 nines for
every option. A flag keeps each GA option that the file leaves unset small.
A peptide list is a few lines of upper- and lower-case residues, 'I', one
residue, comments and blank lines, or nothing.
Lines end at "\\n", "\\r\\n" or "\\r". Every example must end within 2 s with
exit code 0 or 2, or 1 with a usage message, and never with an exception out
of ``main``; an exit 2 from `synth` must name the peptide list.
"""

import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopep.cli import _OPTIONS, SEQUENCE_COLUMNS, main
from evopep.evaluation import SynthConfig, synthesize_spectrum
from evopep.spectrum import emit_mgf

ENDINGS = ["\n", "\r\n", "\r"]

# Values each option takes, small enough that a run ends at once; the GA
# options that a command sets by flag take the first of these.
VALID = {
    "seed": ["7", "abc"],
    "runs": ["1", "0", "2"],
    "generations": ["1", "0", "2"],
    "population": ["6", "4", "3"],
    "pool_size": ["5", "1"],
    "tau": ["0.5", "0.05", "1e308"],
    "jobs": ["1"],
    "dropout": ["0", "0.5", "1"],
    "noise": ["0", "5"],
}
ODD = ["nan", "inf", "-inf", "1e308", "-1", "0", "", "abc", "9" * 400]
# Each command, its file arguments, and the options it takes.
COMMANDS = {
    "sequence": (
        ["in.mgf", "-o", "out"],
        ["seed", "runs", "generations", "population", "pool_size", "tau", "jobs"],
    ),
    "synth": (["peptides.txt", "-o", "out"], ["seed", "dropout", "noise"]),
    "preprocess": (["in.mgf", "out"], ["tau"]),
    "tags": (["in.mgf", "-o", "out"], ["tau"]),
    "evaluate": (["results.tsv", "truth.tsv", "-o", "out"], ["tau"]),
}
# The options whose defaults would make a run of `sequence` take seconds.
SHORT_RUN = ["runs", "generations", "population", "pool_size"]

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
PEPTIDE_LINES = st.one_of(
    st.text(RESIDUES + RESIDUES.lower(), max_size=14),
    st.sampled_from(["I", "i", "G", "k", "AI", " LGVTLYK ", "\tAAK", "X", "LGV TLYK"]),
    st.sampled_from(["", "  ", "# peptides", "  # indented"]),
)


@st.composite
def config_file(draw) -> tuple[str, bytes]:
    """A command and a config file for it."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    own = COMMANDS[command][1]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["own"] * 8 + ["odd", "unknown", "repeat", "bare"]))
        if kind == "own":
            key = draw(st.sampled_from(own))
            value = draw(st.sampled_from(VALID[key]))
        else:
            key = draw(st.sampled_from([*VALID, "pool-size"]))
            value = draw(st.sampled_from(ODD))
        if kind == "unknown":
            key = draw(st.sampled_from(["bogus", "Seed", "", "# note", "  # indented"]))
        if kind == "repeat" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif kind == "bare":
            lines.append(draw(st.sampled_from([key, f"{key}=", "=1", ""])))
        else:
            spaces = draw(st.sampled_from(["", " "]))
            lines.append(f"{key}{spaces}={spaces}{value}")
    ending = draw(st.sampled_from(ENDINGS))
    return command, (ending.join(lines) + ending).encode("utf-8")


@st.composite
def peptide_list(draw) -> bytes:
    lines = draw(st.lists(PEPTIDE_LINES, max_size=5))
    ending = draw(st.sampled_from(ENDINGS))
    return "".join(line + ending for line in lines).encode("utf-8")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("input_fuzz")
    (work / "in.mgf").write_text(emit_mgf([
        synthesize_spectrum(peptide, SynthConfig(noise_peaks=5), random.Random(index))
        for index, peptide in enumerate(["LGVTLYK", "AAALAAADAR"])
    ]), encoding="utf-8")
    (work / "peptides.txt").write_text("LGVTLYK\nAAALAAADAR\n", encoding="utf-8")
    (work / "results.tsv").write_text(
        "\t".join(SEQUENCE_COLUMNS) + "\n"
        "s1\t0\tLGVTLYK\t0.9\t0.8\t0.7\t0.0\t50\n",
        encoding="utf-8",
    )
    (work / "truth.tsv").write_text("spectrum_id\tpeptide\ns1\tLGVTLYK\n", "utf-8")
    return work


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and its stderr, within 2 s."""
    err = StringIO()
    start = perf_counter()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(argv)
    assert perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    if code == 1:
        assert "usage:" in err.getvalue(), argv
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config_file())
@example(("sequence", b"runs=1\nrates=1,1,1,1\n"))
@example(("sequence", b"seed=1\nseed=2\ntau=\n"))
@example(("synth", b"noise=" + b"9" * 400 + b"\n"))
def test_commands_exit_0_1_or_2_on_a_mutated_config_file(work, drawn):
    command, data = drawn
    config = work / "fuzz.cfg"
    config.write_bytes(data)
    files, own = COMMANDS[command]
    argv = [command, *(arg if arg == "-o" else str(work / arg) for arg in files)]
    lines = data.decode("utf-8").replace("\r", "\n").split("\n")
    keys = {line.partition("=")[0].strip().replace("-", "_") for line in lines}
    for key in SHORT_RUN:
        if key in own and key not in keys:
            argv += ["--" + key.replace("_", "-"), VALID[key][0]]
    run_main([*argv, "--config", str(config)])


def test_every_option_is_fuzzed():
    assert VALID.keys() == _OPTIONS.keys()
    assert {key for _, keys in COMMANDS.values() for key in keys} == VALID.keys()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(peptide_list(), st.sampled_from([[], ["--noise", "5"], ["--dropout", "0.5"]]))
@example(b"", [])
@example(b"i\rLGVTLYKi\r", [])
def test_synth_exits_0_or_2_on_a_mutated_peptide_list(work, data, flags):
    peptides = work / "fuzz.txt"
    peptides.write_bytes(data)
    out = work / "fuzz.mgf"
    code, err = run_main(["synth", str(peptides), "-o", str(out), *flags])
    assert code in (0, 2)
    if code == 2:
        assert err.splitlines()[-1].startswith(f"error: {peptides}:")
