"""Mutated MGF files through every command that reads one.

Each mutation starts from a valid 2-record MGF and deletes, duplicates,
swaps or cuts lines, inserts stray ``BEGIN IONS``/``END IONS`` lines or an
indented comment, puts an odd value into a header or a peak, or a form feed
or U+2028 inside a line; the lines end at "\n", "\r\n" or "\r". Every
command must end with exit code 0 or 2 within 2 s, and an exit 2 for a fault
in the file must name the file. An exception that leaves ``main`` fails the
test, and so does a numpy warning, which ``filterwarnings = error`` turns
into one.
"""

import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopep.cli import main
from evopep.evaluation import SynthConfig, synthesize_spectrum
from evopep.spectrum import emit_mgf

LINES = emit_mgf([
    synthesize_spectrum(peptide, SynthConfig(noise_peaks=5), random.Random(index))
    for index, peptide in enumerate(["LGVTLYK", "AAALAAADAR"])
]).splitlines()
VALID = ("\n".join(LINES) + "\n").encode("utf-8")

ODD_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "9" * 400, "2+ and 3+", "",
]
# Characters that str.splitlines, but no input reader, ends a line at.
INSIDE = ["\x0c", "\u2028"]
COMMENTS = ["  # indented", "\t#x"]
ENDINGS = ["\n", "\r\n", "\r"]

COMMANDS = [
    ["preprocess", "{mgf}", "{out}"],
    ["tags", "{mgf}", "-o", "{out}"],
    ["sequence", "{mgf}", "--runs", "0", "-o", "{out}"],
    [
        "sequence", "{mgf}", "--runs", "1", "--generations", "1", "--population", "6",
        "--pool-size", "5", "--tournament", "2", "-o", "{out}",
    ],
]


def with_value(line: str, value: str, field: int) -> str:
    """``line`` with ``value`` in place of a header's value or a peak field."""
    if "=" in line:
        return line.partition("=")[0] + "=" + value
    parts = line.split()
    if not parts:
        return value
    parts[field % len(parts)] = value
    return " ".join(parts)


@st.composite
def mutated_mgf(draw) -> bytes:
    lines = list(LINES)
    for _ in range(draw(st.integers(1, 4))):
        # At most four of the 51 lines are deleted, so some are always left.
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "cut", "stray", "value", "inside", "comment"]
        ))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif kind == "stray":
            lines.insert(i, draw(st.sampled_from(["BEGIN IONS", "END IONS"])))
        elif kind == "inside":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(INSIDE)) + lines[i][at:]
        elif kind == "comment":
            lines.insert(i, draw(st.sampled_from(COMMENTS)))
        else:
            value = draw(st.sampled_from(ODD_VALUES))
            lines[i] = with_value(lines[i], value, draw(st.integers(0, 1)))
    ending = draw(st.sampled_from(ENDINGS))
    data = (ending.join(lines) + ending).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_mgf())
@example(VALID.replace(b"TITLE=", b"TITLE=\xff", 1))
def test_commands_exit_0_or_2_on_a_mutated_mgf(work, data):
    mgf, out = work / "fuzz.mgf", work / "fuzz.out"
    mgf.write_bytes(data)
    start = perf_counter()
    for command in COMMANDS:
        argv = [arg.format(mgf=mgf, out=out) for arg in command]
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), argv
        if code == 2:
            message = err.getvalue().splitlines()[-1]
            if message != "error: all sequencing runs failed":
                assert message.startswith(f"error: {mgf}:"), argv
    assert perf_counter() - start < 2.0
