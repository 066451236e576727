"""Mutated results and truth TSVs through `evaluate`.

Each mutation starts from a valid results/truth pair and deletes,
duplicates, swaps or cuts lines, inserts an indented comment, drops a cell,
or puts an odd value, a form feed or U+2028 into a cell; each file's lines
end at "\n", "\r\n" or "\r", one example in twenty also gets a byte that is
not UTF-8, and --tau is drawn from valid and invalid values. `evaluate` must
end with exit code 0 or 2 within 2 s, and an exit 2 for a fault in a file
must name that file. An exception that leaves ``main`` fails the test, and
so does a warning, which ``filterwarnings = error`` turns into one.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopep.cli import SEQUENCE_COLUMNS, main

RESULTS = [
    "\t".join(SEQUENCE_COLUMNS),
    "synth-00000\t0\tLGVTLYK\t0.912000\t0.800000\t0.750000\t0.000000\t50",
    "synth-00000\t1\tGLVTLYK\t0.701000\t0.600000\t0.700000\t0.000000\t50",
    "synth-00001\t0\tAAALAAADAR\t0.880000\t0.900000\t0.850000\t0.000000\t50",
    "synth-00001\t1\tAAALAADAAR\t0.640000\t0.500000\t0.600000\t0.020000\t42",
]
TRUTH = [
    "# spectrum_id\tpeptide",
    "spectrum_id\tpeptide",
    "synth-00000\tLGVTLYK",
    "synth-00001\tAAALAAADAR",
]

ODD_VALUES = ["", "nan", "-1", "9" * 400, "#x", "X", "\t", "\ufeff"]
# Characters that str.splitlines, but no input reader, ends a line at.
INSIDE = ["\x0c", "\u2028"]
COMMENTS = ["  # indented", "\t#x"]
ENDINGS = ["\n", "\r\n", "\r"]
TAUS = ["0.5", "nan", "-1", "inf", "1e308"]


def encode(lines: list[str], ending: str = "\n") -> bytes:
    return (ending.join(lines) + ending).encode("utf-8")


@st.composite
def mutated_pair(draw) -> tuple[bytes, bytes]:
    files = [list(RESULTS), list(TRUTH)]
    for _ in range(draw(st.integers(1, 4))):
        lines = files[draw(st.integers(0, 1))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "cut", "comment", "drop", "value", "inside"]
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
        elif kind == "comment":
            lines.insert(i, draw(st.sampled_from(COMMENTS)))
        else:
            cells = lines[i].split("\t")
            k = draw(st.integers(0, len(cells) - 1))
            if kind == "drop":
                del cells[k]
            elif kind == "value":
                cells[k] = draw(st.sampled_from(ODD_VALUES))
            else:
                at = draw(st.integers(0, len(cells[k])))
                cells[k] = cells[k][:at] + draw(st.sampled_from(INSIDE)) + cells[k][at:]
            lines[i] = "\t".join(cells)
    data = [encode(lines, draw(st.sampled_from(ENDINGS))) for lines in files]
    if draw(st.integers(0, 19)) == 0:
        which = draw(st.integers(0, 1))
        at = draw(st.integers(0, len(data[which])))
        data[which] = data[which][:at] + b"\xff" + data[which][at:]
    return data[0], data[1]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("tsv_fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_pair(), st.sampled_from(TAUS))
@example((encode(RESULTS), encode(TRUTH)), "0.5")
def test_evaluate_exits_0_or_2_on_mutated_tsvs(work, pair, tau):
    results, truth, out = work / "results.tsv", work / "truth.tsv", work / "out.tsv"
    results.write_bytes(pair[0])
    truth.write_bytes(pair[1])
    argv = ["evaluate", str(results), str(truth), "--tau", tau, "-o", str(out)]
    start = perf_counter()
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(argv)
    assert perf_counter() - start < 2.0, argv
    assert code in (0, 2), argv
    if code == 2:
        message = err.getvalue().splitlines()[-1]
        if not message.startswith("error: tau must be finite and positive"):
            assert message.startswith((f"error: {results}:", f"error: {truth}:")), argv
