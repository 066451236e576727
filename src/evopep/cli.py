"""Command-line interface: preprocess, sequence, evaluate, synth, tags.

Configuration precedence is built-in defaults, then an optional key=value
config file, then command-line flags. All outputs are UTF-8 TSV with a header
row. Exit codes: 0 success, 1 usage error, 2 data error. Results are
deterministic for a fixed seed and input, independent of --jobs.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import random
import sys
from collections import Counter
from contextlib import AbstractContextManager, nullcontext
from dataclasses import fields
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, TextIO

from .chem import validate_peptide
from .engine import OPERATORS, EvolutionError, GaConfig, evolve, refusal
from .spectrum import (
    MgfParseError,
    PreprocessConfig,
    Spectrum,
    content_lines,
    emit_mgf,
    is_comment,
    parse_mgf,
    preprocess,
)
from .tags import extract_tags

if TYPE_CHECKING:  # the module loads only where a pool is made
    from concurrent.futures import Executor

logger = logging.getLogger(__name__)

SEQUENCE_COLUMNS = (
    "spectrum_id",
    "run_index",
    "predicted_peptide",
    "fitness",
    "nterm",
    "cterm",
    "delta_mass_da",
    "generations_used",
)


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse default is 2, reserved here for data).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _OptionError(ValueError, argparse.ArgumentTypeError):
    """A bad option value. argparse prints its message after the flag; for a
    plain ValueError it would print only "invalid <parser> value"."""


_RATE_NAMES = ",".join(op.replace("_", "-") for op in OPERATORS)


def _parse_rates(text: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(OPERATORS):
        raise _OptionError(
            f"rates must be {len(OPERATORS)} comma-separated numbers: {_RATE_NAMES}"
        )
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise _OptionError(str(exc)) from None


def _count(key: str, minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise _OptionError(str(exc)) from None
        if value < minimum:
            raise _OptionError(f"{key} must be >= {minimum}, got {value}")
        if value > sys.maxsize:  # no list holds more; `sequence` lists each run
            raise _OptionError(f"{key} must be at most {sys.maxsize}")
        return value

    return parse


class _Option(NamedTuple):
    default: object
    parse: Callable[[str], object]
    help: str


# Every option that a flag or a config-file line can set. Its flag is its key
# with "-" for "_", and a flag and a config line both go through ``parse``.
_OPTIONS = {
    "seed": _Option("0", str, "random seed (default 0)"),
    "runs": _Option(30, _count("runs", 0), "independent runs per spectrum"),
    "generations": _Option(GaConfig.generations, int, "GA generations"),
    "population": _Option(GaConfig.population, int, "GA population size"),
    "pool_size": _Option(GaConfig.pool_size, int, "initialization pool size"),
    "tournament": _Option(GaConfig.tournament_k, int, "tournament size"),
    "tau": _Option(GaConfig.tau, float, "fragment mass tolerance (Da)"),
    "rates": _Option(GaConfig.rates, _parse_rates, f"operator rates: {_RATE_NAMES}"),
    "jobs": _Option(1, _count("jobs", 1), "parallel worker count"),
    "dropout": _Option(0.0, float, "per-ion dropout probability"),
    "noise": _Option(0, int, "noise peaks per spectrum"),
}
_DEFAULTS = {key: option.default for key, option in _OPTIONS.items()}


def _load_config_file(path: str, command: str, keys: tuple[str, ...]) -> dict:
    """Options set by a config file for ``command``, which takes ``keys``."""
    values: dict = {}
    for number, line in content_lines(_lines(path)):
        key, equals, value = line.partition("=")
        if not equals:
            raise ValueError(f"{path}:{number}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{number}: unknown option {key!r}")
        if key not in keys:
            raise ValueError(
                f"{path}:{number}: option {key!r} does not apply to {command}"
            )
        try:
            values[key] = _OPTIONS[key].parse(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return values


def _effective_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (in that order)."""
    options = dict(_DEFAULTS)
    if args.config:
        options.update(_load_config_file(args.config, args.command, args.option_keys))
    for key in args.option_keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            options[key] = flag_value
    return options


def _ga_config(options: dict) -> GaConfig:
    return GaConfig(
        pool_size=options["pool_size"],
        population=options["population"],
        generations=options["generations"],
        tournament_k=options["tournament"],
        rates=options["rates"],
        tau=options["tau"],
    )


def _lines(path: str) -> list[str]:
    """The lines of the input file at ``path``, the one place input is read.

    A line ends at "\n", "\r\n" or "\r", and a UTF-8 byte-order mark, which
    some editors write, is dropped rather than read as part of the first line.
    Every line is decoded before any is returned, so a byte that is not UTF-8
    is reported, at the line it is on, ahead of any other error in the file.
    """
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    lines = []
    for number, line in enumerate(data.splitlines(), start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}:{number}: byte 0x{line[exc.start]:02x} is not UTF-8 "
                f"({exc.reason})"
            ) from None
    return lines


def _tsv_rows(path: str, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(line, cells) for each row of the TSV at ``path``, where ``cells`` are
    the row's values of ``columns``, which its header row names in any order.
    A row with fewer fields than the header, a header without one of
    ``columns`` and a file without a header or a row are refused."""
    rows = content_lines(_lines(path))
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{path}: no header row (the file is empty or all comments)")
    number, line = first
    header = line.split("\t")
    missing = [name for name in columns if name not in header]
    if missing:
        raise ValueError(f"{path}:{number}: header {line!r} lacks columns {missing}")
    where = [header.index(name) for name in columns]
    header_number = number
    for number, line in rows:
        cells = line.split("\t")
        if len(cells) < len(header):
            raise ValueError(
                f"{path}:{number}: {len(cells)} fields, header has {len(header)}"
            )
        yield number, [cells[i] for i in where]
    if number == header_number:
        raise ValueError(f"{path}: no rows under the header")


def _open_output(path: str | None) -> AbstractContextManager[TextIO]:
    if path and path != "-":
        return open(path, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _write_output(text: str, path: str | None) -> None:
    with _open_output(path) as out:
        out.write(text)


def _tsv_ids(spectra: list[Spectrum], path: str) -> list[str]:
    """The id of each spectrum in ``path``, for the rows of an output TSV.

    An id that is repeated, is a comment by ``is_comment`` or holds a tab is
    refused: a reader could not tell its rows apart, or would skip them as
    comments or read them as shifted columns.
    """
    ids = [spec.title or f"spectrum_{index}" for index, spec in enumerate(spectra)]
    repeated = [sid for sid, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"{path}: spectrum id {repeated[0]!r} is repeated")
    for sid in ids:
        if is_comment(sid) or "\t" in sid:
            raise ValueError(
                f"{path}: spectrum id {sid!r} cannot be a TSV id "
                "(it starts with '#' or contains a tab)"
            )
    return ids


def _spectra(path: str, tau: float) -> Iterator[tuple[str, Spectrum, Spectrum]]:
    """(id, raw, preprocessed) for each spectrum of the MGF at ``path``.

    The file is parsed and every id checked before this returns, so a
    command refuses a bad file before it writes anything. Each spectrum is
    preprocessed only when it is reached.
    """
    try:
        spectra = parse_mgf(_lines(path))
    except MgfParseError as exc:
        raise ValueError(f"{path}:{exc.line_number}: {exc.reason}") from None
    ids = _tsv_ids(spectra, path)
    cfg = PreprocessConfig(tolerance=tau)
    return ((sid, spec, preprocess(spec, cfg)) for sid, spec in zip(ids, spectra))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    processed = []
    for sid, raw, out in _spectra(args.input, options["tau"]):
        processed.append(out)
        print(f"{sid}\t{len(raw.mz)}\t{len(out.mz)}")
    Path(args.output).write_text(emit_mgf(processed), encoding="utf-8")
    return 0


def _sequence_job(task: tuple[Spectrum, GaConfig, str, int, int, str]) -> str | None:
    """The result row of run ``run_index`` of spectrum ``spec_index``, or
    None if the run failed.

    The run is seeded with ``f"{seed}|{spec_index}|{run_index}"``, so its row
    does not depend on the task order or on ``--jobs``.
    """
    spec, cfg, seed, spec_index, run_index, spectrum_id = task
    try:
        result = evolve(spec, cfg, random.Random(f"{seed}|{spec_index}|{run_index}"))
    except EvolutionError as exc:
        logger.warning(
            "sequencing failed for %s run %d: %s", spectrum_id, run_index, exc
        )
        return None
    best = result.best
    return (
        f"{spectrum_id}\t{run_index}\t{best.peptide}\t{best.fitness:.6f}"
        f"\t{best.nterm}\t{best.cterm}\t{best.delta_mass:.6f}"
        f"\t{result.generations_used}"
    )


def _process_pool(max_workers: int) -> Executor:
    """A pool of ``max_workers`` processes. Its module, which loads
    ``multiprocessing``, is imported here, so a run without a pool never
    loads it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def cmd_sequence(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    ga = _ga_config(options)
    spectra = list(_spectra(args.input, ga.tau))
    runs, jobs, seed = options["runs"], options["jobs"], options["seed"]
    tasks = []
    for index, (sid, _, spec) in enumerate(spectra):
        if reason := refusal(spec, ga.tau):
            logger.warning("skipping %s: %s", sid, reason)
        else:
            tasks += [(spec, ga, seed, index, run, sid) for run in range(runs)]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import BrokenExecutor

        try:
            # The pool forks all its workers at the first submit.
            with _process_pool(min(jobs, len(tasks))) as pool:
                results = list(pool.map(_sequence_job, tasks))
        except BrokenExecutor as exc:
            # A worker died (killed, or out of memory): main exits 2.
            raise EvolutionError(f"worker pool broke: {exc}") from exc
    else:
        results = list(map(_sequence_job, tasks))
    rows = [row for row in results if row is not None]
    _write_output("\n".join(["\t".join(SEQUENCE_COLUMNS), *rows]) + "\n", args.output)
    if runs > 0 and spectra and not rows:
        print("error: all sequencing runs failed", file=sys.stderr)
        return 2
    return 0


def _read_results(path: str) -> tuple[dict[tuple[str, int], str], list[int]]:
    """Predictions keyed by (spectrum_id, run_index), plus the run list."""
    predictions: dict[tuple[str, int], str] = {}
    runs: set[int] = set()
    columns = ("spectrum_id", "run_index", "predicted_peptide")
    for number, (sid, run, peptide) in _tsv_rows(path, columns):
        try:
            run_index = int(run)
        except ValueError:
            raise ValueError(
                f"{path}:{number}: run_index {run!r} is not an integer"
            ) from None
        key = (sid, run_index)
        if key in predictions:
            raise ValueError(
                f"{path}:{number}: repeated row for spectrum {sid!r} run {run_index}"
            )
        if peptide:  # an empty prediction is a failed run
            try:
                validate_peptide(peptide)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
        predictions[key] = peptide
        runs.add(run_index)
    return predictions, sorted(runs)


def _read_truth(path: str) -> dict[str, str]:
    """The truth peptide of each spectrum id, in file order, from a TSV whose
    header names the columns spectrum_id and peptide; each id may appear
    once. Peptides are validated and canonicalized."""
    truth: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for number, (sid, peptide) in _tsv_rows(path, ("spectrum_id", "peptide")):
        if sid in truth:
            raise ValueError(
                f"{path}:{number}: spectrum id {sid!r} repeats line {first_line[sid]}"
            )
        first_line[sid] = number
        try:
            truth[sid] = validate_peptide(peptide)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return truth


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import Metrics, aggregate_runs, compute_metrics

    options = _effective_options(args)
    predictions, runs = _read_results(args.results)
    truth = _read_truth(args.truth)
    stray = sorted({sid for sid, _ in predictions} - truth.keys())
    if stray:
        logger.warning(
            "%d predicted spectrum id(s) missing from the truth file: %s",
            len(stray),
            ", ".join(stray[:5]),
        )
    # Metrics names and orders the columns: its rates, then the count.
    *rates, count = (f.name for f in fields(Metrics))
    per_run = []
    lines = [
        "# missing predictions count as empty sequences (recall is penalized)",
        "\t".join(["run_index", *rates, count]),
    ]
    for run_index in runs:
        pairs = [
            (predictions.get((sid, run_index), ""), peptide)
            for sid, peptide in truth.items()
        ]
        metrics = compute_metrics(pairs, tau=options["tau"])
        per_run.append(metrics)
        cells = (f"{getattr(metrics, name):.6f}" for name in rates)
        lines.append("\t".join([str(run_index), *cells, str(getattr(metrics, count))]))
    mean, std = aggregate_runs(per_run)
    cells = (f"{getattr(mean, name):.6f}±{getattr(std, name):.6f}" for name in rates)
    lines.append("\t".join(["aggregate", *cells, str(getattr(mean, count))]))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .evaluation import SynthConfig, synthesize_spectrum

    options = _effective_options(args)
    synth_cfg = SynthConfig(
        noise_peaks=options["noise"],
        dropout=options["dropout"],
    )
    truth_path = args.truth or str(Path(args.output).with_suffix(".truth.tsv"))
    # Writing both would leave only the truth. Path.resolve raises
    # RuntimeError on a symlink loop before Python 3.13; realpath does not.
    if os.path.realpath(truth_path) == os.path.realpath(args.output):
        raise ValueError(
            f"--truth {truth_path} and -o {args.output} are the same file"
        )
    spectra = []
    # The truth TSV that _read_truth reads: each spectrum's title and the
    # peptide as listed, upper-cased but not folded I to L.
    truth = ["spectrum_id\tpeptide"]
    for index, (number, line) in enumerate(content_lines(_lines(args.input))):
        peptide = line.strip()
        rng = random.Random(f"{options['seed']}|synth|{index}")
        title = f"synth-{index:05d}"
        try:
            spectra.append(synthesize_spectrum(peptide, synth_cfg, rng, title=title))
        except ValueError as exc:
            raise ValueError(f"{args.input}:{number}: {exc}") from None
        truth.append(f"{title}\t{peptide.upper()}")
    Path(args.output).write_text(emit_mgf(spectra), encoding="utf-8")
    Path(truth_path).write_text("\n".join(truth) + "\n", encoding="utf-8")
    return 0


def cmd_tags(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    spectra = _spectra(args.input, options["tau"])
    with _open_output(args.output) as out:
        out.write("spectrum_id\tstart_mz\tresidues\tpeak_indices\n")
        for spectrum_id, _, prepared in spectra:
            # The index lists tags by start peak, in ascending m/z, so sorting
            # one start peak at a time gives the rows of a sort by
            # (start_mz, ...). Rows are written as they come, so memory holds
            # at most one start peak's tags.
            tags = extract_tags(prepared, options["tau"])
            mz = prepared.mz.tolist()
            rows = map(tags.tag, range(len(tags)))
            for start, group in groupby(rows, key=lambda t: t.peak_indices[0]):
                for tag in sorted(group, key=lambda t: (t.residues, t.peak_indices)):
                    indices = ",".join(str(i) for i in tag.peak_indices)
                    out.write(
                        f"{spectrum_id}\t{mz[start]:.6f}"
                        f"\t{tag.residues}\t{indices}\n"
                    )
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_options(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Add --config and the flags of the options ``keys`` to a subcommand;
    its config file may set those options only."""
    parser.add_argument("--config", help="key=value config file")
    parser.set_defaults(option_keys=keys)
    for key in keys:
        option = _OPTIONS[key]
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=option.parse, help=option.help
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evopep",
        description="De novo peptide sequencing with a genetic algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output_help = "output path, or - for stdout (the default)"

    p = sub.add_parser("preprocess", help="denoise, normalize and augment an MGF")
    p.add_argument("input", help="input MGF path")
    p.add_argument("output", help="output MGF path")
    _add_options(p, "tau")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("sequence", help="sequence spectra from an MGF")
    p.add_argument("input", help="input MGF path (raw spectra)")
    _add_options(
        p,
        "seed",
        "runs",
        "generations",
        "population",
        "pool_size",
        "tournament",
        "tau",
        "rates",
        "jobs",
    )
    p.add_argument("-o", "--output", help=output_help)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("results", help="results TSV from the sequence command")
    p.add_argument("truth", help="ground-truth TSV (spectrum_id, peptide)")
    _add_options(p, "tau")
    p.add_argument("-o", "--output", help=output_help)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="synthesize spectra from a peptide list")
    p.add_argument("input", help="text file with one peptide per line")
    p.add_argument(
        "-o", "--output", required=True, help="output MGF path"
    )
    p.add_argument(
        "--truth", help="ground-truth TSV path (default: output with .truth.tsv)"
    )
    _add_options(p, "seed", "dropout", "noise")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tags", help="dump extracted 3-letter tags as TSV")
    p.add_argument("input", help="input MGF path")
    _add_options(p, "tau")
    p.add_argument("-o", "--output", help=output_help)
    p.set_defaults(func=cmd_tags)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EvolutionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    code = main()
    # At exit the interpreter's last collections would sweep every object
    # that numpy and evopep made, about 20 ms per process for nothing: the
    # process is ending. Frozen objects are not swept; atexit still runs.
    # main() does not freeze, since tests call it in the same process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
