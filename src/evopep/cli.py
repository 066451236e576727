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
import random
import sys
from collections import Counter
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, TextIO

from .chem import InvalidPeptideError, InvalidResidueError, validate_peptide
from .engine import OPERATORS, EvolutionError, GaConfig, evolve
from .spectrum import (
    PreprocessConfig,
    Spectrum,
    emit_mgf,
    parse_mgf,
    preprocess,
)
from .tags import extract_tags, precursor_reachable

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

METRIC_COLUMNS = (
    "run_index",
    "precision",
    "recall",
    "peptide_recall",
    "avg_len_partial_matches",
    "avg_len_predicted",
    "n_spectra",
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
    text = _read_text(path)
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{number}: expected key=value")
        key, _, value = line.partition("=")
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


def _read_text(path: str) -> str:
    """The text of an input file. A UTF-8 byte-order mark, which some editors
    write, is dropped rather than read as part of the first line; a byte that
    is not UTF-8 is reported at its line."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after any mark, which has no newline.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise ValueError(
            f"{path}:{line}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})"
        ) from None


def _open_output(path: str | None) -> AbstractContextManager[TextIO]:
    if path and path != "-":
        return open(path, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _write_output(text: str, path: str | None) -> None:
    with _open_output(path) as out:
        out.write(text)


def _spectrum_id(spec: Spectrum, index: int) -> str:
    return spec.title or f"spectrum_{index}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    cfg = PreprocessConfig(tolerance=options["tau"])
    spectra = parse_mgf(_read_text(args.input))
    processed = []
    for index, spec in enumerate(spectra):
        out = preprocess(spec, cfg, complements=not args.no_complements)
        processed.append(out)
        print(f"{_spectrum_id(spec, index)}\t{len(spec.mz)}\t{len(out.mz)}")
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
        result = evolve(spec, replace(cfg, seed=f"{seed}|{spec_index}|{run_index}"))
    except (EvolutionError, ValueError) as exc:
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
    pre_cfg = PreprocessConfig(tolerance=ga.tau)
    spectra = parse_mgf(_read_text(args.input))
    ids = [_spectrum_id(spec, index) for index, spec in enumerate(spectra)]
    repeated = [sid for sid, count in Counter(ids).items() if count > 1]
    if repeated:
        # Their result rows could not be told apart by `evaluate`.
        raise ValueError(f"{args.input}: spectrum id {repeated[0]!r} is repeated")
    for sid in ids:
        if sid.startswith("#") or "\t" in sid:
            # `evaluate` reads such a row as a comment, or as shifted columns.
            raise ValueError(
                f"{args.input}: spectrum id {sid!r} cannot be a results TSV id "
                "(it starts with '#' or contains a tab)"
            )
    prepared = [
        preprocess(spec, pre_cfg, complements=not args.no_complements)
        for spec in spectra
    ]
    live = []
    for index, (spec, sid) in enumerate(zip(prepared, ids)):
        if spec.total_intensity <= 0:
            logger.warning("skipping %s: spectrum has no positive intensity", sid)
        elif not precursor_reachable(spec.precursor_mass, ga.tau):
            logger.warning(
                "skipping %s: no peptide the GA can build comes near its "
                "precursor mass of %.4f Da",
                sid,
                spec.precursor_mass,
            )
        else:
            live.append(index)
    runs, jobs = options["runs"], options["jobs"]
    tasks = [
        (prepared[index], ga, options["seed"], index, run_index, ids[index])
        for index in live
        for run_index in range(runs)
    ]
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
    if runs > 0 and prepared and not rows:
        print("error: all sequencing runs failed", file=sys.stderr)
        return 2
    return 0


def _read_results(path: str) -> tuple[dict[tuple[str, int], str], list[int]]:
    """Predictions keyed by (spectrum_id, run_index), plus the run list."""
    lines = _read_text(path).splitlines()
    body = [
        (number, line.split("\t"))
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not body:
        raise ValueError(f"results file {path} is empty")
    header = body[0][1]
    required = {"spectrum_id", "run_index", "predicted_peptide"}
    if not required.issubset(header):
        raise ValueError(
            f"results file {path} missing columns {sorted(required - set(header))}"
        )
    id_col = header.index("spectrum_id")
    run_col = header.index("run_index")
    pep_col = header.index("predicted_peptide")
    predictions: dict[tuple[str, int], str] = {}
    runs: set[int] = set()
    for number, parts in body[1:]:
        if len(parts) < len(header):
            raise ValueError(
                f"{path}:{number}: {len(parts)} fields, header has {len(header)}"
            )
        try:
            run_index = int(parts[run_col])
        except ValueError:
            raise ValueError(
                f"{path}:{number}: run_index {parts[run_col]!r} is not an integer"
            ) from None
        key = (parts[id_col], run_index)
        if key in predictions:
            raise ValueError(
                f"{path}:{number}: repeated row for spectrum {key[0]!r} run {run_index}"
            )
        if parts[pep_col]:  # an empty prediction is a failed run
            try:
                validate_peptide(parts[pep_col])
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
        predictions[key] = parts[pep_col]
        runs.add(run_index)
    if not predictions:
        raise ValueError(f"results file {path} has a header but no rows")
    return predictions, sorted(runs)


def _format_metrics_row(label: str, metrics) -> str:
    return (
        f"{label}\t{metrics.precision:.6f}\t{metrics.recall:.6f}"
        f"\t{metrics.peptide_recall:.6f}\t{metrics.avg_len_partial_matches:.6f}"
        f"\t{metrics.avg_len_predicted:.6f}\t{metrics.n_spectra}"
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import aggregate_runs, compute_metrics, load_ground_truth

    options = _effective_options(args)
    predictions, runs = _read_results(args.results)
    text = _read_text(args.truth)
    try:
        truth = load_ground_truth(text)
    except ValueError as exc:
        raise ValueError(f"{args.truth}: {exc}") from None
    if not truth:
        raise ValueError(f"truth file {args.truth} has no records")
    truth_ids = {record.spectrum_id for record in truth}
    stray = sorted({sid for sid, _ in predictions} - truth_ids)
    if stray:
        logger.warning(
            "%d predicted spectrum id(s) missing from the truth file: %s",
            len(stray),
            ", ".join(stray[:5]),
        )
    per_run = []
    lines = [
        "# missing predictions count as empty sequences (recall is penalized)",
        "\t".join(METRIC_COLUMNS),
    ]
    for run_index in runs:
        pairs = [
            (predictions.get((record.spectrum_id, run_index), ""), record.peptide)
            for record in truth
        ]
        metrics = compute_metrics(pairs, tau=options["tau"])
        per_run.append(metrics)
        lines.append(_format_metrics_row(str(run_index), metrics))
    summary = aggregate_runs(per_run)
    mean, std = summary.mean, summary.std
    lines.append(
        "aggregate"
        f"\t{mean.precision:.6f}±{std.precision:.6f}"
        f"\t{mean.recall:.6f}±{std.recall:.6f}"
        f"\t{mean.peptide_recall:.6f}±{std.peptide_recall:.6f}"
        f"\t{mean.avg_len_partial_matches:.6f}±{std.avg_len_partial_matches:.6f}"
        f"\t{mean.avg_len_predicted:.6f}±{std.avg_len_predicted:.6f}"
        f"\t{mean.n_spectra}"
    )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .evaluation import (
        GroundTruthRecord,
        SynthConfig,
        ground_truth_tsv,
        synthesize_spectrum,
    )

    options = _effective_options(args)
    synth_cfg = SynthConfig(
        noise_peaks=options["noise"],
        dropout=options["dropout"],
    )
    peptides: list[str] = []
    for number, raw in enumerate(_read_text(args.input).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            seq = validate_peptide(line)
        except (InvalidResidueError, InvalidPeptideError) as exc:
            raise ValueError(f"{args.input}:{number}: {exc}") from exc
        if len(seq) < 2:
            raise ValueError(
                f"{args.input}:{number}: theoretical spectrum requires length >= 2"
            )
        peptides.append(line)
    spectra = []
    records = []
    for index, peptide in enumerate(peptides):
        rng = random.Random(f"{options['seed']}|synth|{index}")
        title = f"synth-{index:05d}"
        spectra.append(synthesize_spectrum(peptide, synth_cfg, rng, title=title))
        records.append(GroundTruthRecord(spectrum_id=title, peptide=peptide.upper()))
    Path(args.output).write_text(emit_mgf(spectra), encoding="utf-8")
    truth_path = args.truth or str(Path(args.output).with_suffix(".truth.tsv"))
    Path(truth_path).write_text(ground_truth_tsv(records), encoding="utf-8")
    return 0


def cmd_tags(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    pre_cfg = PreprocessConfig(tolerance=options["tau"])
    spectra = parse_mgf(_read_text(args.input))
    with _open_output(args.output) as out:
        out.write("spectrum_id\tstart_mz\tresidues\tpeak_indices\n")
        for index, spec in enumerate(spectra):
            prepared = preprocess(spec, pre_cfg, complements=not args.no_complements)
            spectrum_id = _spectrum_id(spec, index)
            # The index lists tags by start peak, in ascending m/z, so sorting
            # one start peak at a time gives the rows of a sort by
            # (start_mz, ...). Rows are written as they come, so memory holds
            # at most one start peak's tags.
            tags = extract_tags(prepared, options["tau"])
            rows = map(tags.tag, range(len(tags)))
            for _, group in groupby(rows, key=lambda t: t.peak_indices[0]):
                for tag in sorted(group, key=lambda t: (t.residues, t.peak_indices)):
                    indices = ",".join(str(i) for i in tag.peak_indices)
                    out.write(
                        f"{spectrum_id}\t{tag.start_mz:.6f}"
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
    complements_help = "skip complementary-peak augmentation"

    p = sub.add_parser("preprocess", help="denoise, normalize and augment an MGF")
    p.add_argument("input", help="input MGF path")
    p.add_argument("output", help="output MGF path")
    _add_options(p, "tau")
    p.add_argument("--no-complements", action="store_true", help=complements_help)
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
    p.add_argument("--no-complements", action="store_true", help=complements_help)
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
    p.add_argument("--no-complements", action="store_true", help=complements_help)
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
