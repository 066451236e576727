"""Command-line interface: preprocess, sequence, evaluate, synth, tags.

Configuration precedence is built-in defaults, then an optional key=value
config file, then command-line flags. All outputs are UTF-8 TSV with a header
row. Exit codes: 0 success, 1 usage error, 2 data error. Results are
deterministic for a fixed seed and input, independent of --jobs.
"""

from __future__ import annotations

import argparse
import logging
import math
import random
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

from .chem import InvalidPeptideError, InvalidResidueError, validate_peptide
from .engine import EvolutionError, GaConfig, evolve
from .evaluation import (
    GroundTruthRecord,
    SynthConfig,
    aggregate_runs,
    compute_metrics,
    ground_truth_tsv,
    load_ground_truth,
    synthesize_spectrum,
)
from .spectrum import (
    MgfParseError,
    PreprocessConfig,
    Spectrum,
    emit_mgf,
    parse_mgf,
    preprocess,
)
from .tags import extract_tags

logger = logging.getLogger(__name__)

_DEFAULTS = {
    "seed": "0",
    "runs": 30,
    "generations": GaConfig.generations,
    "population": GaConfig.population,
    "pool_size": GaConfig.pool_size,
    "tournament": GaConfig.tournament_k,
    "tau": GaConfig.tau,
    "rates": ",".join(
        str(rate)
        for rate in (
            GaConfig.rate_nterm_cterm_cx,
            GaConfig.rate_two_point_cx,
            GaConfig.rate_flip,
            GaConfig.rate_conflict,
        )
    ),
    "jobs": 1,
    "dropout": 0.0,
    "noise": 0,
}

# Smallest accepted value of a count option, from a flag or a config file.
_MINIMUM = {"runs": 0, "jobs": 1}

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


def _parse_rates(text: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(
            "rates must be 4 comma-separated numbers: "
            "nterm-cterm,two-point,flip,conflict"
        )
    values = tuple(float(p) for p in parts)
    return values  # type: ignore[return-value]


def _rates_flag(text: str) -> str:
    # Validate eagerly so a malformed flag is a usage error, not a data error.
    try:
        _parse_rates(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _option_value(key: str, text: str):
    """Convert an option's text to its default's type, within its minimum."""
    value = type(_DEFAULTS[key])(text)
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ValueError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
    return value


def _count_flag(key: str):
    def parse(text: str) -> int:
        try:
            return _option_value(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _load_config_file(path: str) -> dict:
    values: dict = {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{number}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{number}: unknown option {key!r}")
        try:
            values[key] = _option_value(key, value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return values


def _effective_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (in that order)."""
    options = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        options.update(_load_config_file(config_path))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            options[key] = flag_value
    return options


def _seed_value(seed: str) -> int | str:
    try:
        return int(seed)
    except ValueError:
        return seed


def _ga_config(options: dict) -> GaConfig:
    rates = _parse_rates(options["rates"])
    return GaConfig(
        pool_size=options["pool_size"],
        population=options["population"],
        generations=options["generations"],
        tournament_k=options["tournament"],
        rate_nterm_cterm_cx=rates[0],
        rate_two_point_cx=rates[1],
        rate_flip=rates[2],
        rate_conflict=rates[3],
        tau=options["tau"],
    )


def _write_output(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _spectrum_id(spec: Spectrum, index: int) -> str:
    return spec.title or f"spectrum_{index}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    cfg = PreprocessConfig(tolerance=options["tau"])
    spectra = parse_mgf(Path(args.input).read_text(encoding="utf-8"))
    processed = []
    for index, spec in enumerate(spectra):
        out = preprocess(spec, cfg, complements=not args.no_complements)
        processed.append(out)
        print(f"{_spectrum_id(spec, index)}\t{len(spec.mz)}\t{len(out.mz)}")
    Path(args.output).write_text(emit_mgf(processed), encoding="utf-8")
    return 0


def _sequence_job(task: tuple[Spectrum, GaConfig, str, int, range, str]) -> list[str]:
    """Result rows of one block of a spectrum's runs.

    The runs share the spectrum's tag and score memos, which are emptied
    before the job returns. Run ``r`` of spectrum ``i`` is seeded with
    ``f"{seed}|{i}|{r}"``, so rows do not depend on how runs are blocked.
    """
    spec, cfg, seed, spec_index, run_indices, spectrum_id = task
    rows = []
    for run_index in run_indices:
        run_seed = _seed_value(f"{seed}|{spec_index}|{run_index}")
        try:
            result = evolve(spec, replace(cfg, seed=run_seed))
        except (EvolutionError, ValueError) as exc:
            logger.warning(
                "sequencing failed for %s run %d: %s", spectrum_id, run_index, exc
            )
            continue
        best = result.best
        rows.append(
            f"{spectrum_id}\t{run_index}\t{best.peptide}\t{best.fitness:.6f}"
            f"\t{best.nterm}\t{best.cterm}\t{best.delta_mass:.6f}"
            f"\t{result.generations_used}"
        )
    spec.scores.clear()
    spec.tag_residues.clear()
    return rows


def cmd_sequence(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    ga = _ga_config(options)
    pre_cfg = PreprocessConfig(tolerance=ga.tau)
    spectra = parse_mgf(Path(args.input).read_text(encoding="utf-8"))
    ids = [_spectrum_id(spec, index) for index, spec in enumerate(spectra)]
    repeated = [sid for sid, count in Counter(ids).items() if count > 1]
    if repeated:
        # Their result rows could not be told apart by `evaluate`.
        raise ValueError(f"{args.input}: spectrum id {repeated[0]!r} is repeated")
    prepared = [
        preprocess(spec, pre_cfg, complements=not args.no_complements)
        for spec in spectra
    ]
    for spec, sid in zip(prepared, ids):
        if spec.total_intensity <= 0:
            logger.warning("skipping %s: spectrum has no positive intensity", sid)
    live = [index for index, spec in enumerate(prepared) if spec.total_intensity > 0]
    # A spectrum is the unit of work. Its runs are split into contiguous
    # blocks, one task each, so that the task count is a multiple of the
    # worker count and every worker gets the same share of the runs.
    runs, jobs = options["runs"], options["jobs"]
    parts = min(runs, jobs // math.gcd(len(live), jobs))
    blocks = [range(runs * b // parts, runs * (b + 1) // parts) for b in range(parts)]
    tasks = [
        (prepared[index], ga, options["seed"], index, block, ids[index])
        for index in live
        for block in blocks
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sequence_job, tasks))
    else:
        results = list(map(_sequence_job, tasks))
    rows = [row for task_rows in results for row in task_rows]
    _write_output("\n".join(["\t".join(SEQUENCE_COLUMNS), *rows]) + "\n", args.output)
    if runs > 0 and prepared and not rows:
        print("error: all sequencing runs failed", file=sys.stderr)
        return 2
    return 0


def _read_results(path: str) -> tuple[dict[tuple[str, int], str], list[int]]:
    """Predictions keyed by (spectrum_id, run_index), plus the run list."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    options = _effective_options(args)
    predictions, runs = _read_results(args.results)
    truth = load_ground_truth(Path(args.truth).read_text(encoding="utf-8"))
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
    options = _effective_options(args)
    synth_cfg = SynthConfig(
        noise_peaks=options["noise"],
        dropout=options["dropout"],
        tolerance=options["tau"],
    )
    peptides: list[str] = []
    for number, raw in enumerate(
        Path(args.input).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            validate_peptide(line)
        except (InvalidResidueError, InvalidPeptideError) as exc:
            raise ValueError(f"{args.input}:{number}: {exc}") from exc
        peptides.append(line)
    spectra = []
    records = []
    for index, peptide in enumerate(peptides):
        rng = random.Random(f"{options['seed']}|synth|{index}")
        title = f"synth-{index:05d}"
        try:
            spec = synthesize_spectrum(peptide, synth_cfg, rng, title=title)
        except (InvalidResidueError, InvalidPeptideError) as exc:
            raise ValueError(f"{args.input}: peptide {index + 1}: {exc}") from exc
        spectra.append(spec)
        records.append(GroundTruthRecord(spectrum_id=title, peptide=peptide.upper()))
    Path(args.output).write_text(emit_mgf(spectra), encoding="utf-8")
    truth_path = args.truth or str(Path(args.output).with_suffix(".truth.tsv"))
    Path(truth_path).write_text(ground_truth_tsv(records), encoding="utf-8")
    return 0


def cmd_tags(args: argparse.Namespace) -> int:
    options = _effective_options(args)
    pre_cfg = PreprocessConfig(tolerance=options["tau"])
    spectra = parse_mgf(Path(args.input).read_text(encoding="utf-8"))
    lines = ["spectrum_id\tstart_mz\tresidues\tpeak_indices"]
    for index, spec in enumerate(spectra):
        prepared = preprocess(spec, pre_cfg, complements=not args.no_complements)
        rows = sorted(
            extract_tags(prepared, options["tau"]),
            key=lambda t: (t.start_mz, t.residues, t.peak_indices),
        )
        spectrum_id = _spectrum_id(spec, index)
        for tag in rows:
            indices = ",".join(str(i) for i in tag.peak_indices)
            lines.append(
                f"{spectrum_id}\t{tag.start_mz:.6f}\t{tag.residues}\t{indices}"
            )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "config" in names:
        parser.add_argument("--config", help="key=value config file")
    if "seed" in names:
        parser.add_argument("--seed", help="random seed (default 0)")
    if "runs" in names:
        parser.add_argument(
            "--runs", type=_count_flag("runs"), help="independent runs per spectrum"
        )
    if "generations" in names:
        parser.add_argument("--generations", type=int, help="GA generations")
    if "population" in names:
        parser.add_argument("--population", type=int, help="GA population size")
    if "pool_size" in names:
        parser.add_argument(
            "--pool-size", dest="pool_size", type=int, help="initialization pool size"
        )
    if "tournament" in names:
        parser.add_argument("--tournament", type=int, help="tournament size")
    if "tau" in names:
        parser.add_argument("--tau", type=float, help="fragment mass tolerance (Da)")
    if "rates" in names:
        parser.add_argument(
            "--rates",
            type=_rates_flag,
            help="operator rates: nterm-cterm,two-point,flip,conflict",
        )
    if "jobs" in names:
        parser.add_argument(
            "--jobs", type=_count_flag("jobs"), help="parallel worker count"
        )
    if "output" in names:
        parser.add_argument("-o", "--output", help="output path (default stdout)")
    if "no_complements" in names:
        parser.add_argument(
            "--no-complements",
            action="store_true",
            help="skip complementary-peak augmentation",
        )
    if "dropout" in names:
        parser.add_argument(
            "--dropout", type=float, help="per-ion dropout probability"
        )
    if "noise" in names:
        parser.add_argument("--noise", type=int, help="noise peaks per spectrum")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evopep",
        description="De novo peptide sequencing with a genetic algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="denoise, normalize and augment an MGF")
    p.add_argument("input", help="input MGF path")
    p.add_argument("output", help="output MGF path")
    _add_common(p, "config", "tau", "no_complements")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("sequence", help="sequence spectra from an MGF")
    p.add_argument("input", help="input MGF path (raw spectra)")
    _add_common(
        p,
        "config",
        "seed",
        "runs",
        "generations",
        "population",
        "pool_size",
        "tournament",
        "tau",
        "rates",
        "jobs",
        "output",
        "no_complements",
    )
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("results", help="results TSV from the sequence command")
    p.add_argument("truth", help="ground-truth TSV (spectrum_id, peptide)")
    _add_common(p, "config", "tau", "output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="synthesize spectra from a peptide list")
    p.add_argument("input", help="text file with one peptide per line")
    p.add_argument(
        "-o", "--output", required=True, help="output MGF path"
    )
    p.add_argument(
        "--truth", help="ground-truth TSV path (default: output with .truth.tsv)"
    )
    _add_common(p, "config", "seed", "tau", "dropout", "noise")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tags", help="dump extracted 3-letter tags as TSV")
    p.add_argument("input", help="input MGF path")
    _add_common(p, "config", "tau", "output", "no_complements")
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
    except (
        MgfParseError,
        EvolutionError,
        InvalidResidueError,
        InvalidPeptideError,
        ValueError,
        OSError,
        BrokenProcessPool,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
