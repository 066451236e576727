"""Benchmark of `evopep sequence`, driven from outside through its CLI.

    python3 perfbench/run.py --workload tryptic --seed 1 --seconds 15 --trace 0

Each run draws its workload's spectra from --seed (see gen.py), splits them
into MGF chunks and times one `evopep sequence` invocation per chunk, in
whole passes over the chunks, until --seconds have passed. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it makes one
untraced and one traced pass over the chunks and prints per-layer metrics
from the spans tracer.py records. Either way every output row is checked
against oracle.py before the result is printed. The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

TAU = 0.5
SETUP_REPEATS = 9
SEQUENCE_COLUMNS = [
    "spectrum_id", "run_index", "predicted_peptide", "fitness", "nterm",
    "cterm", "delta_mass_da", "generations_used",
]


@dataclass(frozen=True)
class Workload:
    corpus: gen.Corpus
    chunk: int  # spectra per MGF, i.e. per invocation
    runs: int  # --runs
    jobs: int  # --jobs
    generations: int = 50  # --generations; 50 is the published setting


WORKLOADS = {
    # Many distinct spectra of realistic size, one GA run each: scoring and
    # GA overhead dominate, tag extraction takes a few ms per spectrum.
    "tryptic": Workload(gen.Corpus(24, 8, 12, 950.0, 1350.0, 0.10, 56, 0.05),
                        chunk=6, runs=1, jobs=1),
    # A few spectra of several hundred peaks, one run each: tag extraction
    # and its memory dominate. Ten generations keep the GA loop, which
    # tryptic measures, from hiding them.
    "dense": Workload(gen.Corpus(10, 10, 14, 1380.0, 1420.0, 0.10, 400, 0.05),
                      chunk=1, runs=1, jobs=1, generations=10),
    # Moderately dense spectra, several runs each, two workers: every run
    # repeats the spectrum's tag extraction and init pool, every task pickles
    # its spectrum and starts with a cold memo. Ten generations keep that
    # per-run work a visible share of a run.
    "replicate-j2": Workload(gen.Corpus(8, 9, 12, 1150.0, 1250.0, 0.10, 180, 0.05),
                             chunk=2, runs=5, jobs=2, generations=10),
}


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own check."""


@dataclass
class Invocation:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv: list[str], log: Path) -> Invocation:
    """Run ``python3 argv`` with stdout/stderr in ``log``; wall time, CPU time
    and peak RSS of the whole process tree come from wait4."""
    with open(log, "wb") as out:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], python_env(), file_actions=actions
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
    return Invocation(
        code=os.waitstatus_to_exitcode(status),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


CLI = ["-c", "from evopep.cli import console_main; console_main()"]


def sequence_args(load: Workload, mgf: Path, tsv: Path, seed: int, runs: int,
                  jobs: int) -> list[str]:
    return ["sequence", str(mgf), "--seed", str(seed), "--runs", str(runs), "--jobs", str(jobs),
            "--generations", str(load.generations), "-o", str(tsv)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_rows(tsv: Path) -> list[list[str]]:
    lines = tsv.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != SEQUENCE_COLUMNS:
        raise CheckFailed(f"{tsv.name}: unexpected header")
    return [line.split("\t") for line in lines[1:]]


def check_rows(chunk: list[dict], rows: list[list[str]], load: Workload, stats: dict) -> int:
    """Check every row of one chunk's results; return the number missing."""
    by_title = {rec["title"]: rec for rec in chunk}
    seen = set()
    for row in rows:
        if len(row) != len(SEQUENCE_COLUMNS):
            raise CheckFailed(f"row with {len(row)} fields: {row}")
        title, run, peptide, fit, nterm, cterm, delta, gens = row
        rec = by_title.get(title)
        key = (title, int(run))
        if rec is None or not 0 <= key[1] < load.runs or key in seen:
            raise CheckFailed(f"unexpected or repeated row {title} run {run}")
        seen.add(key)
        if not (2 <= len(peptide) <= oracle.MAX_LENGTH and peptide[-1] in "KR"
                and set(peptide) <= oracle.ALPHABET):
            raise CheckFailed(f"{title}: {peptide!r} is not a tryptic 2-64-mer")
        if int(gens) != load.generations:
            raise CheckFailed(f"{title}: {gens} generations used")
        want = oracle.score(peptide, rec["parsed"], rec["prepared"], TAU)
        if (int(nterm), int(cterm)) != (want["nterm"], want["cterm"]):
            raise CheckFailed(f"{title} {peptide}: nterm/cterm {nterm}/{cterm}, "
                              f"oracle {want['nterm']}/{want['cterm']}")
        for name, text in (("fitness", fit), ("delta_mass_da", delta)):
            if abs(float(text) - want[name]) > 1e-6:
                raise CheckFailed(f"{title} {peptide}: {name} {text}, oracle {want[name]:.8f}")
        truth = rec["peptide"]
        matched = oracle.matched_residues(peptide, truth, TAU)
        per_run = stats.setdefault(int(run), [0, 0])
        per_run[0] += matched
        per_run[1] += peptide == truth
    return len(chunk) * load.runs - len(seen)


def check_evaluate(work: Path, results: list[Path], corpus: list[dict], stats: dict) -> None:
    """`evopep evaluate` must report the recall this benchmark aligned itself."""
    merged = work / "all.tsv"
    body = []
    for tsv in results:
        body.extend(tsv.read_text(encoding="utf-8").splitlines()[1:])
    merged.write_text("\n".join(["\t".join(SEQUENCE_COLUMNS), *body]) + "\n", encoding="utf-8")
    truth = work / "truth.tsv"
    gen.write_truth(corpus, truth)
    report = work / "metrics.tsv"
    done = spawn([*CLI, "evaluate", str(merged), str(truth), "-o", str(report)],
                 work / "evaluate.log")
    if done.code != 0:
        raise CheckFailed(f"evaluate exited {done.code}")
    residues = sum(len(rec["peptide"]) for rec in corpus)
    for line in report.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if not fields[0].isdigit():
            continue
        matched, exact = stats.get(int(fields[0]), (0, 0))
        for name, got, want in (("recall", fields[2], matched / residues),
                                ("peptide_recall", fields[3], exact / len(corpus))):
            if abs(float(got) - want) > 1e-6:
                raise CheckFailed(
                    f"evaluate {name} {got} for run {fields[0]}, benchmark {want:.6f}")


def library_tag_counts(mgf: Path) -> list[int]:
    sys.path.insert(0, str(SRC))
    from evopep import PreprocessConfig, extract_tags, parse_mgf, preprocess

    cfg = PreprocessConfig(tolerance=TAU)
    return [len(extract_tags(preprocess(spec, cfg), TAU))
            for spec in parse_mgf(mgf.read_text(encoding="utf-8"))]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def load_spans(trace_dir: Path):
    """Every dumped span as (layer names, durations, parent indices) arrays
    per dump, plus counters summed by layer name, and the names of all
    wrapped boundaries with how often each was entered."""
    import numpy as np

    spans = []
    counters: Counter = Counter()
    entered: Counter = Counter()
    for meta_path in sorted(trace_dir.glob("*/spans-*.json")):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        n = meta["spans"]
        raw = meta_path.with_suffix(".bin").read_bytes()
        kind = np.frombuffer(raw, np.int32, n, 0)
        parent = np.frombuffer(raw, np.int32, n, 4 * n)
        start = np.frombuffer(raw, np.float64, n, 8 * n)
        end = np.frombuffer(raw, np.float64, n, 16 * n)
        names = meta["names"]
        entered.update(dict(zip(names, np.bincount(kind, minlength=len(names)).tolist())))
        entered.update({key: meta["counters"].get(key, 0) for key in meta["counted"]})
        for key, value in meta["counters"].items():
            counters[layer_name(key)] += value
        layers = np.array([layer_name(name) for name in names], dtype=object)
        spans.append((layers[kind], end - start, parent))
    return spans, counters, entered


def layer_name(boundary: str) -> str:
    return boundary.split("@", 1)[0]


def layer_metrics(trace_dir: Path, untraced: dict, traced_wall: float, jobs: int) -> dict:
    import numpy as np

    spans, counters, entered = load_spans(trace_dir)
    idle = sorted(name for name, count in entered.items() if count == 0)
    if idle:
        raise CheckFailed(f"traced boundaries never entered: {', '.join(idle)}")
    total: dict = {}
    calls: dict = {}
    self_time: dict = {}
    in_init = {"tags.extract": 0.0, "scoring.fitness": 0.0}
    for names, dur, parent in spans:
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], None)
        for name in set(names):
            mask = names == name
            total[name] = total.get(name, 0.0) + float(dur[mask].sum())
            calls[name] = calls.get(name, 0) + int(mask.sum())
            self_time[name] = self_time.get(name, 0.0) + float((dur - child)[mask].sum())
        for name in in_init:
            mask = (names == name) & (parent_name == "tags.init_pool")
            in_init[name] += float(dur[mask].sum())

    def get(table, name):
        return table.get(name, 0)

    score_calls = counters["scoring.score"]
    fitness_calls = get(calls, "scoring.fitness")
    fitness_s = get(total, "scoring.fitness")
    generations = counters["engine.generations"]
    metrics = {
        "spectrum.parse_s": (get(total, "spectrum.parse"), "s"),
        "spectrum.preprocess_s": (get(total, "spectrum.preprocess"), "s"),
        "spectrum.peaks_out": (counters["spectrum.peaks_out"], "count"),
        "tags.extract_s": (get(total, "tags.extract"), "s"),
        "tags.extract_calls": (get(calls, "tags.extract"), "count"),
        "tags.count": (counters["tags.count"], "count"),
        "tags.init_pool_self_s": (
            get(total, "tags.init_pool") - in_init["tags.extract"]
            - in_init["scoring.fitness"], "s"),
        "tags.adjust_calls": (get(calls, "tags.adjust"), "count"),
        "tags.adjust_ok_ratio": (counters["tags.adjust_ok"] / get(calls, "tags.adjust"), "ratio"),
        "scoring.score_calls": (score_calls, "count"),
        "scoring.fitness_calls": (fitness_calls, "count"),
        "scoring.memo_hit_ratio": (1.0 - fitness_calls / score_calls, "ratio"),
        "scoring.fitness_s": (fitness_s, "s"),
        "scoring.fitness_us": (1e6 * fitness_s / fitness_calls, "us"),
        "engine.evolve_s": (get(total, "engine.evolve"), "s"),
        "engine.self_s_per_gen": (
            (get(total, "engine.evolve") - get(total, "tags.init_pool")
             - (fitness_s - in_init["scoring.fitness"])) / generations, "s"),
        "engine.select_pools_s": (get(total, "engine.select_pools"), "s"),
    }
    for op in ("nterm_cterm", "two_point", "flip", "conflict"):
        metrics[f"engine.op.{op}.calls"] = (get(calls, f"engine.op.{op}"), "count")
        metrics[f"engine.op.{op}.self_s"] = (get(self_time, f"engine.op.{op}"), "s")
    metrics["chem.parent_mass_calls"] = (counters["chem.parent_mass"], "count")
    metrics["cli.tasks"] = (get(calls, "cli.task"), "count")
    metrics["cli.core_busy_ratio"] = (untraced["cpu"] / (jobs * untraced["wall"]), "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced["wall"], "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int, work: Path):
    load = WORKLOADS[name]
    corpus = gen.draw(load.corpus, seed, name)
    chunks = [corpus[i:i + load.chunk] for i in range(0, len(corpus), load.chunk)]
    mgfs = []
    for index, chunk in enumerate(chunks):
        mgf = work / f"chunk{index}.mgf"
        gen.write_mgf(chunk, mgf)
        # The oracle reads the file the program reads, at printed precision.
        for rec, parsed in zip(chunk, oracle.parse_mgf(mgf.read_text(encoding="utf-8"))):
            rec["prepared"] = oracle.preprocess(parsed, TAU)
            rec["parsed"] = parsed
        mgfs.append(mgf)
    return load, corpus, chunks, mgfs


def timed_passes(load: Workload, mgfs: list[Path], seed: int, work: Path, tag: str,
                 seconds: float, results: dict) -> list[tuple[int, Invocation]]:
    """Invoke `sequence` on each chunk in turn, in whole passes over the
    chunks, until ``seconds`` have passed. First outputs land in ``results``;
    every rerun must reproduce them byte for byte."""
    done = []
    started = time.perf_counter()
    while not done or time.perf_counter() - started < seconds:
        for chunk, mgf in enumerate(mgfs):
            tsv = work / f"{tag}{len(done)}.tsv"
            inv = spawn([*CLI, *sequence_args(load, mgf, tsv, seed, load.runs, load.jobs)],
                        tsv.with_suffix(".log"))
            if inv.code != 0:
                raise CheckFailed(
                    f"sequence on chunk {chunk} exited {inv.code}; see {tsv.stem}.log")
            if chunk not in results:
                results[chunk] = tsv
            elif tsv.read_bytes() != results[chunk].read_bytes():
                raise CheckFailed(f"rerun of chunk {chunk} changed its output")
            done.append((chunk, inv))
    return done


def verify(name: str, load: Workload, corpus, chunks, mgfs, results: dict, seed: int,
           work: Path) -> tuple[list[int], dict]:
    """Every output check; returns (missing rows per chunk, per-run accuracy
    sums)."""
    stats: dict = {}
    missing = [check_rows(chunk, read_rows(results[index]), load, stats)
               for index, chunk in enumerate(chunks)]
    check_evaluate(work, [results[i] for i in range(len(chunks))], corpus, stats)
    if load.jobs > 1:
        serial = work / "serial.tsv"
        done = spawn([*CLI, *sequence_args(load, mgfs[0], serial, seed, load.runs, 1)],
                     work / "serial.log")
        if done.code != 0 or serial.read_bytes() != results[0].read_bytes():
            raise CheckFailed(f"--jobs {load.jobs} output differs from --jobs 1")
    if name == "dense":
        want = [oracle.three_edge_paths(rec["prepared"], TAU) for rec in chunks[0]]
        got = library_tag_counts(mgfs[0])
        if want != got:
            raise CheckFailed(f"extract_tags found {got} tags, path count {want}")
    return missing, stats


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load, corpus, chunks, mgfs = prepare(name, seed, work)
    tasks = [len(chunk) * load.runs for chunk in chunks]
    results: dict = {}
    if not trace:
        setup = [spawn([*CLI, *sequence_args(load, mgfs[i % len(mgfs)], work / "setup.tsv",
                                             seed, 0, load.jobs)], work / "setup.log")
                 for i in range(SETUP_REPEATS)]
        if any(inv.code for inv in setup):
            raise CheckFailed("a --runs 0 invocation failed")
        done = timed_passes(load, mgfs, seed, work, "timed", seconds, results)
    else:
        done = timed_passes(load, mgfs, seed, work, "plain", 0.0, results)
        traced_wall = 0.0
        for index, mgf in enumerate(mgfs):
            tsv = work / f"traced{index}.tsv"
            inv = spawn([str(HERE / "tracer.py"), str(work / "trace" / f"chunk{index}"), "--",
                         *sequence_args(load, mgf, tsv, seed, load.runs, load.jobs)],
                        work / f"traced{index}.log")
            traced_wall += inv.wall
            if inv.code != 0 or tsv.read_bytes() != results[index].read_bytes():
                raise CheckFailed(f"traced run of chunk {index} differs from the untraced run")
    missing, stats = verify(name, load, corpus, chunks, mgfs, results, seed, work)
    attempted = sum(tasks[chunk] for chunk, _ in done)
    failed = sum(missing[chunk] for chunk, _ in done)
    wall = sum(inv.wall for _, inv in done)
    cpu = sum(inv.cpu for _, inv in done)
    matched = sum(m for m, _ in stats.values())
    exact = sum(e for _, e in stats.values())
    print(f"{name} seed {seed}: {len(done)} invocations, {attempted} spectrum-runs in "
          f"{wall:.2f} s; matched residues {matched}, exact peptides {exact}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(work / "trace", {"wall": wall, "cpu": cpu}, traced_wall, load.jobs)
        metrics["evaluation.matched_residues"] = {"value": matched, "unit": "count"}
    else:
        metrics = {
            "runs_per_s": {"value": attempted / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(inv.wall for inv in setup), "unit": "s"},
            # Median over the first pass; later passes repeat its inputs.
            "peak_rss_mb": {"value": statistics.median(inv.rss_mb for _, inv in done[:len(mgfs)]),
                            "unit": "MB"},
        }
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "evopep" / "cli.py").is_file():
        print(f"error: no evopep sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        kind = "per_layer" if args.trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            raise CheckFailed(f"metrics {got} differ from BENCHMARK.json {want}")
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
