"""Run the evopep CLI in this process with spans around its layer boundaries.

Usage: python3 tracer.py OUT_DIR -- <evopep arguments>

Each wrapper replaces the name a caller module looks up (``evopep.tags
.extract_tags`` is what ``build_init_pool`` calls, for instance), so no file
of the program changes. Spans (name, start, end, parent) are kept in arrays
and written to OUT_DIR when the command ends. Pool workers are forked from
this process after the wrappers are in place, so they record too; they write
their spans after each task, because a pool worker has no exit hook.
Calls that happen too often for a span (``parent_mass``, ``Individual.score``)
are only counted. A boundary reached through several module references gets
one name per reference (``tags.adjust@engine``), so that each can be checked
for use; ``run.py`` sums them by the part before the ``@``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

import evopep.cli
import evopep.engine
import evopep.scoring
import evopep.tags


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.counted: list[str] = []
        self.worker = False
        self.dumps = 0
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _forked(self) -> None:
        # A pool worker starts with a copy of the parent's buffers: drop it.
        self._reset()
        self.worker = True
        self.dumps = 0

    def span(self, name: str, fn, on_result=None):
        self.names.append(name)
        kind = len(self.names) - 1

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.kind.append(kind)
            self.parent.append(self.stack[-1])
            self.stack.append(index)
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        self.counted.append(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> None:
        """Write this process's spans and counters, then start afresh."""
        stem = self.out_dir / f"spans-{os.getpid()}-{self.dumps}"
        self.dumps += 1
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(out)
        meta = {
            "names": self.names,
            "counted": self.counted,
            "spans": len(self.kind),
            "counters": self.counters,
        }
        stem.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
        self._reset()


def _add(key, measure):
    def hook(counters, result):
        counters[key] += measure(result)

    return hook


def install(rec: Recorder) -> None:
    """Wrap every boundary the benchmark reports on."""
    cli, engine, scoring, tags = evopep.cli, evopep.engine, evopep.scoring, evopep.tags

    cli.parse_mgf = rec.span("spectrum.parse", cli.parse_mgf)
    cli.preprocess = rec.span(
        "spectrum.preprocess", cli.preprocess, _add("spectrum.peaks_out", lambda s: len(s.peaks))
    )
    cli.evolve = rec.span(
        "engine.evolve", cli.evolve, _add("engine.generations", lambda r: r.generations_used)
    )
    job = rec.span("cli.task", cli._sequence_job)

    @wraps(cli._sequence_job)
    def task(*args, **kwargs):
        try:
            return job(*args, **kwargs)
        finally:
            if rec.worker:
                rec.dump()

    cli._sequence_job = task

    engine.build_init_pool = rec.span("tags.init_pool", engine.build_init_pool)
    tags.extract_tags = rec.span(
        "tags.extract", tags.extract_tags, _add("tags.count", len)
    )
    adjust_ok = _add("tags.adjust_ok", lambda r: int(r[1]))
    tags.adjust_mass = rec.span("tags.adjust@tags", tags.adjust_mass, adjust_ok)
    engine.adjust_mass = rec.span("tags.adjust@engine", engine.adjust_mass, adjust_ok)
    engine.select_pools = rec.span("engine.select_pools", engine.select_pools)
    for op, attr in (
        ("nterm_cterm", "nterm_cterm_crossover"),
        ("two_point", "two_point_crossover"),
        ("flip", "flip_aa_mutation"),
        ("conflict", "conflict_mass_mutation"),
    ):
        setattr(engine, attr, rec.span(f"engine.op.{op}", getattr(engine, attr)))

    scoring.fitness = rec.span("scoring.fitness", scoring.fitness)
    score = scoring.Individual.score.__func__
    scoring.Individual.score = classmethod(rec.count("scoring.score", score))
    for module in (tags, scoring, engine):
        name = module.__name__.rsplit(".", 1)[-1]
        module.parent_mass = rec.count(f"chem.parent_mass@{name}", module.parent_mass)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT_DIR -- <evopep arguments>", file=sys.stderr)
        return 1
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(out_dir)
    install(rec)
    try:
        return evopep.cli.main(argv[2:])
    finally:
        rec.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
