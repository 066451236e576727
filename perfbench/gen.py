"""Input generator for the benchmark, independent of the evopep package.

Writes an MGF of simulated low-resolution CID spectra and a truth TSV
(spectrum_id, peptide). Everything is drawn from ``random.Random`` seeded
with the workload seed, with the benchmark's own monoisotopic mass table, so
the program under test only ever sees these two files.

A spectrum holds the b/y ladder of its peptide after dropout, some a-ions and
water/ammonia losses, a 13C isotope peak on strong ions, and uniform noise
up to a fixed peak count, so spectra of one workload are equally dense.
Intensities are raw counts drawn from log-normal distributions (fragment ions
brighter than noise on average, with wide overlap), m/z values carry Gaussian
jitter and the precursor m/z a small error, as on an ion-trap instrument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Monoisotopic residue masses (Da), I folded into L.
MASSES: dict[str, float] = {
    "G": 57.0214637, "A": 71.0371138, "S": 87.0320284, "P": 97.0527639,
    "V": 99.0684139, "T": 101.0476785, "C": 103.0091845, "L": 113.0840640,
    "N": 114.0429274, "D": 115.0269430, "Q": 128.0585775, "K": 128.0949630,
    "E": 129.0425931, "M": 131.0404846, "H": 137.0589119, "F": 147.0684139,
    "R": 156.1011110, "Y": 163.0633285, "W": 186.0793130,
}
PROTON = 1.00727647
WATER = 18.0105646863
AMMONIA = 17.0265491
CO = 27.9949146
ISOTOPE_STEP = 1.0033548

# Residue frequencies (%) in vertebrate proteins, I folded into L; K and R
# only close a tryptic peptide.
_BODY_WEIGHTS = {
    "A": 8.3, "C": 1.4, "D": 5.5, "E": 6.8, "F": 3.9, "G": 7.1, "H": 2.3,
    "L": 15.6, "M": 2.4, "N": 4.1, "P": 4.7, "Q": 3.9, "S": 6.6, "T": 5.3,
    "V": 6.9, "W": 1.1, "Y": 2.9,
}


@dataclass(frozen=True)
class Corpus:
    """How one workload's spectra are drawn."""

    spectra: int
    min_length: int
    max_length: int
    min_mass: float  # precursor mass window (Da); peptides outside are redrawn
    max_mass: float
    dropout: float  # chance that a b or y ion is missing
    peaks: int  # peaks per spectrum: fragment ions, then uniform noise
    jitter: float  # standard deviation of fragment m/z error (Da)


def tryptic_peptide(rng: random.Random, min_length: int, max_length: int) -> str:
    length = rng.randint(min_length, max_length)
    body = rng.choices(list(_BODY_WEIGHTS), list(_BODY_WEIGHTS.values()), k=length - 1)
    return "".join(body) + rng.choice("KR")


def peptide_mass(peptide: str) -> float:
    return sum(MASSES[sym] for sym in peptide) + WATER


def windowed_peptide(rng: random.Random, corpus: Corpus) -> str:
    """A tryptic peptide whose mass lies in the corpus's precursor window.

    Tag counts grow with the cube of peak density, so a fixed peak count over
    a fixed m/z span keeps the spectra of one workload equally costly."""
    while True:
        peptide = tryptic_peptide(rng, corpus.min_length, corpus.max_length)
        if corpus.min_mass <= peptide_mass(peptide) <= corpus.max_mass:
            return peptide


def _counts(rng: random.Random, median: float, sigma: float) -> float:
    return median * math.exp(rng.gauss(0.0, sigma))


def simulate(peptide: str, corpus: Corpus, rng: random.Random):
    """Return (pepmass, charge, peaks) for one doubly charged precursor."""
    prefix = []
    total = 0.0
    for sym in peptide:
        total += MASSES[sym]
        prefix.append(total)
    neutral = total + WATER
    peaks: list[tuple[float, float]] = []
    length = len(peptide)
    for i in range(1, length):
        # Cleavage sites near the middle fragment more readily.
        site = 1.0 - 0.6 * abs(i / length - 0.5)
        for ion, base in (
            ("b", prefix[i - 1] + PROTON),
            ("y", neutral - prefix[i - 1] + PROTON),
        ):
            if rng.random() < corpus.dropout:
                continue
            height = _counts(rng, (9000.0 if ion == "y" else 6000.0) * site, 0.7)
            peaks.append((base + rng.gauss(0.0, corpus.jitter), height))
            if height > 8000.0:
                peaks.append(
                    (base + ISOTOPE_STEP + rng.gauss(0.0, corpus.jitter), 0.45 * height)
                )
            loss = WATER if rng.random() < 0.5 else AMMONIA
            if rng.random() < 0.3:
                peaks.append(
                    (base - loss + rng.gauss(0.0, corpus.jitter), 0.3 * height)
                )
            if ion == "b" and rng.random() < 0.2:
                peaks.append((base - CO + rng.gauss(0.0, corpus.jitter), 0.25 * height))
    high = neutral + PROTON
    peaks = [(mz, inten) for mz, inten in peaks if 50.0 < mz < high]
    for _ in range(corpus.peaks - len(peaks)):
        peaks.append((rng.uniform(60.0, high), _counts(rng, 1500.0, 0.9)))
    charge = 2
    pepmass = (neutral + charge * PROTON) / charge + rng.gauss(0.0, 0.005)
    peaks.sort()
    return pepmass, charge, peaks


def draw(corpus: Corpus, seed: int, prefix: str) -> list[dict]:
    """Draw ``corpus.spectra`` records (title, peptide, pepmass, charge, peaks)."""
    rng = random.Random(f"perfbench|{prefix}|{seed}")
    records = []
    for index in range(corpus.spectra):
        peptide = windowed_peptide(rng, corpus)
        pepmass, charge, peaks = simulate(peptide, corpus, rng)
        records.append({
            "title": f"{prefix}-{seed}-{index:03d}",
            "peptide": peptide,
            "pepmass": pepmass,
            "charge": charge,
            "peaks": peaks,
        })
    return records


def write_mgf(records: list[dict], path: Path) -> None:
    blocks = []
    for rec in records:
        lines = ["BEGIN IONS", f"TITLE={rec['title']}",
                 f"PEPMASS={rec['pepmass']:.5f}", f"CHARGE={rec['charge']}+"]
        lines.extend(f"{mz:.4f} {inten:.1f}" for mz, inten in rec["peaks"])
        lines.append("END IONS")
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def write_truth(records: list[dict], path: Path) -> None:
    path.write_text(
        "spectrum_id\tpeptide\n"
        + "".join(f"{rec['title']}\t{rec['peptide']}\n" for rec in records),
        encoding="utf-8",
    )
