"""Plain-Python re-statement of what `evopep sequence` must compute.

Nothing here imports evopep. The functions follow the method as the README
of the project describes it (window denoising against the modal intensity,
square-root normalisation per window, complementary peaks, the five-term
fitness, prefix-mass alignment), so the benchmark can check every row the
program prints against an independent computation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

from gen import MASSES, PROTON, WATER

ALPHABET = frozenset(MASSES)
MAX_LENGTH = 64
MERGE_MZ = 1e-4
WINDOWS = 10
WINDOW_LIMIT = 9
# Largest residue mass of the 20-letter alphabet: I equals L, so W is the top.
MAX_RESIDUE = max(MASSES.values())


def parse_mgf(text: str) -> list[dict]:
    """Records of an MGF this benchmark wrote: title, pepmass, charge, peaks."""
    records = []
    record = None
    for line in text.splitlines():
        line = line.strip()
        if line == "BEGIN IONS":
            record = {"title": "", "peaks": []}
        elif line == "END IONS":
            records.append(record)
            record = None
        elif record is not None and "=" in line:
            key, _, value = line.partition("=")
            if key == "TITLE":
                record["title"] = value
            elif key == "PEPMASS":
                record["pepmass"] = float(value.split()[0])
            elif key == "CHARGE":
                record["charge"] = int(value.rstrip("+"))
        elif record is not None and line:
            mz, intensity = line.split()[:2]
            record["peaks"].append((float(mz), float(intensity)))
    return records


def _merged(peaks: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort by m/z (stable) and merge peaks closer than MERGE_MZ, keeping the
    first of equals and otherwise the more intense one."""
    out: list[tuple[float, float]] = []
    for mz, intensity in sorted(peaks, key=lambda p: p[0]):
        if out and mz - out[-1][0] < MERGE_MZ:
            if intensity > out[-1][1]:
                out[-1] = (mz, intensity)
        else:
            out.append((mz, intensity))
    return out


def _windows(peaks: list[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    groups: list[list[tuple[float, float]]] = [[] for _ in range(WINDOWS)]
    if not peaks:
        return groups
    lo = peaks[0][0]
    width = (peaks[-1][0] - lo) / WINDOWS
    for peak in peaks:
        slot = 0 if width <= 0 else min(int((peak[0] - lo) / width), WINDOWS - 1)
        groups[slot].append(peak)
    return groups


def precursor_mass(pepmass: float, charge: int) -> float:
    return pepmass * charge - charge * PROTON


def preprocess(record: dict, tau: float) -> list[tuple[float, float]]:
    """Denoise, normalise and complement one record's peaks."""
    peaks = _merged(record["peaks"])
    kept = []
    for group in _windows(peaks):
        if len(group) > WINDOW_LIMIT:
            counts = Counter(round(inten, 2) for _, inten in group)
            top = max(counts.values())
            floor = min(value for value, n in counts.items() if n == top)
            kept.extend(p for p in group if p[1] >= floor)
        else:
            kept.extend(group)
    peaks = _merged(kept)
    scaled = []
    for group in _windows(peaks):
        if not group:
            continue
        roots = [math.sqrt(inten) for _, inten in group]
        top = max(roots)
        scaled.extend(
            (mz, root / top if top > 0 else 0.0) for (mz, _), root in zip(group, roots)
        )
    peaks = _merged(scaled)
    if not peaks:
        return peaks
    target = precursor_mass(record["pepmass"], record["charge"]) + 2 * PROTON
    mzs = [mz for mz, _ in peaks]
    added = []
    for mz, intensity in peaks:
        partner = target - mz
        if partner <= 0:
            continue
        at = bisect_left(mzs, partner)
        nearest = min(abs(partner - mzs[i]) for i in (at - 1, at) if 0 <= i < len(mzs))
        if nearest > tau:
            added.append((partner, intensity))
    return _merged(peaks + added) if added else peaks


def _prefix_masses(peptide: str) -> list[float]:
    out, running = [], 0.0
    for sym in peptide:
        running += MASSES[sym]
        out.append(running)
    return out


def _nearest(mzs: list[float], target: float) -> tuple[int, float]:
    """Closest peak to ``target``; a tie goes to the lower m/z."""
    at = bisect_left(mzs, target)
    left = min(max(at - 1, 0), len(mzs) - 1)
    right = min(at, len(mzs) - 1)
    d_left = abs(target - mzs[left])
    d_right = abs(mzs[right] - target)
    return (left, d_left) if d_left <= d_right else (right, d_right)


def _anchored_pairs(ions: list[float], mzs: list[float], tau: float,
                    partner_sum: float) -> tuple[int, list[bool]]:
    """Leading run of consecutive corroborated matches, as pairs; plus the
    plain match flags."""
    flags = []
    corroborated = []
    for ion in ions:
        peak, dist = _nearest(mzs, ion)
        hit = dist <= tau
        flags.append(hit)
        corroborated.append(hit and _nearest(mzs, partner_sum - mzs[peak])[1] <= 2 * tau)
    run = 0
    while run < len(corroborated) and corroborated[run]:
        run += 1
    return max(run - 1, 0), flags


def score(peptide: str, record: dict, peaks: list[tuple[float, float]], tau: float) -> dict:
    """Fitness terms of one prediction against preprocessed peaks."""
    mzs = [mz for mz, _ in peaks]
    prefix = _prefix_masses(peptide)
    whole = prefix[-1]
    b_ions = [p + PROTON for p in prefix[:-1]]
    y_ions = [(whole - p) + (WATER + PROTON) for p in reversed(prefix[:-1])]
    length = len(peptide)
    internal = [
        (prefix[end] - prefix[start - 1]) + PROTON
        for start in range(1, length - 2)
        for end in range(start + 1, length - 1)
    ]
    precursor = precursor_mass(record["pepmass"], record["charge"])
    partner_sum = precursor + 2 * PROTON
    nterm, b_hits = _anchored_pairs(b_ions, mzs, tau, partner_sum)
    cterm, y_hits = _anchored_pairs(y_ions, mzs, tau, partner_sum)
    hit_peaks = set()
    for ion in b_ions + y_ions + internal:
        peak, dist = _nearest(mzs, ion)
        if dist <= tau:
            hit_peaks.add(peak)
    total = math.fsum(inten for _, inten in peaks)
    matched = math.fsum(peaks[i][1] for i in hit_peaks)
    unmatched = b_hits.count(False) + y_hits.count(False)
    delta = precursor - (sum(MASSES[sym] for sym in peptide) + WATER)
    value = matched / total - abs(delta) / precursor + (nterm + cterm - unmatched) / length
    return {"fitness": value, "nterm": nterm, "cterm": cterm, "delta_mass_da": delta}


def matched_residues(predicted: str, truth: str, tau: float) -> int:
    """Predicted residues that align to a truth residue of the same symbol at
    the same prefix mass (within ``tau``), each truth residue used once,
    scanning left to right."""
    pred_prefix, true_prefix = _prefix_masses(predicted), _prefix_masses(truth)
    count = 0
    start = 0
    for i, sym in enumerate(predicted):
        for j in range(start, len(truth)):
            if truth[j] == sym and abs(pred_prefix[i] - true_prefix[j]) <= tau:
                count += 1
                start = j + 1
                break
    return count


def three_edge_paths(peaks: list[tuple[float, float]], tau: float) -> int:
    """Number of 3-residue paths over ascending peaks: every consecutive gap
    matches a residue mass of the 19-letter alphabet within ``tau``, one path
    per matching label. Counted by dynamic programming, not enumeration."""
    mzs = [mz for mz, _ in peaks]
    masses = list(MASSES.values())
    edges: list[list[int]] = [[] for _ in mzs]
    for i, low in enumerate(mzs):
        for j in range(i + 1, len(mzs)):
            gap = mzs[j] - low
            if gap > MAX_RESIDUE + tau:
                break
            edges[i].extend(j for mass in masses if abs(gap - mass) <= tau)
    walks = [1] * len(mzs)
    for _ in range(3):
        walks = [sum(walks[j] for j in out) for out in edges]
    return sum(walks)
