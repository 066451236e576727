"""Spectrum data model, MGF ingestion/emission and the preprocessing pipeline.

A spectrum is an immutable peak list (m/z, intensity) plus precursor metadata.
Preprocessing follows three stages: window-based noise filtering, square-root
intensity normalization per window, and complementary-peak augmentation.
Peaks within DUPLICATE_MZ_TOLERANCE of each other are merged after every
construction, keeping the higher intensity, so peak lists are strictly sorted.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from .chem import PROTON_MASS, precursor_mass

logger = logging.getLogger(__name__)

# Peaks closer than this are considered the same peak and merged.
DUPLICATE_MZ_TOLERANCE = 1e-4

# Intensities are bucketed to 2 decimals when computing the modal intensity.
_MODE_DECIMALS = 2


class MgfParseError(ValueError):
    """MGF syntax or header error, carrying the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Peak:
    """One centroided peak. ``synthetic`` marks complementary peaks added
    during preprocessing; the flag is not representable in MGF output."""

    mz: float
    intensity: float
    synthetic: bool = False


@dataclass(frozen=True)
class PreprocessConfig:
    window_count: int = 10
    max_peaks_per_window: int = 9
    tolerance: float = 0.5

    def __post_init__(self):
        if self.window_count < 1:
            raise ValueError("window_count must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Spectrum:
    """Peak list plus precursor metadata.

    Peaks and metadata are immutable. ``partner_distance`` holds, per peak, the
    distance from its precursor complement to the nearest peak; preprocessing
    and scoring both read it. Two mutable memos, left out of equality, ``repr``
    and pickling, are emptied by whoever owns the spectrum: ``scores`` maps
    (peptide, tau) to ``Individual.score`` results, and ``tag_residues`` maps
    tau to the residue strings of ``extract_tags`` (``build_init_pool``).
    """

    title: str
    pepmass: float
    charge: int
    peaks: tuple[Peak, ...]
    scores: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    tag_residues: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def precursor_mass(self) -> float:
        return precursor_mass(self.pepmass, self.charge)

    @cached_property
    def mz_array(self) -> np.ndarray:
        return np.array([p.mz for p in self.peaks], dtype=np.float64)

    @cached_property
    def intensity_array(self) -> np.ndarray:
        return np.array([p.intensity for p in self.peaks], dtype=np.float64)

    @property
    def partner_mz(self) -> np.ndarray:
        """Precursor complement of each peak: b/y partners sum to
        precursor_mass + 2 * proton."""
        return self.precursor_mass + 2 * PROTON_MASS - self.mz_array

    @cached_property
    def partner_distance(self) -> np.ndarray:
        """Distance from each peak's precursor complement to the nearest peak."""
        return nearest_peaks(self.mz_array, self.partner_mz)[1]

    @property
    def total_intensity(self) -> float:
        return float(self.intensity_array.sum())

    def __getstate__(self):
        # Cached arrays are rebuilt on demand and the memos start empty; keep
        # pickles lean.
        return (self.title, self.pepmass, self.charge, self.peaks)

    def __setstate__(self, state):
        self.__init__(*state)


def nearest_peaks(
    mz: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the closest peak in sorted ``mz`` to each target m/z, and the
    distance; ties go to the lower peak. Without peaks every index is -1 and
    every distance inf."""
    # side="left" gives mz[idx - 1] < target <= mz[idx], so with infinite
    # sentinels at both ends neither distance is negative.
    idx = np.searchsorted(mz, targets)
    padded = np.concatenate(([-np.inf], mz, [np.inf]))
    dist_left = targets - padded[idx]
    dist_right = padded[idx + 1] - targets
    take_left = dist_left <= dist_right
    return idx - take_left, np.where(take_left, dist_left, dist_right)


def make_spectrum(
    title: str, pepmass: float, charge: int, peaks: Iterable[Peak]
) -> Spectrum:
    """Build a Spectrum with sorted peaks and near-duplicate m/z merged."""
    ordered = sorted(peaks, key=lambda p: p.mz)
    merged: list[Peak] = []
    for peak in ordered:
        if peak.mz <= 0:
            raise ValueError(f"peak m/z must be positive, got {peak.mz}")
        if peak.intensity < 0:
            raise ValueError(f"peak intensity must be >= 0, got {peak.intensity}")
        if merged and peak.mz - merged[-1].mz < DUPLICATE_MZ_TOLERANCE:
            if peak.intensity > merged[-1].intensity:
                merged[-1] = peak
        else:
            merged.append(peak)
    return Spectrum(title=title, pepmass=pepmass, charge=charge, peaks=tuple(merged))


# ---------------------------------------------------------------------------
# MGF I/O
# ---------------------------------------------------------------------------


def _parse_charge(value: str, line_number: int) -> int:
    # Accept "2+", "+2", "2"; multi-charge lists ("2+ and 3+", "2+,3+") take
    # the first value.
    first = value.replace(",", " ").split()[0] if value.split() else ""
    token = first.strip()
    sign = 1
    if token.endswith("+"):
        token = token[:-1]
    elif token.endswith("-"):
        sign = -1
        token = token[:-1]
    if token.startswith("+"):
        token = token[1:]
    elif token.startswith("-"):
        sign = -1
        token = token[1:]
    if not token.isdigit():
        raise MgfParseError(f"malformed CHARGE value {value!r}", line_number)
    charge = sign * int(token)
    if charge < 1:
        raise MgfParseError(f"unsupported charge state {charge}", line_number)
    return charge


def parse_mgf(source: str | IO[str] | Iterable[str]) -> list[Spectrum]:
    """Parse MGF text into spectra.

    Records are delimited by BEGIN IONS / END IONS and must carry PEPMASS and
    CHARGE headers; TITLE is optional. Records with zero peaks are skipped
    with a warning. Malformed input raises MgfParseError with a line number.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    spectra: list[Spectrum] = []
    in_record = False
    record_start = 0
    title = ""
    pepmass: float | None = None
    charge: int | None = None
    peaks: list[Peak] = []
    line_number = 0

    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not in_record:
            if line == "BEGIN IONS":
                in_record = True
                record_start = line_number
                title, pepmass, charge, peaks = "", None, None, []
            # Anything outside records (global headers, comments) is ignored.
            continue
        if line == "BEGIN IONS":
            raise MgfParseError("BEGIN IONS inside an open record", line_number)
        if line == "END IONS":
            if pepmass is None:
                raise MgfParseError("record missing PEPMASS header", line_number)
            if charge is None:
                raise MgfParseError("record missing CHARGE header", line_number)
            if not peaks:
                logger.warning(
                    "skipping MGF record %r (line %d): no peaks",
                    title or f"record@{record_start}",
                    record_start,
                )
            else:
                try:
                    spectra.append(make_spectrum(title, pepmass, charge, peaks))
                except ValueError as exc:
                    raise MgfParseError(str(exc), line_number) from exc
            in_record = False
            continue
        if "=" in line and not line[0].isdigit():
            key, _, value = line.partition("=")
            key = key.strip().upper()
            value = value.strip()
            if key == "TITLE":
                title = value
            elif key == "PEPMASS":
                fields = value.split()
                try:
                    pepmass = float(fields[0])
                except (IndexError, ValueError):
                    raise MgfParseError(
                        f"malformed PEPMASS value {value!r}", line_number
                    ) from None
            elif key == "CHARGE":
                charge = _parse_charge(value, line_number)
            # Other headers (RTINSECONDS, SCANS, ...) are tolerated and dropped.
            continue
        fields = line.split()
        if len(fields) < 2:
            raise MgfParseError(f"malformed peak line {line!r}", line_number)
        try:
            mz, intensity = float(fields[0]), float(fields[1])
        except ValueError:
            raise MgfParseError(
                f"non-numeric peak line {line!r}", line_number
            ) from None
        peaks.append(Peak(mz=mz, intensity=intensity))

    if in_record:
        raise MgfParseError(
            f"record starting at line {record_start} missing END IONS",
            line_number or record_start,
        )
    return spectra


def emit_mgf(spectra: Iterable[Spectrum]) -> str:
    """Serialize spectra as MGF text.

    m/z and intensity are written to 6 decimal places; parse(emit(s))
    reproduces headers and peak values at that precision. The synthetic-peak
    flag has no MGF representation and is dropped.
    """
    blocks: list[str] = []
    for spec in spectra:
        lines = ["BEGIN IONS"]
        if spec.title:
            lines.append(f"TITLE={spec.title}")
        lines.append(f"PEPMASS={spec.pepmass:.6f}")
        lines.append(f"CHARGE={spec.charge}+")
        for peak in spec.peaks:
            lines.append(f"{peak.mz:.6f} {peak.intensity:.6f}")
        lines.append("END IONS")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# ---------------------------------------------------------------------------
# Preprocessing pipeline
# ---------------------------------------------------------------------------


def _window_groups(
    peaks: tuple[Peak, ...], window_count: int
) -> list[list[Peak]]:
    """Partition peaks into equal-width windows over [min mz, max mz].

    Windows are left-closed; the final window is also right-closed.
    """
    if not peaks:
        return [[] for _ in range(window_count)]
    lo, hi = peaks[0].mz, peaks[-1].mz
    width = (hi - lo) / window_count
    groups: list[list[Peak]] = [[] for _ in range(window_count)]
    for peak in peaks:
        if width <= 0:
            idx = 0
        else:
            idx = min(int((peak.mz - lo) / width), window_count - 1)
        groups[idx].append(peak)
    return groups


def _modal_intensity(peaks: list[Peak]) -> float:
    """Most frequent intensity, bucketed to 2 decimals; ties take the lowest."""
    counts = Counter(round(p.intensity, _MODE_DECIMALS) for p in peaks)
    best = max(counts.values())
    return min(value for value, n in counts.items() if n == best)


def denoise(spec: Spectrum, cfg: PreprocessConfig = PreprocessConfig()) -> Spectrum:
    """Remove likely noise peaks window by window.

    A window holding more than ``max_peaks_per_window`` peaks uses its modal
    intensity as the noise threshold and drops peaks strictly below it;
    windows at or under the limit pass through unchanged.
    """
    kept: list[Peak] = []
    for group in _window_groups(spec.peaks, cfg.window_count):
        if len(group) > cfg.max_peaks_per_window:
            threshold = _modal_intensity(group)
            kept.extend(p for p in group if p.intensity >= threshold)
        else:
            kept.extend(group)
    return make_spectrum(spec.title, spec.pepmass, spec.charge, kept)


def normalize(spec: Spectrum, cfg: PreprocessConfig = PreprocessConfig()) -> Spectrum:
    """Square-root each intensity, then scale each window to a max of 1.0."""
    out: list[Peak] = []
    for group in _window_groups(spec.peaks, cfg.window_count):
        if not group:
            continue
        rooted = [np.sqrt(p.intensity) for p in group]
        top = max(rooted)
        for peak, value in zip(group, rooted):
            scaled = value / top if top > 0 else 0.0
            out.append(replace(peak, intensity=float(scaled)))
    return make_spectrum(spec.title, spec.pepmass, spec.charge, out)


def add_complements(
    spec: Spectrum, cfg: PreprocessConfig = PreprocessConfig()
) -> Spectrum:
    """Insert missing complementary peaks.

    For each input peak whose precursor complement (``Spectrum.partner_mz``)
    has no peak within the tolerance, a synthetic peak is inserted at the
    complement carrying the originating peak's intensity. Idempotent up to the
    tolerance. Complements at non-positive m/z are skipped.
    """
    partners = spec.partner_mz
    missing = (partners > 0) & (spec.partner_distance > cfg.tolerance)
    added = [
        Peak(mz=partner, intensity=peak.intensity, synthetic=True)
        for peak, partner, add in zip(spec.peaks, partners.tolist(), missing)
        if add
    ]
    if not added:
        return spec
    return make_spectrum(
        spec.title, spec.pepmass, spec.charge, list(spec.peaks) + added
    )


def preprocess(
    spec: Spectrum,
    cfg: PreprocessConfig = PreprocessConfig(),
    complements: bool = True,
) -> Spectrum:
    """Full pipeline: denoise, normalize, then (optionally) add complements."""
    out = normalize(denoise(spec, cfg), cfg)
    if complements:
        out = add_complements(out, cfg)
    return out
