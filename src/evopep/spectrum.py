"""Spectrum data model, MGF ingestion/emission and the preprocessing pipeline.

A spectrum is two read-only arrays (m/z, intensity) plus precursor metadata.
Preprocessing follows three stages, each array code over one window index per
peak: window-based noise filtering, square-root intensity normalization per
window, and complementary-peak augmentation. Peaks within
DUPLICATE_MZ_TOLERANCE of each other are merged after every construction,
keeping the higher intensity, so m/z arrays are strictly increasing.
"""

from __future__ import annotations

import io
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .chem import PROTON_MASS, check_tolerance, left_to_right_sum, precursor_mass

if TYPE_CHECKING:  # numpy.typing would cost every process an import
    from numpy.typing import ArrayLike

logger = logging.getLogger(__name__)

# Peaks closer than this are considered the same peak and merged.
DUPLICATE_MZ_TOLERANCE = 1e-4

# Intensities are bucketed to 2 decimals when computing the modal intensity.
_MODE_DECIMALS = 2

# Denoising and normalization cut the m/z range into this many windows; a
# window holding more than _WINDOW_PEAK_LIMIT peaks is noise-filtered.
_WINDOW_COUNT = 10
_WINDOW_PEAK_LIMIT = 9


class MgfParseError(ValueError):
    """MGF syntax or header error, carrying the offending line number and,
    as ``reason``, the message without it."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.reason = message


class Peak(NamedTuple):
    """One centroided peak, as listed by ``Spectrum.peaks``."""

    mz: float
    intensity: float


@dataclass(frozen=True)
class PreprocessConfig:
    tolerance: float = 0.5

    def __post_init__(self):
        check_tolerance("tolerance", self.tolerance)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Peak arrays plus precursor metadata; build one with ``make_spectrum``.

    ``mz`` (strictly increasing) and ``intensity`` are read-only float64
    arrays, and the metadata is immutable. Equality compares the title,
    precursor and peaks. ``partner_distance`` holds, per peak, the
    distance from its precursor complement to the nearest peak; preprocessing
    and scoring both read it.
    """

    title: str
    pepmass: float
    charge: int
    mz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        self.mz.flags.writeable = False
        self.intensity.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            (self.title, self.pepmass, self.charge)
            == (other.title, other.pepmass, other.charge)
            and np.array_equal(self.mz, other.mz)
            and np.array_equal(self.intensity, other.intensity)
        )

    @property
    def peaks(self) -> tuple[Peak, ...]:
        """The peaks as (mz, intensity) pairs, rebuilt on every access."""
        return tuple(map(Peak, self.mz.tolist(), self.intensity.tolist()))

    @cached_property
    def precursor_mass(self) -> float:
        return precursor_mass(self.pepmass, self.charge)

    @property
    def partner_mz(self) -> np.ndarray:
        """Precursor complement of each peak: b/y partners sum to
        precursor_mass + 2 * proton."""
        return self.precursor_mass + 2 * PROTON_MASS - self.mz

    @cached_property
    def partner_distance(self) -> np.ndarray:
        """Distance from each peak's precursor complement to the nearest peak."""
        return nearest_peaks(self.mz, self.partner_mz)[1]

    @cached_property
    def total_intensity(self) -> float:
        return left_to_right_sum(self.intensity.tolist())

    def __getstate__(self):
        # The cached properties are rebuilt on demand; keep pickles lean.
        return (self.title, self.pepmass, self.charge, self.mz, self.intensity)

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
    return idx - take_left, np.minimum(dist_left, dist_right)


def make_spectrum(
    title: str, pepmass: float, charge: int, mz: ArrayLike, intensity: ArrayLike
) -> Spectrum:
    """Build a Spectrum with peaks in stable m/z order and near-duplicates
    merged: a peak closer than DUPLICATE_MZ_TOLERANCE to the last kept peak
    replaces it only when more intense, so of equal peaks the first stays."""
    mz = np.asarray(mz, dtype=np.float64)
    intensity = np.asarray(intensity, dtype=np.float64)
    if mz.ndim != 1 or mz.shape != intensity.shape:
        raise ValueError("m/z and intensity must be lists of equal length")
    for name, values, valid, rule in (
        ("m/z", mz, mz > 0, "positive"),
        ("intensity", intensity, intensity >= 0, ">= 0"),
    ):
        bad = values[~valid | ~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"peak {name} must be finite and {rule}, got {bad[0]}")
    order = np.argsort(mz, kind="stable")
    mz, intensity = mz[order], intensity[order]
    if (np.diff(mz) < DUPLICATE_MZ_TOLERANCE).any():
        values, heights = mz.tolist(), intensity.tolist()
        kept = [0]
        for i in range(1, len(values)):
            if values[i] - values[kept[-1]] < DUPLICATE_MZ_TOLERANCE:
                if heights[i] > heights[kept[-1]]:
                    kept[-1] = i
            else:
                kept.append(i)
        mz, intensity = mz[kept], intensity[kept]
    return Spectrum(title, pepmass, charge, mz, intensity)


# ---------------------------------------------------------------------------
# MGF I/O
# ---------------------------------------------------------------------------


def is_comment(line: str) -> bool:
    """Whether an input line is a comment: its first non-space character is
    '#'."""
    return line.lstrip().startswith("#")


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(number, line) for each line of ``lines`` that is neither blank nor a
    comment, numbered from 1 over all lines. Every input file, MGF, TSV, list
    or config, skips lines by this rule."""
    for number, line in enumerate(lines, start=1):
        if line.strip() and not is_comment(line):
            yield number, line


def _parse_charge(value: str, line_number: int) -> int:
    # Accept "2+", "+2", "2"; multi-charge lists ("2+ and 3+", "2+,3+") take
    # the first value. Either sign may be "-", and then the charge is negative.
    first = (value.replace(",", " ").split() or [""])[0]
    match = re.fullmatch(r"([+-]?)(\d+)([+-]?)", first)
    try:
        if match is None:
            raise ValueError
        lead, digits, trail = match.groups()
        charge = (-1 if "-" in lead + trail else 1) * int(digits)
    except ValueError:  # not digits, or more digits than int() reads
        raise MgfParseError(f"malformed CHARGE value {value!r}", line_number) from None
    if charge < 1:
        raise MgfParseError(f"unsupported charge state {charge}", line_number)
    return charge


def parse_mgf(source: str | IO[str] | Iterable[str]) -> list[Spectrum]:
    """Parse MGF text into spectra.

    Records are delimited by BEGIN IONS / END IONS and must carry PEPMASS and
    CHARGE headers; TITLE is optional. A CHARGE line outside the records is
    the charge of the records after it that give none. Records with zero
    peaks are skipped with a warning. Malformed input raises MgfParseError
    with a line number. Text given as a ``str`` is split into lines at
    "\n", "\r\n" or "\r" only, as the command line splits a file, so a
    form feed or U+2028 stays inside its line.
    """
    lines = io.StringIO(source, newline="") if isinstance(source, str) else source

    spectra: list[Spectrum] = []
    in_record = False
    record_start = 0
    title = ""
    pepmass: float | None = None
    pepmass_line = 0
    charge: int | None = None
    # The value and line of the last global CHARGE. It is parsed only when a
    # record needs it, so a file whose records all give a CHARGE parses as
    # it would without one.
    global_charge: tuple[str, int] | None = None
    mzs: list[float] = []
    intensities: list[float] = []
    line_number = 0

    for line_number, raw in content_lines(lines):
        line = raw.strip()
        if not in_record:
            if line == "BEGIN IONS":
                in_record = True
                record_start = line_number
                title, pepmass, charge = "", None, None
                mzs, intensities = [], []
            else:
                key, equals, value = line.partition("=")
                if equals and key.strip().upper() == "CHARGE":
                    global_charge = (value.strip(), line_number)
            # Any other line outside records is ignored.
            continue
        if line == "BEGIN IONS":
            raise MgfParseError("BEGIN IONS inside an open record", line_number)
        if line == "END IONS":
            if pepmass is None:
                raise MgfParseError("record missing PEPMASS header", line_number)
            if charge is None:
                if global_charge is None:
                    raise MgfParseError("record missing CHARGE header", line_number)
                charge = _parse_charge(*global_charge)
            try:
                precursor_mass(pepmass, charge)
            except ValueError as exc:
                raise MgfParseError(str(exc), pepmass_line) from None
            if not mzs:
                logger.warning(
                    "skipping MGF record %r (line %d): no peaks",
                    title or f"record@{record_start}",
                    record_start,
                )
            else:
                spectra.append(make_spectrum(title, pepmass, charge, mzs, intensities))
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
                if not math.isfinite(pepmass):
                    raise MgfParseError(
                        f"PEPMASS must be finite, got {value!r}", line_number
                    )
                if pepmass <= 0:
                    raise MgfParseError(
                        f"PEPMASS must be positive, got {value!r}", line_number
                    )
                pepmass_line = line_number
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
        # make_spectrum's own checks, made here to name the line.
        if not 0 < mz < math.inf:
            raise MgfParseError(
                f"peak m/z must be finite and positive, got {mz}", line_number
            )
        if not 0 <= intensity < math.inf:
            raise MgfParseError(
                f"peak intensity must be finite and >= 0, got {intensity}", line_number
            )
        mzs.append(mz)
        intensities.append(intensity)

    if in_record:
        raise MgfParseError(
            f"record starting at line {record_start} missing END IONS",
            line_number or record_start,
        )
    return spectra


def emit_mgf(spectra: Iterable[Spectrum]) -> str:
    """Serialize spectra as MGF text.

    m/z and intensity are written to 6 decimal places; parse(emit(s))
    reproduces headers and peak values at that precision. Peaks are merged
    by ``make_spectrum`` on the values written, so every peak line written
    is a peak that parsing keeps.
    """
    blocks: list[str] = []
    for spec in spectra:
        written = [
            [float(f"{x:.6f}") for x in values.tolist()]
            for values in (spec.mz, spec.intensity)
        ]
        spec = make_spectrum(spec.title, spec.pepmass, spec.charge, *written)
        lines = ["BEGIN IONS"]
        if spec.title:
            lines.append(f"TITLE={spec.title}")
        lines.append(f"PEPMASS={spec.pepmass:.6f}")
        lines.append(f"CHARGE={spec.charge}+")
        for mz, intensity in zip(spec.mz.tolist(), spec.intensity.tolist()):
            lines.append(f"{mz:.6f} {intensity:.6f}")
        lines.append("END IONS")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# ---------------------------------------------------------------------------
# Preprocessing pipeline
# ---------------------------------------------------------------------------


def _window_index(mz: np.ndarray) -> np.ndarray:
    """Window of each peak among _WINDOW_COUNT equal-width windows over
    [min mz, max mz].

    Windows are left-closed; the final window is also right-closed.
    """
    if len(mz) < 2:
        return np.zeros(len(mz), dtype=np.intp)
    width = (mz[-1] - mz[0]) / _WINDOW_COUNT
    return np.minimum(((mz - mz[0]) / width).astype(np.intp), _WINDOW_COUNT - 1)


def _modal_intensity(intensity: np.ndarray) -> float:
    """Most frequent intensity, bucketed to 2 decimals; ties take the lowest."""
    # Python's round is exact on doubles; numpy documents np.round as not.
    counts = Counter(round(x, _MODE_DECIMALS) for x in intensity.tolist())
    best = max(counts.values())
    return min(value for value, n in counts.items() if n == best)


def denoise(spec: Spectrum) -> Spectrum:
    """Remove likely noise peaks window by window.

    A window holding more than ``_WINDOW_PEAK_LIMIT`` peaks uses its modal
    intensity as the noise threshold and drops peaks strictly below it;
    windows at or under the limit pass through unchanged.
    """
    window = _window_index(spec.mz)
    keep = np.ones(len(window), dtype=bool)
    for w in np.flatnonzero(np.bincount(window) > _WINDOW_PEAK_LIMIT):
        members = window == w
        threshold = _modal_intensity(spec.intensity[members])
        keep[members] = spec.intensity[members] >= threshold
    return make_spectrum(
        spec.title, spec.pepmass, spec.charge, spec.mz[keep], spec.intensity[keep]
    )


def normalize(spec: Spectrum) -> Spectrum:
    """Square-root each intensity, then scale each window to a max of 1.0."""
    window = _window_index(spec.mz)
    rooted = np.sqrt(spec.intensity)
    top = np.zeros(_WINDOW_COUNT)
    np.maximum.at(top, window, rooted)
    top = top[window]
    scaled = np.divide(rooted, top, out=np.zeros_like(rooted), where=top > 0)
    return make_spectrum(spec.title, spec.pepmass, spec.charge, spec.mz, scaled)


def add_complements(
    spec: Spectrum, cfg: PreprocessConfig = PreprocessConfig()
) -> Spectrum:
    """Insert missing complementary peaks.

    For each input peak whose precursor complement (``Spectrum.partner_mz``)
    has no peak within the tolerance, a peak is inserted at the complement
    carrying the originating peak's intensity. Idempotent up to the
    tolerance. Complements at non-positive m/z are skipped.
    """
    partners = spec.partner_mz
    missing = (partners > 0) & (spec.partner_distance > cfg.tolerance)
    if not missing.any():
        return spec
    mz = np.concatenate([spec.mz, partners[missing]])
    intensity = np.concatenate([spec.intensity, spec.intensity[missing]])
    return make_spectrum(spec.title, spec.pepmass, spec.charge, mz, intensity)


def preprocess(spec: Spectrum, cfg: PreprocessConfig = PreprocessConfig()) -> Spectrum:
    """Full pipeline: denoise, normalize, then add complements."""
    return add_complements(normalize(denoise(spec)), cfg)
