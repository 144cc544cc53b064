"""Spectrum sweep ingestion.

Reads sweep CSV files in the hackrf_sweep layout (one row per frequency
slice, rows sharing a timestamp form one sweep), bins the slices onto a
band plan, and maintains a rolling window of sweeps from which per-band
mean power and the transmitter band set are derived.

A file is read READ_BLOCK bytes at a time, each block decoded and split into
rows at once (a row cut by the block's end carried into the next), so the
reader holds one block and its rows whatever the file's size, and a pipe is
read as its data arrives. The rows feed the one parse loop,
``parse_sweep_lines``.

A band plan is three numbers (low edge, high edge and band width); band
edges are computed, never stored. A row's
timestamp is parsed by strptime's grammar only when its raw text changes
(the date validated and the minute's microseconds worked out once per
minute), and its slice checked and bins placed by arithmetic lookups once
per distinct row layout per file (MAX_LAYOUT_RUNS bounds what is kept). A
layout is a row's hz text as written and its cell count; the memo keeps a
one-cell layout's band id and a wider one's runs of bins. Any later row of a
known layout takes one hit path: the stamp fields split off the front, as
many cells off the back as the last row had (so what is left is the hz text
only if the row has that many), a lookup, and the cells converted and
checked. Every other row (a layout's first, a cell count other than the
last row's, a trailing comma, an empty or unreadable cell, too few fields, a
value out of bounds) goes unchanged to the one checker, which splits every
field, places a new layout, orders the checks and words the errors. A band's
mean is the running left-to-right sum of its values in the sweep, divided by
their count once, when the sweep ends; a sweep whose bands arrive in
ascending order is not sorted. The parser builds its records without
SweepRecord's checks, since every value it stores has just been checked;
any other SweepRecord is checked when built.
Window statistics built from checked records are not re-checked, and one
window call gives the means of every selected band. A bounded window keeps
each held sweep's band ids, not the sweep, and sums each band's values on
every call but rescans them for their extremes only when its oldest and
newest values lie within CLAMP_FREE_SPREAD * count**2 of each other, the one
case where rounding could put the mean outside them.
"""

from __future__ import annotations

import codecs
import io
import math
import re
from collections import deque
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import chain
from numbers import Integral
from typing import BinaryIO, Generator, Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigError, InputError, InsufficientAnchorsError, MissingBandError, SweepParseError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_DAY = _EPOCH.toordinal()

# Largest uniform plan: hackrf_sweep's finest bins over 6 GHz come to ~2.5e6
MAX_PLAN_BANDS = 1_000_000
# Largest |dB| a sweep cell or a SweepRecord band may hold. Received power
# lies within about -150..+30 dB; a value outside this bound (or not finite)
# is corrupt input, not a weak or strong signal. It also keeps every band
# mean finite.
MAX_ABS_DB = 200.0
# Lowest centre a plan's first band may have: 1 kHz, below every receiver's
# tuning range. A range is 10**((pl - pl0) / (10 n)) m with
# pl0 = 20 log10(fc) - 27.55. With tx power and RSS within +-MAX_ABS_DB
# (so pl = tx - rss <= 400 dB), n >= 1.5 and fc >= 1e-3 MHz, every range
# stays below about 3e32 m. A centre of 1e-300 MHz puts about -6,000 dB
# into pl0 and overflows every range; any floor above about 1e-200 MHz
# keeps ranges finite.
MIN_CENTER_MHZ = 1e-3
# A bounded window's band mean needs no clamp into its samples' range when its
# oldest and newest of n samples differ by more than CLAMP_FREE_SPREAD * n**2.
# The spread d = |newest - oldest| is at most max - min, so the exact mean lies
# at least d / n inside [min, max]. Summed left to right from 0.0, the n - 1
# roundings err by at most gamma(n-1) * n * MAX_ABS_DB, gamma(k) = k u / (1 - k u)
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2), and
# the division adds u * |mean|: with u = 2**-53 the computed mean is within
# n u MAX_ABS_DB (1 + O(n u)) of the exact one, less than d / n by a factor of
# about 8, so it lies strictly inside [min, max] and clamping leaves its bits.
CLAMP_FREE_SPREAD = 8.0 * 2.0 ** -53 * MAX_ABS_DB
# Most runs of bins one parse keeps for its row layouts before it clears them:
# a hackrf_sweep pass over 6 GHz (~1,200 layouts of a few runs each) fits, in ~5 MB.
MAX_LAYOUT_RUNS = 1 << 16
# Most bytes one read of a sweep file asks for: a route file (~100 kB, six
# ~85 B rows per sweep) takes two reads, so a read's cost lands on about one
# sweep in 128. A pipe's read returns what it holds, not waiting for a block.
READ_BLOCK = 1 << 16
# Most minutes one parse keeps in its timestamp memo before it clears it: about
# three days of a file written in one spelling.
MAX_MEMO_MINUTES = 1 << 12


class BandSample(NamedTuple):
    band_id: int
    rss_dbm: float


@dataclass(frozen=True)
class SweepRecord:
    """One full pass over the swept spectrum.

    ``timestamp`` is UTC epoch seconds at microsecond granularity;
    ``rss_by_id`` maps band id to received power (dB) in ascending id order.
    """

    timestamp: float
    rss_by_id: dict[int, float]

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        prev_id = None
        for band_id, rss in self.rss_by_id.items():
            if prev_id is not None and band_id <= prev_id:
                raise ValueError("band ids must be strictly increasing")
            prev_id = band_id
            if not -MAX_ABS_DB <= rss <= MAX_ABS_DB:  # NaN fails too
                raise ValueError(f"band {band_id}: rss {rss!r} outside [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]")

    @property
    def bands(self) -> tuple[BandSample, ...]:
        return tuple(map(BandSample._make, self.rss_by_id.items()))


@dataclass(frozen=True)
class BandPlan:
    """Equal-width bands over the swept spectrum, as three numbers.

    Band ``i`` of ``count = round((high_mhz - low_mhz) / width_mhz)`` spans
    ``[low_mhz + i * width_mhz, low_mhz + (i + 1) * width_mhz)``; edges are
    computed when asked for, so a plan holds no band.
    """

    low_mhz: float
    high_mhz: float
    width_mhz: float
    count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        low, width = self.low_mhz, self.width_mhz
        if not (width > 0 and low < self.high_mhz < math.inf):
            raise ConfigError("invalid uniform plan bounds")
        count = int(round(min((self.high_mhz - low) / width, MAX_PLAN_BANDS + 1)))  # min keeps round() off inf
        if count > MAX_PLAN_BANDS:
            raise ConfigError(f"uniform plan asks for more than {MAX_PLAN_BANDS} bands")
        # A computed edge is within one ulp of the top edge of its exact value: at
        # four ulps no band is empty and band_at's estimate is at most one band off.
        top = low + count * width
        if not width >= 4.0 * math.ulp(top):
            raise ConfigError(f"bands of {width!r} MHz are below the float resolution at {top!r} MHz: empty band")
        if not (low >= 0.0 and (low + (low + width)) / 2.0 >= MIN_CENTER_MHZ):
            raise ConfigError(f"plan must lie above 0 MHz, its first band centred at {MIN_CENTER_MHZ:g} MHz or above")
        object.__setattr__(self, "count", count)

    @classmethod
    def uniform(cls, low_mhz: float = 0.0, high_mhz: float = 3500.0, width_mhz: float = 1.0) -> "BandPlan":
        """The plan from its three numbers; the defaults are 3,500 1-MHz bands from 0 MHz."""
        return cls(float(low_mhz), float(high_mhz), float(width_mhz))

    def band_at(self, freq_mhz: float) -> int | None:
        """Id of the band holding ``freq_mhz``, or None outside the plan."""
        low, width = self.low_mhz, self.width_mhz
        position = (freq_mhz - low) / width
        if not -1.0 < position < self.count + 1:  # NaN and inf fail before int()
            return None
        band_id = int(position)  # at most one band off (see __post_init__)
        if freq_mhz < low + band_id * width:
            band_id -= 1
        elif freq_mhz >= low + (band_id + 1) * width:
            band_id += 1
        return band_id if 0 <= band_id < self.count else None

    def edges_mhz(self, band_id: int) -> tuple[float, float]:
        if not 0 <= band_id < self.count:
            raise KeyError(f"unknown band id {band_id}")
        return self.low_mhz + band_id * self.width_mhz, self.low_mhz + (band_id + 1) * self.width_mhz

    def center_mhz(self, band_id: int) -> float:
        low, high = self.edges_mhz(band_id)
        return (low + high) / 2.0


# strptime's pattern for "%Y-%m-%d %H:%M:%S.%f" with the fraction optional; a
# space in a strptime format matches any run of whitespace. Seconds 60 and 61,
# which strptime's grammar takes and datetime then rejects, do not match.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"\s+(2[0-3]|[0-1]\d|\d):([0-5]\d|\d):([0-5]\d|\d)(?:\.([0-9]{1,6}))?"
)


def parse_timestamp(date_text: str, time_text: str, minutes: dict | None = None) -> float:
    """Epoch seconds (UTC) from the two leading CSV fields.

    Accepts what ``datetime.strptime`` accepts for ``%Y-%m-%d %H:%M:%S.%f``
    or ``%Y-%m-%d %H:%M:%S``, and returns the same value: whole microseconds
    since the epoch divided by 10**6, as ``timedelta.total_seconds`` divides
    them. ``minutes``, kept by the caller for one file, memoizes the epoch
    microseconds at the start of each minute seen, keyed by the text up to
    the minute and stored only once its date is valid; it holds at most
    MAX_MEMO_MINUTES of them. A stamp of a memoized minute whose second is
    spelled "SS.ffffff" is read without the pattern match.
    """
    text = f"{date_text} {time_text}"
    minutes = {} if minutes is None else minutes
    head, _, second = text.rpartition(":")  # of a valid stamp, the text up to the minute
    minute_us = minutes.get(head)  # the groups up to the minute follow from this text alone
    if minute_us is not None and len(second) == 9 and second[2] == "." and second[0] <= "5" and second.isascii() and (
            digits := second.replace(".", "", 1)).isdigit():  # the match below would agree
        return (minute_us + int(digits)) / 1_000_000
    match = _TIMESTAMP.match(text)
    if match is None or match.end() != len(text):
        raise ValueError(f"unrecognised timestamp {text!r}")
    if minute_us is None:
        year, month, day, hour, minute = map(int, match.group(1, 2, 3, 4, 5))
        try:  # a date that does not exist, such as Feb 29 outside a leap year, fails
            day = date(year, month, day).toordinal() - _EPOCH_DAY
        except ValueError:
            raise ValueError(f"unrecognised timestamp {text!r}") from None
        if len(minutes) >= MAX_MEMO_MINUTES:
            minutes.clear()
        minute_us = minutes[head] = ((day * 24 + hour) * 60 + minute) * 60_000_000
    return (minute_us + int(match[6] + (match[7] or "").ljust(6, "0"))) / 1_000_000


def format_timestamp(timestamp: float) -> tuple[str, str]:
    """Inverse of :func:`parse_timestamp` at microsecond granularity."""
    micros = round(timestamp * 1e6)
    stamp = _EPOCH + timedelta(microseconds=micros)
    # isoformat pads a year below 1000 to the four digits the parser reads; strftime's %Y does not
    return stamp.date().isoformat(), stamp.strftime("%H:%M:%S.%f")


def _record(timestamp: float, sums: dict[int, float], counts: dict[int, int], ordered: bool) -> SweepRecord:
    """The record of a parsed sweep, from the running sums of its bands."""
    if counts:  # emptied for the next sweep
        for band_id, count in counts.items():  # a single value's mean is its sum, 0.0 + v
            sums[band_id] /= count
        counts.clear()
    # built without __post_init__, whose checks hold already: the stamp is finite, the ids ascend,
    # and rounding is monotone, so a partial sum of k cells within +-MAX_ABS_DB lies within
    # k * MAX_ABS_DB (exact in a float) and their mean within MAX_ABS_DB
    record = object.__new__(SweepRecord)
    fields = record.__dict__
    fields["timestamp"] = timestamp
    fields["rss_by_id"] = sums if ordered else dict(sorted(sums.items()))
    return record


def parse_sweep_lines(lines: Iterable[str], plan: BandPlan) -> Generator[SweepRecord, None, bool]:
    """Yield one SweepRecord per group of rows sharing a timestamp.

    Raises SweepParseError (with the offending line number) on malformed
    rows, on a dB value beyond +-MAX_ABS_DB, and on a sweep whose timestamp
    is not later than the previous sweep's. An empty input yields nothing;
    the generator returns whether it yielded a sweep.
    """
    band_at, limit, nan = plan.band_at, MAX_ABS_DB, math.nan
    date_text = time_text = None  # the raw timestamp fields of the last row
    pending_date = pending_time = None  # the stripped timestamp fields of the pending sweep
    pending_ts = 0.0
    sums: dict[int, float] = {}  # band id -> the left-to-right sum of its values in the pending sweep, from 0.0
    counts: dict[int, int] = {}  # band id -> how many values it has, for a band with more than one
    ordered, top = True, -1  # whether sums' ids arrived ascending; the highest of them
    minutes: dict = {}  # parse_timestamp's minute memo, for this parse alone
    # the row layouts seen, each stored once its row passed, under its hz text (its hz fields as written,
    # "hz_low,hz_high,hz_width,num_samples"): a one-cell layout's -> its band id (or None); a layout of
    # n > 1 cells' (hz text, n) -> the runs (band_id, first_bin, end_bin) of its in-plan bins
    layouts: dict[str | tuple[str, int], int | None | list[tuple[int, int, int]]] = {}
    held = 0  # runs held in layouts, a layout counting at least one
    n = 1  # the last row's cell count

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        # the hit path: a row of a known layout of n cells, each a number in bounds, costs two splits (the
        # stamp fields off the front, n cells off the back; its hz text is what is left only if the row
        # has n cells), one lookup and the cells' conversion. Any other row, and any error, goes to the
        # checker below, which places a new layout, orders the checks and words the messages.
        try:
            row_date, row_time, rest = line.split(",", 2)
        except ValueError:  # fewer than three fields
            rest = ""
        cells = rest.rpartition(",") if n == 1 else rest.rsplit(",", n)  # rpartition: the faster split of one
        bins = layouts.get(cells[0] if n == 1 else (cells[0], n), layouts)  # layouts itself: not known
        rss = nan  # stays NaN unless the hit path reads the row
        if bins is not layouts:
            try:
                if n == 1:
                    rss = float(cells[2])  # float() ignores the whitespace around a field
                else:
                    del cells[0]
                    rss_values = list(map(float, cells))
                    for rss in rss_values:  # stops at the first value out of bounds, else checks the last twice
                        if not -limit <= rss <= limit:
                            break
            except ValueError:
                pass
        if not -limit <= rss <= limit:  # NaN fails too: the checker
            parts = line.split(",")
            if line[-1] == ",":
                parts.pop()
            n = len(parts) - 6  # date, time, hz_low, hz_high, hz_bin_width, num_samples, then n dB cells
            if n < 1:
                raise SweepParseError(line_no, f"expected at least 7 fields, got {len(parts)}")
            hz_text = ",".join(parts[2:6])
            layout = hz_text if n == 1 else (hz_text, n)
            bins = layouts.get(layout, layouts)
            try:
                rss_values = list(map(float, parts[6:]))
                if bins is layouts:
                    hz_low, hz_high, hz_width, _ = map(float, parts[2:6])  # num_samples, unused
            except ValueError:
                raise SweepParseError(line_no, f"bad numeric field in {line!r}") from None
            if bins is layouts:  # a new layout: its slice checked and its bins placed once per parse
                if not (0.0 < hz_width < math.inf and -math.inf < hz_low < hz_high < math.inf):  # NaN fails
                    raise SweepParseError(line_no, "invalid frequency slice bounds")
                runs = []
                for i in range(n):
                    band_id = band_at((hz_low + hz_width * i + hz_width / 2.0) / 1e6)
                    if runs and runs[-1][0] == band_id and runs[-1][2] == i:
                        runs[-1] = (band_id, runs[-1][1], i + 1)
                    elif band_id is not None:
                        runs.append((band_id, i, i + 1))
                held += len(runs) + 1
                if held > MAX_LAYOUT_RUNS:  # full: start again from this layout
                    layouts.clear()
                    held = len(runs) + 1
                bins = layouts[layout] = band_id if n == 1 else runs
            for rss in rss_values:
                if not -limit <= rss <= limit:  # NaN fails too
                    raise SweepParseError(line_no, f"dB value {rss!r} outside [-{limit:g}, {limit:g}]")
            row_date, row_time = parts[0], parts[1]

        # rows of one sweep share the timestamp text, so it is stripped and
        # parsed once per sweep
        if row_time != time_text or row_date != date_text:
            date_text, time_text = row_date, row_time
            stamp_date, stamp_time = row_date.strip(), row_time.strip()
            if stamp_time != pending_time or stamp_date != pending_date:
                try:
                    timestamp = parse_timestamp(stamp_date, stamp_time, minutes)
                except ValueError as exc:
                    raise SweepParseError(line_no, str(exc)) from None
                if pending_date is not None:
                    if timestamp <= pending_ts:
                        raise SweepParseError(line_no, "timestamp decreased or repeated across sweeps")
                    yield _record(pending_ts, sums, counts, ordered)
                    sums, ordered, top = {}, True, -1
                pending_date, pending_time, pending_ts = stamp_date, stamp_time, timestamp

        # values add in row and bin order, so each band's sum runs left to right
        if n > 1:
            for band_id, first, end in bins:
                total = sums.get(band_id)
                if total is None:
                    if band_id > top:
                        top = band_id
                    else:
                        ordered = False
                    total, count = 0.0, end - first
                else:
                    count = counts.get(band_id, 1) + end - first
                for rss in rss_values[first:end]:
                    total += rss
                sums[band_id] = total
                if count > 1:
                    counts[band_id] = count
        elif bins is not None:  # bins: the row's band id
            if bins > top:  # above every band of the sweep so far: new to it, and in order
                sums[bins], top = 0.0 + rss, bins
            elif (total := sums.get(bins)) is None:
                sums[bins], ordered = 0.0 + rss, False
            else:
                sums[bins], counts[bins] = total + rss, counts.get(bins, 1) + 1

    if pending_date is not None:
        yield _record(pending_ts, sums, counts, ordered)
    return pending_date is not None


def _row_blocks(handle: BinaryIO) -> Iterator[list[str]]:
    r"""The rows of a binary file, one list per read of at most READ_BLOCK bytes.

    Decoded as ``open(path, "r", encoding="ascii", errors="surrogateescape")``
    decodes (universal newlines: ``\r`` and ``\r\n`` read as ``\n``, even
    when a ``\r\n`` is split between two reads); a row cut by the end of a
    read is carried into the next one, and no row keeps its newline.
    """
    decoder = codecs.getincrementaldecoder("ascii")("surrogateescape")
    decode = io.IncrementalNewlineDecoder(decoder, translate=True).decode
    read, cut = handle.read1, []  # the pieces of the row cut by the end of the last read
    while block := read(READ_BLOCK):
        rows = decode(block).split("\n")
        cut.append(rows[0])
        if len(rows) > 1:  # joined once, so a row over many blocks costs linear time
            rows[0] = "".join(cut)
            cut = [rows.pop()]
            yield rows
        block = rows = None  # neither is held while the next block is read
    last = "".join(cut) + decode(b"", True)  # a final "\r", held back by the decoder, comes out as "\n"
    if last:
        yield [last.removesuffix("\n")]


def parse_sweep_file(path, plan: BandPlan) -> Iterator[SweepRecord]:
    """Stream SweepRecords from a sweep CSV file; a parse error, or a file with no sweep, names the file.

    The file is read one block of at most READ_BLOCK bytes at a time and its
    rows split a block at a time, so the reader holds one block and its rows,
    whatever the file's size. A pipe is read as its data arrives: a sweep is
    yielded once the first row of the next one (or the end) has come.
    """
    # a non-ASCII byte decodes to a lone surrogate, which no field accepts
    with open(path, "rb") as handle:
        try:
            swept = yield from parse_sweep_lines(chain.from_iterable(_row_blocks(handle)), plan)
        except SweepParseError as exc:
            raise SweepParseError(exc.line_no, exc.message, path) from None
    if not swept:
        raise InputError(f"{path}: no sweeps")


def format_sweep_lines(records: Iterable[SweepRecord], plan: BandPlan) -> Iterator[str]:
    """Serialize records back to sweep CSV rows (one row per band).

    Float dB values use shortest round-trip formatting so that
    parse(format(records)) reproduces the records exactly.
    """
    for record in records:
        date_text, time_text = format_timestamp(record.timestamp)
        for band_id, rss in record.rss_by_id.items():
            low_mhz, high_mhz = plan.edges_mhz(band_id)
            yield (
                f"{date_text}, {time_text}, {_hz(low_mhz)}, {_hz(high_mhz)}, "
                f"{_hz(high_mhz - low_mhz)}, 1, {rss!r}"
            )


def write_sweep_csv(records: Iterable[SweepRecord], path, plan: BandPlan) -> int:
    """Write records as sweep CSV; returns the number of rows written."""
    rows = 0
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for line in format_sweep_lines(records, plan):
            handle.write(line + "\n")
            rows += 1
    return rows


def _hz(mhz: float) -> str:
    hz = mhz * 1e6
    if hz == int(hz):
        return str(int(hz))
    return repr(hz)


def select_transmit_bands(means: Mapping[int, float], count: int) -> list[int]:
    """Pick the ``count`` strongest bands of a band id -> mean power map.

    Ties break toward the lower band id; output order is strongest first
    and is a deterministic function of the input.
    """
    if len(means) < count:
        raise InsufficientAnchorsError(f"need {count} usable bands, have {len(means)}")
    return sorted(means, key=lambda band_id: (-means[band_id], band_id))[:count]


class SweepWindow:
    """Rolling window over the most recent sweeps, with per-band statistics.

    ``length`` of None keeps every sweep (growing window). Per-band state is
    updated as sweeps are pushed and evicted: a bounded window keeps each
    band's values in arrival order (and the band ids of its last ``length``
    sweeps, to evict: after :meth:`keep_only`, the one kept set for every
    sweep that holds all kept bands, so such a push builds no set), a growing
    one a running sum, count, minimum and maximum; neither holds a record.
    Per sweep, ``push`` costs O(K) in the sweep's band count; ``means_dbm``
    costs O(1) per band for a growing window and O(length) per band for a
    bounded one, one summing pass, plus a pass for the extremes only when a
    band's oldest and newest values nearly agree (see ``CLAMP_FREE_SPREAD``);
    ``persistent_band_ids`` costs O(B) in the bands seen in the window. None
    of them depends on how many sweeps a growing window holds.
    After :meth:`keep_only`, every query sees the kept bands alone.
    """

    def __init__(self, length: int | None):
        if length is not None and not (isinstance(length, Integral) and length >= 1):
            raise ValueError("window length must be a positive integer or None")
        self._length = length
        self._count = 0  # sweeps in the window
        # bounded only: each held sweep's band ids (after keep_only, its kept ones, shared), to evict
        self._held: deque[Iterable[int]] = deque()
        # band id -> deque of values (bounded) or [sum, count, min, max] (growing);
        # either way a band's sample count is the number of sweeps holding it
        self._bands: dict[int, deque[float] | list] = {}
        self._kept: frozenset[int] | None = None

    def keep_only(self, band_ids: Iterable[int]) -> None:
        """Keep state for ``band_ids`` alone from now on (called once): the
        others' is dropped, each held sweep's band ids are cut to the kept
        ones once, here, and ``push`` skips the others. A kept band that
        leaves a bounded window is tracked again on return."""
        kept = self._kept = frozenset(band_ids)
        self._bands = {band_id: v for band_id, v in self._bands.items() if band_id in kept}
        self._held = deque(ids & kept for ids in self._held)

    def push(self, record: SweepRecord) -> None:
        bands, rss_by_id, kept = self._bands, record.rss_by_id, self._kept
        ids = rss_by_id.keys()
        held = ids if kept is None else kept if kept <= ids else ids & kept  # kept itself when the sweep has it all
        if self._length is None:
            for band_id in held:
                rss = rss_by_id[band_id]
                acc = bands.get(band_id)
                if acc is None:
                    acc = bands[band_id] = [0.0, 0, rss, rss]
                acc[0] += rss
                acc[1] += 1
                if rss < acc[2]:
                    acc[2] = rss
                elif rss > acc[3]:
                    acc[3] = rss
            self._count += 1
        else:
            held_ids = self._held
            if len(held_ids) == self._length:
                for band_id in held_ids.popleft():
                    values = bands[band_id]
                    values.popleft()
                    if not values:
                        del bands[band_id]
            for band_id in held:
                try:
                    bands[band_id].append(rss_by_id[band_id])
                except KeyError:  # the band is new to the window
                    bands[band_id] = deque((rss_by_id[band_id],))
            held_ids.append(held)
            self._count = len(held_ids)

    def __len__(self) -> int:
        return self._count

    def means_dbm(self, band_ids: Iterable[int]) -> list[float]:
        """The mean of each of ``band_ids`` over the window's sweeps, in one call and
        without rescanning them: summed left to right and clamped into the samples' range.

        A bounded window sums each band's values left to right and looks for
        their minimum and maximum only when its oldest and newest values lie
        within ``CLAMP_FREE_SPREAD * count**2`` of each other; otherwise the
        mean is provably inside them and clamping would not change it.
        """
        if not self._count:
            raise ValueError("window must be non-empty")
        bands, growing, means = self._bands, self._length is None, []
        for band_id in band_ids:
            entry = bands.get(band_id)
            if entry is None:
                raise MissingBandError(f"band {band_id} absent from all {self._count} sweeps in window")
            if growing:
                total, count, low, high = entry
            else:  # summed left to right, in arrival order
                total, count = 0.0, len(entry)
                for value in entry:
                    total += value
                bound = count * count * CLAMP_FREE_SPREAD
                if not -bound <= entry[-1] - entry[0] <= bound:  # the mean lies well inside: no clamp
                    means.append(total / count)
                    continue
                low, high = min(entry), max(entry)
            # summation rounding can spill the mean an ulp outside the sample range
            mean = total / count
            means.append(low if mean < low else high if mean > high else mean)
        return means

    def persistent_band_ids(self) -> list[int]:
        """Bands present in every sweep of the window."""
        held = self._count
        if self._length is None:
            return sorted(band_id for band_id, acc in self._bands.items() if acc[1] == held)
        return sorted(band_id for band_id, values in self._bands.items() if len(values) == held)
