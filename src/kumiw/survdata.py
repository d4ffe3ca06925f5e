"""Censored datasets, CSV ingestion, Kaplan-Meier estimation and
model-vs-nonparametric comparison tables."""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import io
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distribution import KumIwParams, _count, _is_number, _numbers, _real, sample, survival
from .errors import DataError, NumericError

__all__ = [
    "Status",
    "CensoredObs",
    "CensoredDataset",
    "KmCurve",
    "KmComparison",
    "load_csv",
    "kaplan_meier",
    "km_vs_parametric",
    "censoring_upper_bound",
    "simulate_censored",
]


class Status(enum.Enum):
    EVENT = 1
    CENSORED = 0


@dataclass(frozen=True)
class CensoredObs:
    """A single follow-up record: observed time and event status."""

    time: float
    status: Status

    def __post_init__(self) -> None:
        _real(self.time, "observation time")
        if not isinstance(self.status, Status):
            raise ValueError(f"status must be a Status member, got {self.status!r}")


class CensoredDataset:
    """An ordered, immutable censored sample held as two read-only columns:
    ``times`` (float64, finite and > 0) and ``event_mask`` (bool, True for an
    event).

    ``from_arrays`` is the primary constructor; ``CensoredDataset(observations)``
    still accepts a sequence of ``CensoredObs``, and ``observations`` gives
    the rows back as such, built from the columns on each access.
    """

    __slots__ = ("_times", "_events", "name")

    def __init__(self, observations: Iterable[CensoredObs], name: str = "") -> None:
        obs = tuple(observations)
        self._set_columns(
            [o.time for o in obs], [o.status is Status.EVENT for o in obs], name
        )

    @classmethod
    def from_arrays(cls, times, events, name: str = "") -> "CensoredDataset":
        """Build a dataset from a time array and an event indicator array
        (any nonzero value is an event).  Both are copied."""
        d = cls.__new__(cls)
        d._set_columns(times, events, name)
        return d

    def _set_columns(self, times, events, name: str) -> None:
        times = np.array(_numbers(times, "observation times"), dtype=float)
        events = np.array(_numbers(events, "event indicators", "biuf"), dtype=bool)
        if times.shape != events.shape:
            raise DataError("times and events must have matching shapes")
        if times.ndim != 1:
            raise DataError("times and events must be one-dimensional")
        if len(times) == 0:
            raise DataError("empty dataset")
        bad = ~(np.isfinite(times) & (times > 0))
        if bad.any():
            bad_time = float(times[np.argmax(bad)])
            raise ValueError(f"observation time must be finite and > 0, got {bad_time}")
        times.flags.writeable = False
        events.flags.writeable = False
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_events", events)
        object.__setattr__(self, "name", name)

    def __setattr__(self, attr, value):
        raise AttributeError(f"CensoredDataset is immutable; cannot set {attr!r}")

    def __len__(self) -> int:
        return len(self._times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensoredDataset):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._events, other._events)
        )

    def __hash__(self) -> int:
        return hash((self._times.tobytes(), self._events.tobytes(), self.name))

    def __reduce__(self):
        return CensoredDataset.from_arrays, (self._times, self._events, self.name)

    def __repr__(self) -> str:
        return f"CensoredDataset(n={len(self)}, n_events={self.n_events}, name={self.name!r})"

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def event_mask(self) -> np.ndarray:
        return self._events

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self._events))

    @property
    def observations(self) -> tuple[CensoredObs, ...]:
        return tuple(
            CensoredObs(t, Status.EVENT if e else Status.CENSORED)
            for t, e in zip(self._times.tolist(), self._events.tolist())
        )


@dataclass(frozen=True)
class KmCurve:
    """Kaplan-Meier product-limit estimate as a right-continuous step function.

    ``times`` are the distinct event times; ``survival`` the estimate just
    after each, with ``at_risk``/``events`` the corresponding counts.
    """

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (len(self.survival) == len(self.at_risk) == len(self.events) == n):
            raise ValueError("KmCurve fields must have equal lengths")
        if n and (np.any(np.diff(self.times) <= 0) or np.any(np.diff(self.survival) > 1e-15)):
            raise ValueError("KmCurve requires increasing times and nonincreasing survival")

    @classmethod
    def _built(cls, times, survival, at_risk, events) -> KmCurve:
        """A curve from fields that the caller's construction makes valid
        (``kaplan_meier``), without ``__post_init__``'s checks, which took
        13 of about 37 us of ``kaplan_meier`` at n = 500."""
        curve = object.__new__(cls)
        vars(curve).update(times=times, survival=survival, at_risk=at_risk, events=events)
        return curve

    def survival_at(self, t):
        """Step-function evaluation; value before the first event time is 1.
        A nan time raises ``ValueError``: it has no place among the steps."""
        t = np.asarray(_numbers(t, "times"), dtype=float)
        if np.isnan(t).any():
            raise ValueError("survival_at requires times that are not nan")
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([1.0], self.survival))
        out = padded[idx]
        return out if np.ndim(out) else float(out)


def load_csv(path, time_col: str = "time", status_col: str = "status") -> CensoredDataset:
    """Read a censored dataset from a headered CSV file at ``path``, a
    ``str`` or an ``os.PathLike`` (anything else is a ``ValueError``).

    The file is UTF-8 (other bytes are a ``DataError``), with or without
    a leading byte-order mark, split into rows and cells by the ``csv``
    module's default rules: commas between cells, double quotes around a
    cell that holds one, and LF, CRLF or CR line ends.  A time cell is a
    Python ``float`` literal (surrounding spaces, underscores and ``1e3``
    forms included) that is finite and > 0.  A status cell is 1 (event) or
    0 (censored), with surrounding spaces allowed.  A file without the
    status column is read as fully observed (every row an event), so
    time-only sample files round-trip.  A repeated column name resolves to
    its last occurrence.  Blank lines are skipped.  The first malformed row
    is reported with its file line number (the header is line 1, and blank
    lines count), and within a row the time is checked before the status.

    The path is opened and decoded once, so a pipe or a FIFO reads as a
    file does, and a UTF-8 error is reported before anything else.  A
    text in the plain numeric form (``_load_plain``) is parsed by numpy's
    C reader; every other text, and every error, goes through the row
    parser, ``_load_rows``.  Both give the same dataset bit for bit.
    """
    # open() takes an int as a file descriptor, which it would read and close
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a str or an os.PathLike, got {path!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in chunks: no line number is known
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except ValueError as exc:  # open's "embedded null byte"
        raise DataError(f"cannot open {path!r}: {exc}") from None
    columns = _load_plain(text, time_col, status_col) or _load_rows(path, text, time_col, status_col)
    return CensoredDataset.from_arrays(*columns, name=str(path))


def _load_plain(text: str, time_col: str, status_col: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The (times, events) columns of a text in the plain numeric form, or None.

    The plain form has no double quote and no NUL anywhere (numpy would
    split a quoted comma, and its string cells drop a trailing NUL that
    the csv module keeps), an LF- or CRLF-ended header, and a body that
    ``np.loadtxt`` reads with every time finite and > 0 and every status
    cell exactly ``0`` or ``1`` (read as 2 characters, so ``10`` and a
    spaced ``1`` fail).  Such a text has the csv module's cells, and numpy
    parses each time with the ``PyOS_string_to_double`` that ``float``
    calls; the cells it cannot parse (``1_5``, non-ASCII digits) fail here.
    """
    header, _, body = text.partition("\n")
    header = header.removesuffix("\r")
    if not header or "\r" in header or '"' in text or "\0" in text:
        return None
    column = {name: i for i, name in enumerate(header.split(","))}
    # a blank body would make loadtxt warn that it read no data
    if time_col not in column or not body or body.isspace():
        return None
    has_status = status_col in column
    try:
        table = np.loadtxt(
            io.StringIO(body),
            delimiter=",",
            comments=None,
            usecols=(column[time_col], column[status_col]) if has_status else column[time_col],
            dtype=[("t", float), ("s", "U2")] if has_status else float,
            ndmin=1,
        )
    except ValueError:
        return None
    if has_status:
        times, status = table["t"], table["s"]
        events = status == "1"
        if not (events | (status == "0")).all():
            return None
    else:
        times, events = table, np.ones(len(table), dtype=bool)
    if not ((times > 0) & (times < math.inf)).all():
        return None
    return times, events


def _load_rows(path, text: str, time_col: str, status_col: str) -> tuple[list[float], list[bool]]:
    """``load_csv`` by the csv module and ``float``, row by row: the
    (times, events) columns of a text outside the plain form, and the only
    parser that reports what is wrong with one.  It splits the whole text
    into rows (a csv error wins over a bad row), then checks the rows in
    file order; ``path`` names the file in the messages."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        header = next(reader, None)
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        # such as a cell over the csv module's field size limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty dataset")
    # a repeated column name resolves to its last occurrence
    column = {name: i for i, name in enumerate(header)}
    if time_col not in column:
        raise DataError(f"{path}: missing column(s) ['{time_col}']")
    if not rows:
        raise DataError(f"{path}: empty dataset")
    i_time, i_status = column[time_col], column.get(status_col)
    times, events = [], []
    for line, row in zip(lines, rows):
        # a short row reads as an empty cell
        cell = row[i_time] if i_time < len(row) else ""
        try:
            time = float(cell)
        except ValueError:
            raise DataError(f"{path}: row {line}: cannot parse time {cell.strip()!r}") from None
        if not 0.0 < time < math.inf:
            raise DataError(f"{path}: row {line}: time must be > 0, got {cell.strip()!r}")
        if i_status is not None:
            status = row[i_status].strip() if i_status < len(row) else ""
            if status not in ("0", "1"):
                raise DataError(f"{path}: row {line}: unknown status code {status!r} (expected 0 or 1)")
        times.append(time)
        events.append(i_status is None or status == "1")
    return times, events


# the format of every float that a CSV file of the package holds: the
# shortest that round-trips every float64
_FLOAT_FORMAT = "%.17g"

# rows formatted at a time: the writer's memory does not grow with the table
_BLOCK_ROWS = 2048
# |x| outside this range goes to the fallback, so that no intermediate of
# the double-double product over- or underflows
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# decimal exponents k = floor(log10 |x|) that the power table covers
_K_MIN, _K_MAX = -282, 282
# a lane whose power of ten is not a float is formatted in numpy only when
# its scaled value y = |x| 10^(16 - k) lies this far from a half-integer;
# the computed y is within 4e-15 of the exact one there (see _float_band)
_TIE_MARGIN = 2.0**-40
# Veltkamp's splitter for float64: 2^27 + 1
_SPLIT = 134217729.0


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the CSV writer, built on first use: 10^(16 - k) as
    the unevaluated sum hi + lo of two floats (each correctly rounded from
    exact integer arithmetic, so that |10^q - hi - lo| <= 2^-106 hi) for
    k in [_K_MIN, _K_MAX], and the four ASCII digits of each of 0..9999
    as one uint32."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        q = 16 - k
        if q >= 0:
            h = float(10**q)
            hi.append(h)
            lo.append(float(10**q - int(h)))
        else:
            den = 10**-q
            h = 1 / den
            num, two = h.as_integer_ratio()
            hi.append(h)
            lo.append((two - num * den) / (two * den))
    i = np.arange(10_000)
    ascii4 = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    return np.array(hi), np.array(lo), np.ascontiguousarray(ascii4).view(np.uint32).ravel()


def _ascii16(a: np.ndarray) -> np.ndarray:
    """The 16 ASCII digits of each of the integers ``a`` in [0, 10^16),
    zero-padded, as a (16, len(a)) uint8 array: one row per digit."""
    hi = a // 10**8
    lo = a - hi * 10**8
    groups = np.empty((4, len(a)), np.intp)
    np.floor_divide(hi, 10**4, out=groups[0])
    np.subtract(hi, groups[0] * 10**4, out=groups[1])
    np.floor_divide(lo, 10**4, out=groups[2])
    np.subtract(lo, groups[2] * 10**4, out=groups[3])
    words = _format_tables()[2][groups]
    return words.view(np.uint8).reshape(4, len(a), 4).transpose(0, 2, 1).reshape(16, len(a))


def _cells(strings: list[str], width: int) -> np.ndarray:
    """``strings`` (none longer than ``width`` bytes in UTF-8) as a
    (width, len(strings)) uint8 array, one zero-padded column each."""
    cells = np.array([s.encode() for s in strings], dtype=f"S{width}")
    return cells.view(np.uint8).reshape(len(strings), width).T


def _float_band(x: np.ndarray) -> np.ndarray:
    """``_FLOAT_FORMAT % v`` for each v of the float64 array ``x``, as a
    (29, len(x)) uint8 array with one column per value: its characters in
    order, with zero bytes between them (rows: the sign, "0.000" before
    the digits of 1e-4 <= |v| < 1, 17 digits with a point, the exponent).

    A lane with |v| in [_FAST_MIN, _FAST_MAX] gets its 17 correctly
    rounded significant digits D = round(y) of y = |v| 10^(16 - k), k =
    floor(log10 |v|), from a double-double product: p = fl(|v| hi) and
    its exact error (Dekker's two-product over Veltkamp halves), plus
    fl(|v| lo).  With y in (10^16, 10^17), p is an even integer and
    |y - p| < 20, so D = p + rint(s) for the sum s of the two small
    terms, half to even as dtoa rounds.  s is exact where 10^(16 - k) is
    a float (lo = 0); elsewhere it is within 4e-15 of y - p (2^-106 y
    from the table, half an ulp of |v| lo < 12 and of s < 20).  The digits are
    laid out as %g lays them out: fixed notation for -4 <= k < 17,
    exponent notation otherwise, trailing zeros of the fraction dropped.
    Every other lane keeps the ``%`` call: zero, nan, inf, |v| out of
    range, p within 32 of 10^16 or 10^17 (log10's k may be one off
    there) but for the exact product y = p = 10^16 (s = 0, lo = 0), and,
    where lo != 0, y within _TIE_MARGIN of a half-integer
    (exact ties included)."""
    n = len(x)
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.intp)
    hi_table, lo_table, _ = _format_tables()
    hi, lo = hi_table[k - _K_MIN], lo_table[k - _K_MIN]
    p = a * hi
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    hi_lo = hi - hi_hi
    small_terms = (((a_hi * hi_hi - p) + a_hi * hi_lo) + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    r = np.rint(small_terms)
    clear = (lo == 0) | (np.abs(small_terms - r) < 0.5 - _TIE_MARGIN)
    # y = 10^16 exactly (|v| = 10^k, as a survival of 1.0) has its k and digits
    exact_power = (p == 1e16) & (small_terms == 0) & (lo == 0)
    ok = fast & (((p > 1e16 + 32) & (p < 1e17 - 32) & clear) | exact_power)
    d17 = p.astype(np.int64) + r.astype(np.int64)
    d17[~ok] = 10**16
    lead = d17 // 10**16

    # digits[i] is the i-th significant digit, row 17 an empty one
    j = np.arange(18, dtype=np.int8)[:, None]
    digits = np.zeros((18, n), np.uint8)
    digits[0] = lead + 48
    digits[1:17] = _ascii16(d17 - lead * 10**16)
    last = ((digits[:17] != 48) * j[:17]).max(axis=0)
    fixed = (k >= -4) & (k < 17)
    # the digit the point follows: the last one of the integer part in
    # fixed notation, whose zeros stay, the first in exponent notation
    point = np.where(fixed, k, 0).astype(np.int8)
    digits *= j <= np.maximum(last, point)
    small = fixed & (k < 0)
    point[small] = 17

    band = np.zeros((29, n), np.uint8)
    np.multiply(45, np.signbit(x), out=band[0], casting="unsafe")
    if small.any():
        band[1] = 48 * small
        band[2] = 46 * small
        band[3:6] = 48 * (small & (k <= np.array([[-2], [-3], [-4]])))
    body = band[6:24]
    np.multiply(digits, j <= point, out=body)
    body += (j == point + 1) * (46 * (last > point)).astype(np.uint8)
    body[1:] += digits[:17] * (j[1:] > point + 1)
    expo = ~fixed
    if expo.any():
        e = np.abs(k)
        band[24] = 101 * expo
        band[25] = expo * (43 + 2 * (k < 0))
        band[26] = expo * (e >= 100) * (e // 100 + 48)
        band[27] = expo * (e // 10 % 10 + 48)
        band[28] = expo * (e % 10 + 48)

    slow = np.flatnonzero(~ok)
    if slow.size:
        band[:, slow] = _cells([_FLOAT_FORMAT % v for v in x[slow].tolist()], 29)
    return band


def _int_band(v: np.ndarray) -> np.ndarray:
    """``"%d" % i`` for each i of ``v`` (an integer or bool array, or an
    object array of Python integers), as a (20, len(v)) uint8 array laid
    out as ``_float_band``'s.  |i| < 10^16 is formatted in numpy; a larger
    one keeps the ``%`` call."""
    fast = (v < 10**16) & (v > -(10**16))
    a = np.where(fast, v, 0).astype(np.int64)
    band = np.zeros((20, len(v)), np.uint8)
    np.multiply(45, a < 0, out=band[0], casting="unsafe")
    digits = band[4:]
    digits[:] = _ascii16(np.abs(a))
    # keep the digits from the first nonzero one, and the last
    rank = np.arange(16, 0, -1, dtype=np.int8)[:, None]
    digits *= rank <= np.maximum(((digits != 48) * rank).max(axis=0), 1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        band[:, slow] = _cells(["%d" % i for i in v[slow].tolist()], 20)
    return band


def _str_band(s: np.ndarray) -> np.ndarray:
    """``"%s" % c`` for each cell c of ``s``, laid out as ``_float_band``'s."""
    cells = np.array([str(c).encode() for c in s.tolist()], dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize).T


def _prepare(column):
    """A CSV column as (band function, 1-D array), chosen by its numpy
    dtype: float, integer or bool (or Python integers too large for
    int64), or string."""
    arr = np.asarray(column)
    if arr.ndim != 1:
        raise ValueError(f"a CSV column must be 1-D, got shape {arr.shape}")
    kind = arr.dtype.kind
    if kind == "f":
        return _float_band, arr.astype(np.float64, copy=False)
    if kind in "iub" or kind == "O" and all(isinstance(v, (int, np.integer)) for v in arr.tolist()):
        return _int_band, arr
    if kind in "US":
        return _str_band, arr
    raise TypeError(f"cannot write a CSV column of dtype {arr.dtype}")


def _rows(bands: list[np.ndarray]) -> bytes:
    """The CSV text of a block: the cells of ``bands`` joined by commas,
    one line per column of the bands, zero bytes dropped."""
    # rows of zeros (an unused layout slot in every lane) are dropped first
    bands = [band[band.any(axis=1)] for band in bands]
    rows = np.empty((bands[0].shape[1], sum(len(b) + 1 for b in bands)), np.uint8)
    at = 0
    for band in bands:
        rows[:, at:at + len(band)] = band.T
        at += len(band)
        rows[:, at] = 44
        at += 1
    rows[:, -1] = 10
    return rows.tobytes().translate(None, b"\0")


def _write_csvs(tables) -> None:
    """Write headered CSV files with equal row counts: ``tables`` holds
    (path, header, columns) triples, one column (an array or a sequence)
    per header name.  A float column is written with ``_FLOAT_FORMAT``,
    an integer or bool one with ``%d`` and a string one with ``%s`` (no
    NUL character), by its numpy dtype.  The rows go out in blocks of
    ``_BLOCK_ROWS``, and a column object that several tables hold is
    formatted once per block."""
    prepared = {}
    for _, header, columns in tables:
        if len(columns) != len(header):
            raise ValueError(f"{len(header)} header names for {len(columns)} columns")
        for column in columns:
            if id(column) not in prepared:
                prepared[id(column)] = _prepare(column)
    lengths = {len(arr) for _, arr in prepared.values()}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns of different lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        for handle, (_, header, _) in zip(handles, tables):
            handle.write((",".join(header) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            bands = {
                key: band(arr[start:start + _BLOCK_ROWS]) for key, (band, arr) in prepared.items()
            }
            for handle, (_, _, columns) in zip(handles, tables):
                handle.write(_rows([bands[id(column)] for column in columns]))


def _write_csv(path, header, columns) -> None:
    """Write one headered CSV file; see ``_write_csvs``."""
    _write_csvs([(path, header, columns)])


def kaplan_meier(d: CensoredDataset) -> KmCurve:
    """Product-limit estimate over the distinct event times.

    Ties at a time are processed against the risk set including all tied
    subjects; censored observations leave the risk set between event
    times without introducing steps.  With the times sorted, each distinct
    time starts a run: its risk set is n minus the run's start, its event
    count the run's sum, and the survival the running product of
    1 - events / at_risk over runs with events.
    """
    if d.n_events == 0:
        raise DataError("Kaplan-Meier requires at least one event")
    # each run of tied times is summed whole, so no order within a run is
    # needed: numpy's default sort takes 0.12 ms at n = 10^4, the stable
    # one 0.69 ms (numpy 2.4, 2-vCPU x86 VM)
    times = d.times
    order = np.argsort(times)
    times = times[order]
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    events = np.add.reduceat(d.event_mask[order].astype(np.intp), starts)
    steps = events > 0
    at_risk = len(times) - starts[steps]
    events = events[steps]
    # the runs' times increase and each factor is in [0, 1)
    return KmCurve._built(
        times=times[starts[steps]],
        survival=np.cumprod(1.0 - events / at_risk),
        at_risk=at_risk,
        events=events,
    )


@dataclass(frozen=True)
class KmComparison:
    """Paired nonparametric/parametric survival values at the KM step times,
    with the curve they come from (for its at-risk and event counts)."""

    t: np.ndarray
    km_survival: np.ndarray
    model_survival: np.ndarray
    curve: KmCurve


def km_vs_parametric(d: CensoredDataset, p: KumIwParams) -> KmComparison:
    """Tabulate KM vs model survival at each KM step time.

    The paired columns also serve the y = x diagnostic plot: a good fit
    puts the (km, model) points on the diagonal.
    """
    curve = kaplan_meier(d)
    model = np.asarray(survival(p, curve.times), dtype=float)
    return KmComparison(
        t=curve.times.copy(), km_survival=curve.survival.copy(), model_survival=model, curve=curve
    )


# Gauss-Legendre nodes and weights on [-1, 1] for one panel of the
# censoring calibration's quadrature in y = log x, x = (c/t)^beta.
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(32)
_PANELS = 16
# The range in y reaches hundreds for large beta at small rates, where
# 16 panels lose digits.
_MAX_PANEL_WIDTH = 2.0
# y below which x = e^y is subnormal and survival() loses the tail
_Y_MIN = math.log(np.finfo(float).tiny)


def _survival_integral(p: KumIwParams, y_m: float) -> float:
    """Integral of the survival function over (0, M), with y_m = log x at t = M.

    Below t_cut, where x >= 45 + log+ b, F(t) < 1e-17 and S(t) rounds to
    1, so that piece is t_cut exactly.  Above it, dt = -(t / beta) dy, and
    the integral runs over equal Gauss-Legendre panels in y from y_m to
    y_cut: in y the transition of S has unit width whatever beta is.
    """
    y_cut = math.log(45.0 + max(0.0, math.log(p.b)))
    t_cut = p.c * math.exp(-y_cut / p.beta)
    if y_m >= y_cut:
        return p.c * math.exp(-y_m / p.beta)
    panels = max(_PANELS, math.ceil((y_cut - y_m) / _MAX_PANEL_WIDTH))
    half = (y_cut - y_m) / (2.0 * panels)
    nodes, weights = _GAUSS_LEGENDRE
    y = y_m + half * (2.0 * np.arange(panels)[:, None] + 1.0 + nodes)
    t = p.c * np.exp(-y / p.beta)
    terms = weights * t * survival(p, t)
    with np.errstate(over="ignore"):
        total = float(np.sum(terms))
    if math.isinf(total):
        # M near the float range: the node sum leaves it, the integral
        # (at most M) does not, so each term takes its factor first
        return t_cut + float(np.sum(half / p.beta * terms))
    return t_cut + half / p.beta * total


# scipy's brentq defaults: rtol = 4 eps, at most 100 iterations
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float, what: str) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's brentq loop (its C source, ``Zeros/brentq.c``) on
    Python floats, each operation in the same order, so every iterate and
    the root are scipy's.  A nan value of f, f(xa) and f(xb) of one sign,
    or no convergence in 100 iterations raises ``NumericError`` naming
    ``what``.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NumericError(f"cannot find {what}: the function is nan at {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(f"cannot find {what}: no sign change on [{xa!r}, {xb!r}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's inf or nan step fails the test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericError(f"cannot find {what}: no convergence in {_BRENT_MAXITER} iterations")


def censoring_upper_bound(p: KumIwParams, rate: float) -> float:
    """Upper bound M of a U(0, M) censoring law hitting a target censoring rate.

    Solves E[min(T, M)] / M = rate; the left side decreases from 1 to 0
    as M grows, so the root is unique.  It exceeds S(M), so the root lies
    above the (1 - rate) quantile.  Brent's method (``_brentq``, scipy's
    brentq iterates) works in y = log x at t = M, from a bracket widened
    toward larger M in doubling steps; each evaluation is one vectorised
    ``survival`` call (``_survival_integral``).
    """
    _real(rate, "censoring rate", 1)
    log_c = math.log(p.c)

    def excess(y: float) -> float:
        return _survival_integral(p, y) / math.exp(log_c - y / p.beta) - rate

    # M must stay finite and x at M a normal float
    y_floor = max(_Y_MIN, p.beta * (log_c - math.log(np.finfo(float).max)))
    # start at the (1 - rate) quantile, where S = rate: x = -log(1 - rate^(1/b))
    x = -math.log1p(-(rate ** (1.0 / p.b)))
    hi = math.log(x) if x > 0.0 else -math.inf
    step = 1.0
    while True:
        lo = max(hi - step, y_floor)
        if lo < hi and excess(lo) < 0.0:
            break
        if lo <= y_floor:
            raise NumericError(
                f"cannot bracket the censoring bound for {p} at rate {rate}: "
                "it lies beyond the range of the survival function"
            )
        hi, step = lo, 2.0 * step
    y = _brentq(excess, lo, hi, 1e-15 * p.beta, f"the censoring bound for {p} at rate {rate}")
    return math.exp(log_c - y / p.beta)


def simulate_censored(
    p: KumIwParams,
    n: int,
    censor_rate: float,
    seed: int,
    name: str = "simulated",
    upper_bound: float | None = None,
) -> CensoredDataset:
    """Simulate n subjects with independent uniform censoring.

    The censoring upper bound is calibrated so the marginal censoring
    probability equals ``censor_rate``; ``censor_rate = 0`` yields a
    fully observed sample.  Pass a precomputed ``upper_bound`` to skip
    the calibration (useful in replicate studies); ``censor_rate`` is then
    in [0, 1) and only tells whether to censor.  n is a positive integer
    and seed a non-negative one; an integral float is taken as one.
    """
    n, seed = _count(n, "sample size", 1), _count(seed, "seed", 0)
    if upper_bound is not None:
        _real(upper_bound, "upper_bound")
    if censor_rate != 0 and upper_bound is None:
        upper_bound = censoring_upper_bound(p, censor_rate)
    elif not (_is_number(censor_rate) and 0 <= censor_rate < 1):
        raise ValueError(f"censoring rate must be in [0, 1), got {censor_rate}")
    lifetimes = sample(p, n, seed)
    if censor_rate == 0:
        return CensoredDataset.from_arrays(lifetimes, np.ones(n, dtype=bool), name=name)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    censor_times = rng.uniform(0.0, upper_bound, size=n)
    observed = np.minimum(lifetimes, censor_times)
    events = lifetimes <= censor_times
    return CensoredDataset.from_arrays(observed, events, name=name)
