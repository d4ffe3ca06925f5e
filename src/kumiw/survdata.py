"""Censored datasets, CSV ingestion, Kaplan-Meier estimation and
model-vs-nonparametric comparison tables."""

from __future__ import annotations

import csv
import enum
import io
import math
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
    """Read a censored dataset from a headered CSV file.

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

    A file in the plain numeric form (``_load_plain``) is parsed by
    numpy's C reader; every other file, and every error, goes through the
    row parser, ``_load_rows``.  Both give the same dataset bit for bit.
    """
    plain = _load_plain(path, time_col, status_col)
    return plain if plain is not None else _load_rows(path, time_col, status_col)


def _load_plain(path, time_col: str, status_col: str) -> CensoredDataset | None:
    """The dataset of a file in the plain numeric form, or None.

    The plain form has no double quote and no NUL anywhere (numpy would
    split a quoted comma, and its string cells drop a trailing NUL that
    the csv module keeps), an LF- or CRLF-ended header, and a body that
    ``np.loadtxt`` reads with every time finite and > 0 and every status
    cell exactly ``0`` or ``1`` (read as 2 characters, so ``10`` and a
    spaced ``1`` fail).  Such a file has the csv module's cells, and numpy
    parses each time with the ``PyOS_string_to_double`` that ``float``
    calls; the cells it cannot parse (``1_5``, non-ASCII digits) fail here.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, ValueError):
        return None
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
    return CensoredDataset.from_arrays(times, events, name=str(path))


def _load_rows(path, time_col: str, status_col: str) -> CensoredDataset:
    """``load_csv`` by the csv module and ``float``, row by row: the parser
    of every file outside the plain form, and the only one that reports
    what is wrong with a file.  It reads the whole file (a csv or UTF-8
    error wins over a bad row), then checks the rows in file order."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
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
        except UnicodeDecodeError as exc:
            # the decoder reads ahead in chunks: no line number is known
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
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
    return CensoredDataset.from_arrays(times, events, name=str(path))


def _column_format(value) -> str:
    """The ``%`` format of a CSV column, from its first value: a string as
    it is, an integer with ``%d``, anything else as a float with ``%.17g``."""
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path, header, rows) -> None:
    """Write a headered CSV; ``rows`` are tuples whose columns keep the
    types of the first row, so that one ``%`` template formats each row."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if first is None:
            return
        template = ",".join(_column_format(v) for v in first) + "\n"
        handle.write(template % first)
        handle.writelines(template % row for row in rows)


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
    order = np.argsort(d.times, kind="stable")
    times = d.times[order]
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    events = np.add.reduceat(d.event_mask[order].astype(np.intp), starts)
    steps = events > 0
    at_risk = len(times) - starts[steps]
    events = events[steps]
    return KmCurve(
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
