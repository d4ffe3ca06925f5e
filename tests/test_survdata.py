import math
import os
import pathlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from kumiw import DataError, KumIwParams, NumericError, survdata, survival
from kumiw.survdata import (
    CensoredDataset,
    CensoredObs,
    KmCurve,
    Status,
    censoring_upper_bound,
    kaplan_meier,
    km_vs_parametric,
    load_csv,
    simulate_censored,
)
from oracles import censored_fraction_quad, kaplan_meier_product_limit, survival_closed_form
from sweep import sweep_cases


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# load_csv's table: file text (bytes where the encoding matters), the parser
# that reads it ("plain": numpy's C reader; "full": the csv module row by
# row), and the dataset's (times, events) or the DataError message after
# "<path>: ".  The times are Python float literals, so each must load bit
# for bit as written.
_LOAD_CASES = {
    "plain": ("time,status\n100,1\n150,0\n200,1\n", "plain", ([100.0, 150.0, 200.0], [1, 0, 1])),
    "quoted-cells": ('time,status\n"5",1\n6,"0"\n', "full", ([5.0, 6.0], [1, 0])),
    "quoted-header": ('"time","status"\n5,1\n', "full", ([5.0], [1])),
    # numpy would split the quoted cell at its commas and read time 5, status 1
    "quoted-comma": ('name,time,status,a,b\n"q,5,1,z",3,0,1,1\n', "full", ([3.0], [0])),
    "extra-columns": ("time,status,x\n5,1,a\n6,0,b,c\n", "plain", ([5.0, 6.0], [1, 0])),
    "short-row-status": ("time,status\n5,1\n6\n", "full", "row 3: unknown status code '' (expected 0 or 1)"),
    "short-row-time": ("x,time\n1,5\n2\n", "full", "row 3: cannot parse time ''"),
    "status-first": ("status,time\n1,5\n0,6\n", "plain", ([5.0, 6.0], [1, 0])),
    "time-only": ("time\n3.5\n1e1\n", "plain", ([3.5, 10.0], [1, 1])),
    "blank-lines": ("time,status\n\n5,1\n\n\n6,0\n\n", "plain", ([5.0, 6.0], [1, 0])),
    "whitespace-line": ("time,status\n5,1\n  \t\n6,0\n", "full", "row 3: cannot parse time ''"),
    "whitespace-line-after-blank": ("time,status\n5,1\n\n \n", "full", "row 4: cannot parse time ''"),
    "crlf": ("time,status\r\n5,1\r\n\r\n6,0\r\n", "plain", ([5.0, 6.0], [1, 0])),
    "lone-cr": ("time,status\r5,1\r6,0\r", "full", ([5.0, 6.0], [1, 0])),
    "lone-cr-in-body": ("time,status\n5,1\r6,0\n", "full", ([5.0, 6.0], [1, 0])),
    "no-final-newline": ("time,status\n5,1\n6,0", "plain", ([5.0, 6.0], [1, 0])),
    "repeated-name": ("time,status,time\n5,1,7\n6,0,8\n", "plain", ([7.0, 8.0], [1, 0])),
    "bom": (b"\xef\xbb\xbftime,status\n5,1\n", "plain", ([5.0], [1])),
    "header-only": ("time,status\n", "full", "empty dataset"),
    "header-and-blank-lines": ("time,status\n\n\r\n", "full", "empty dataset"),
    "header-without-newline": ("time,status", "full", "empty dataset"),
    "empty-file": ("", "full", "empty dataset"),
    "blank-header": ("\ntime,status\n5,1\n", "full", "missing column(s) ['time']"),
    "missing-column": ("t,status\n5,1\n", "full", "missing column(s) ['time']"),
    "underscore-time": ("time,status\n1_5,1\n", "full", ([15.0], [1])),
    "non-ascii-digit": ("time,status\n\u0665,1\n", "full", ([5.0], [1])),
    "spaced-time": ("time,status\n 5 ,1\n\t6\x0b,0\n", "plain", ([5.0, 6.0], [1, 0])),
    "status-1.0": ("time,status\n5,1.0\n", "full", "row 2: unknown status code '1.0' (expected 0 or 1)"),
    "status-spaced": ("time,status\n5, 1 \n6,0 \n", "full", ([5.0, 6.0], [1, 0])),
    "status-10": ("time,status\n5,1\n6,10\n", "full", "row 3: unknown status code '10' (expected 0 or 1)"),
    "status-100": ("time,status\n5,100\n", "full", "row 2: unknown status code '100' (expected 0 or 1)"),
    "status-nul": ("time,status\n5,1\x00\n", "full", "row 2: unknown status code '1\\x00' (expected 0 or 1)"),
    "time-nan": ("time,status\n5,1\nnan,0\n", "full", "row 3: time must be > 0, got 'nan'"),
    "time-inf": ("time,status\ninf,1\n", "full", "row 2: time must be > 0, got 'inf'"),
    "time-overflow": ("time,status\n1e309,1\n", "full", "row 2: time must be > 0, got '1e309'"),
    "time-zero": ("time,status\n5,1\n-0.0,1\n", "full", "row 3: time must be > 0, got '-0.0'"),
    "time-hex": ("time,status\n0x10,1\n", "full", "row 2: cannot parse time '0x10'"),
    "hard-floats": (
        "time,status\n5e-324,1\n2.2250738585072011e-308,0\n2.2250738585072012e-308,1\n"
        "1e308,1\n1.7976931348623157e308,0\n4.9406564584124654e-324,1\n",
        "plain",
        ([5e-324, 2.2250738585072011e-308, 2.2250738585072012e-308, 1e308,
          1.7976931348623157e308, 4.9406564584124654e-324], [1, 0, 1, 1, 0, 1]),
    ),
    # halfway between two doubles: ties to the even significand
    "halfway-floats": (
        "time,status\n18014398509481986,1\n18014398509481990,0\n9007199254740993,1\n"
        "1.00000000000000011102230246251565404236316680908203125,1\n"
        "3.6028797018963972e16,0\n",
        "plain",
        ([18014398509481986.0, 18014398509481990.0, 9007199254740993.0,
          1.00000000000000011102230246251565404236316680908203125,
          3.6028797018963972e16], [1, 0, 1, 1, 0]),
    ),
}


class TestTypes:
    def test_obs_validation(self):
        CensoredObs(1.0, Status.EVENT)
        with pytest.raises(ValueError):
            CensoredObs(0.0, Status.EVENT)
        with pytest.raises(ValueError):
            CensoredObs(1.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None, True])
    def test_obs_time_must_be_a_positive_number(self, bad):
        with pytest.raises(ValueError, match=f"^observation time must be finite and > 0, got {bad}$"):
            CensoredObs(bad, Status.EVENT)

    def test_dataset_nonempty(self):
        with pytest.raises(DataError):
            CensoredDataset(())

    def test_from_arrays(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1])
        assert len(d) == 3 and d.n_events == 2
        np.testing.assert_array_equal(d.event_mask, [True, False, True])

    def test_from_arrays_validates_columns(self):
        with pytest.raises(DataError, match="matching shapes"):
            CensoredDataset.from_arrays([1.0, 2.0], [1])
        with pytest.raises(DataError, match="empty"):
            CensoredDataset.from_arrays([], [])
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                CensoredDataset.from_arrays([1.0, bad], [1, 1])

    @pytest.mark.parametrize("times, events", [
        ([1.0, "1"], [1, 1]),
        ([1.0, 2.0], ["0", "1"]),
        ([1.0, None], [1, 1]),
        ([1.0, 2.0], [1, None]),
        ([True, True], [1, 1]),
        (np.array([1.0, 2.0], dtype=object), [1, 1]),
    ], ids=["str-time", "str-events", "None-time", "None-event", "bool-times", "object-times"])
    def test_from_arrays_takes_numbers_only(self, times, events):
        # numpy would read "1" as 1.0 and "0" as a (nonempty, so True) event
        with pytest.raises(ValueError, match=r"^(observation times|event indicators) must be numbers, "):
            CensoredDataset.from_arrays(times, events)

    def test_from_arrays_numeric_columns_keep_their_bits(self):
        d = CensoredDataset.from_arrays(np.array([1.5, 2.25], dtype=np.float32), np.array([2, 0], dtype=np.uint8))
        assert d.times.tobytes() == np.array([1.5, 2.25]).tobytes()
        np.testing.assert_array_equal(d.event_mask, [True, False])
        assert CensoredDataset.from_arrays([1, 2], [1.0, 0.0]) == CensoredDataset.from_arrays([1.0, 2.0], [True, False])

    def test_dataset_is_immutable(self):
        times = np.array([1.0, 2.0, 3.0])
        d = CensoredDataset.from_arrays(times, [1, 0, 1])
        with pytest.raises(ValueError):
            d.times[0] = 1.0
        with pytest.raises(ValueError):
            d.event_mask[0] = False
        with pytest.raises(AttributeError):
            d.name = "renamed"
        times[0] = 9.0  # the dataset holds its own copy
        np.testing.assert_array_equal(d.times, [1.0, 2.0, 3.0])

    def test_observations_view_round_trips(self):
        obs = (CensoredObs(2.5, Status.EVENT), CensoredObs(1.0, Status.CENSORED))
        d = CensoredDataset(obs, name="two")
        assert d.observations == obs
        np.testing.assert_array_equal(d.times, [2.5, 1.0])
        np.testing.assert_array_equal(d.event_mask, [True, False])
        same = CensoredDataset.from_arrays([2.5, 1.0], [1, 0], name="two")
        assert same.observations == obs
        assert same == d and hash(same) == hash(d)
        assert pickle.loads(pickle.dumps(d)) == d


# Files in the plain numeric form for the two-parser property: a time
# column written in several float and integer forms, an optional status
# column of 0 and 1, optional extra columns, an optional decoy column that
# shares the name of a real one and comes first (a repeated name resolves
# to its last occurrence), LF or CRLF line ends and blank lines.
_TIME_TEXT = st.one_of(
    st.floats(5e-324, 1e308).flatmap(
        lambda v: st.sampled_from(["%.17g" % v, repr(v), f"{v:e}", f"{v:.3E}"])
    ),
    st.integers(1, 10**30).map(str),
)
_OTHER_CELL = st.text(alphabet="abx-.019e", min_size=1, max_size=4)
# a bad time cell by the message that it gets
_BAD_TIME = {
    "cannot parse time {!r}": st.sampled_from(["abc", "1..5", "0x10", "--1", "1e", "five", "1_"]),
    "time must be > 0, got {!r}": st.sampled_from(
        ["0", "-0.0", "-2.5", "-1e-300", "nan", "inf", "-inf", "1e309"]
    ),
}
_BAD_STATUS = st.sampled_from(["2", "10", "-1", "yes", "1.0", "", "01"])


@st.composite
def _plain_files(draw):
    """(lines, ending, names, rows): the file's lines without their
    ending, the header's names, and each row as (line index, cells)."""
    names = ["time"] + (["status"] if draw(st.booleans()) else [])
    names += [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    names = list(draw(st.permutations(names)))
    decoy = draw(st.sampled_from([None, *names[:2]]))
    if decoy is not None:
        names.insert(0, decoy)
    last = {name: i for i, name in enumerate(names)}
    lines, rows = [",".join(names)], []
    for _ in range(draw(st.integers(1, 25))):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        cells = [
            draw(_TIME_TEXT) if last.get("time") == i
            else draw(st.sampled_from(["0", "1"])) if last.get("status") == i
            else draw(_OTHER_CELL)
            for i in range(len(names))
        ]
        rows.append((len(lines), cells))
        lines.append(",".join(cells))
    lines += [""] * draw(st.integers(0, 2))
    return lines, draw(st.sampled_from(["\n", "\r\n"])), names, rows


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "time,status\n100,1\n150,0\n200,1\n")
        d = load_csv(path)
        assert len(d) == 3 and d.n_events == 2
        np.testing.assert_array_equal(d.times, [100.0, 150.0, 200.0])

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet programs save UTF-8 CSV with a leading byte-order mark
        text = "time,status\n100,1\n150,0\n200,1\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbftime")
        d, plain = load_csv(path), load_csv(write(tmp_path, text))
        np.testing.assert_array_equal(d.times, plain.times)
        np.testing.assert_array_equal(d.event_mask, plain.event_mask)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    @pytest.mark.parametrize("where, line", [("body", 3), ("header", 1)])
    def test_cell_over_the_csv_field_limit(self, tmp_path, where, line):
        # a quoted file goes to the csv module, whose cells stop at 131072
        # characters: a DataError naming the file and the line, not _csv.Error
        big = '"' + "x" * 200_000 + '"'
        if where == "body":
            text = f'time,status,note\n1.0,1,"a"\n2.0,0,{big}\n3.0,1,b\n'
        else:
            text = f"time,status,{big}\n1.0,1,a\n"
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line {line}: field larger"):
            load_csv(path)

    def test_invalid_utf8_names_the_file(self, tmp_path):
        # the decoder reads ahead in chunks, so the message names no line
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time,status\n1.5,1\n2\xff,0\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte"

    def test_utf8_error_wins_over_an_earlier_csv_error(self, tmp_path):
        # the file is decoded before the csv module splits it: a cell over
        # the field limit on line 2, 32 KB of good rows, then a bad byte
        path = tmp_path / "bad.csv"
        big = b'"' + b"x" * 200_000 + b'"'
        path.write_bytes(b"time,status,note\n0.5,1," + big + b"\n" + b"1.5,1,a\n" * 4096 + b"2\xff,0,b\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("text, expected", [
        ('time,status\n"5",1\n6,"0"\n', ([5.0, 6.0], [True, False])),
        ("time,status\n5,1\n6,1\n7,0\n8,2\n", "row 5: unknown status code '2' (expected 0 or 1)"),
    ], ids=["quoted", "bad-status"])
    def test_pipe_is_read_once(self, text, expected):
        # a pipe gives its bytes to the first reader only: a file outside
        # the plain form must not be opened a second time for the row parser
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
        try:
            if isinstance(expected, str):
                with pytest.raises(DataError) as info:
                    load_csv(path)
                assert str(info.value) == f"{path}: {expected}"
            else:
                d = load_csv(path)
                assert d.times.tolist() == expected[0] and d.event_mask.tolist() == expected[1]
                assert d.name == path
        finally:
            os.close(r)

    @pytest.mark.parametrize("path", [0, True, 3.5, None, b"data.csv"], ids=repr)
    def test_path_must_be_a_str_or_path_like(self, path):
        # open() takes 0 and True as file descriptors: fd 0 or 1 would be read
        # and closed.  fd 0 and fd 1 are pipes here, and stay open
        saved = os.dup(0), os.dup(1)
        r, w = os.pipe()
        os.write(w, b"time,status\n5,1\n")
        os.close(w)
        os.dup2(r, 0)
        os.dup2(r, 1)
        os.close(r)
        try:
            with pytest.raises(ValueError, match="^path must be a str or an os.PathLike, got ") as info:
                load_csv(path)
            os.fstat(0)
            os.fstat(1)
            assert os.read(0, 100) == b"time,status\n5,1\n"
        finally:
            os.dup2(saved[0], 0)
            os.dup2(saved[1], 1)
            os.close(saved[0])
            os.close(saved[1])
        assert not isinstance(info.value, DataError)

    @pytest.mark.parametrize("path", ["a\0b.csv", pathlib.Path("a\0b.csv")], ids=["str", "Path"])
    def test_nul_in_path_is_a_data_error(self, path):
        with pytest.raises(DataError, match=re.escape(f"cannot open {path!r}: embedded null byte")):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "time,status\n")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_negative_time_names_row(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n-5,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n\n-5,1\n")
        with pytest.raises(DataError, match="row 4: time must be > 0, got '-5'"):
            load_csv(path)

    def test_first_malformed_row_is_reported(self, tmp_path):
        # each row is checked in file order: time parse, time value, status
        path = write(tmp_path, "time,status\n10,1\n5,7\n-1,1\nabc,1\n")
        with pytest.raises(DataError, match=r"row 3: unknown status code '7' \(expected 0 or 1\)"):
            load_csv(path)
        path = write(tmp_path, "time,status\n10,1\nabc,7\n-1,1\n")
        with pytest.raises(DataError, match="row 3: cannot parse time 'abc'"):
            load_csv(path)
        path = write(tmp_path, "time,status\n10,1\n-1,7\nabc,1\n")
        with pytest.raises(DataError, match="row 3: time must be > 0, got '-1'"):
            load_csv(path)

    def test_short_rows_and_time_only_files(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n12\n")
        with pytest.raises(DataError, match="row 3: unknown status code ''"):
            load_csv(path)
        d = load_csv(write(tmp_path, "time\n 3.5 \n1e1\n", name="t.csv"))
        np.testing.assert_array_equal(d.times, [3.5, 10.0])
        assert d.n_events == 2

    def test_unparseable_time_names_row(self, tmp_path):
        path = write(tmp_path, "time,status\nabc,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_unknown_status(self, tmp_path):
        path = write(tmp_path, "time,status\n10,2\n")
        with pytest.raises(DataError, match="status"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "t,status\n10,1\n")
        with pytest.raises(DataError, match="missing column"):
            load_csv(path)

    def test_custom_columns_preserve_order(self, tmp_path):
        path = write(tmp_path, "dur,died,extra\n5,1,x\n2,0,y\n", name="c.csv")
        d = load_csv(path, time_col="dur", status_col="died")
        np.testing.assert_array_equal(d.times, [5.0, 2.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, parser, expected", _LOAD_CASES.values(), ids=_LOAD_CASES.keys())
    def test_both_parsers_read_alike(self, tmp_path, monkeypatch, text, parser, expected):
        # each file gives the dataset or the message that the row-by-row
        # parser alone gave before the C-speed path, takes the named parser,
        # and is opened once, whichever parser reads it
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        calls, opened = [], []

        def rows(*args):
            calls.append(args)
            return full(*args)

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        full = survdata._load_rows
        monkeypatch.setattr(survdata, "_load_rows", rows)
        monkeypatch.setattr(survdata, "open", counted_open, raising=False)
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                load_csv(path)
            assert str(info.value) == f"{path}: {expected}"
        else:
            times, events = expected
            d = load_csv(path)
            assert d.times.tobytes() == np.array(times, dtype=float).tobytes()
            np.testing.assert_array_equal(d.event_mask, events)
            assert d.name == str(path)
        assert ("full" if calls else "plain") == parser
        assert opened == [path]

    @settings(max_examples=300, deadline=None)
    @given(_plain_files(), st.data())
    def test_parsers_agree_on_generated_files(self, tmp_path_factory, plain_file, data):
        # both parsers read a plain file bit for bit alike; with one row
        # corrupted, the message names that row and the first check it fails
        lines, ending, names, rows = plain_file
        path = tmp_path_factory.mktemp("generated") / "data.csv"
        text = ending.join(lines) + ending * data.draw(st.integers(0, 1))
        path.write_bytes(text.encode())
        column = {name: i for i, name in enumerate(names)}
        times = [float(cells[column["time"]]) for _, cells in rows]
        events = [cells[column["status"]] == "1" if "status" in column else True for _, cells in rows]
        plain = survdata._load_plain(text, "time", "status")
        assert plain is not None and plain[0].tobytes() == np.array(times).tobytes()
        assert plain[1].tolist() == events
        r_times, r_events = survdata._load_rows(path, text, "time", "status")
        assert np.array(r_times).tobytes() == plain[0].tobytes() and r_events == events
        d = load_csv(path)
        assert d.times.tobytes() == plain[0].tobytes() and d.name == str(path)

        index, cells = data.draw(st.sampled_from(rows))
        cells = list(cells)
        # the last column that a row needs; cut before it, a row is short
        needed = max(column["time"], column.get("status", -1))
        kind = data.draw(st.sampled_from(
            [*_BAD_TIME] + ["status"] * ("status" in column) + ["short"] * (needed > 0)
        ))
        if kind == "short":
            # at least one cell is kept, else the row is a blank line
            cells = cells[: data.draw(st.integers(1, needed))]
            expected = (
                "cannot parse time ''" if column["time"] >= len(cells)
                else "unknown status code '' (expected 0 or 1)"
            )
        elif kind == "status":
            cells[column["status"]] = data.draw(_BAD_STATUS)
            expected = f"unknown status code {cells[column['status']]!r} (expected 0 or 1)"
        else:
            cells[column["time"]] = data.draw(_BAD_TIME[kind])
            expected = kind.format(cells[column["time"]])
            if "status" in column and data.draw(st.booleans()):
                # the time is checked before the status
                cells[column["status"]] = data.draw(_BAD_STATUS)
        lines = list(lines)
        lines[index] = ",".join(cells)
        path.write_bytes(ending.join(lines).encode())
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: row {index + 1}: {expected}"

    def test_plain_file_skips_the_row_parser(self, tmp_path, monkeypatch):
        # the C-speed path is taken, not a silent fallback to the row parser
        def refuse(*args):
            raise AssertionError("the row-by-row parser ran")

        monkeypatch.setattr(survdata, "_load_rows", refuse)
        d = load_csv(write(tmp_path, "time,status\n0.5,1\n2.25,0\n1e1,1\n"))
        assert d.times.tolist() == [0.5, 2.25, 10.0]
        assert d.event_mask.tolist() == [True, False, True]
        d = load_csv(write(tmp_path, "time\n3\n4\n", name="t.csv"))
        assert d.times.tolist() == [3.0, 4.0] and d.n_events == 2


class TestKaplanMeier:
    def test_all_events_hand_values(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(km.survival, [2 / 3, 1 / 3, 0.0], atol=1e-15)
        np.testing.assert_array_equal(km.at_risk, [3, 2, 1])

    def test_censored_first_hand_values(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [0, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [2.0, 3.0])
        np.testing.assert_allclose(km.survival, [0.5, 0.0], atol=1e-15)

    def test_all_censored_except_last(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [4.0])
        np.testing.assert_allclose(km.survival, [0.0])

    def test_no_events_rejected(self):
        d = CensoredDataset.from_arrays([1.0, 2.0], [0, 0])
        with pytest.raises(DataError):
            kaplan_meier(d)

    @pytest.mark.parametrize("times, survival, match", [
        ([1.0, 2.0], [0.5], "equal lengths"),
        ([2.0, 1.0], [0.5, 0.2], "increasing times"),
        ([1.0, 1.0], [0.5, 0.2], "increasing times"),
        ([1.0, 2.0], [0.2, 0.5], "nonincreasing survival"),
    ])
    def test_constructor_checks_its_fields(self, times, survival, match):
        # kaplan_meier builds its curve without these checks; the public
        # constructor keeps them
        counts = np.ones(len(times), dtype=np.intp)
        with pytest.raises(ValueError, match=match):
            KmCurve(np.array(times), np.array(survival), counts, counts)

    @pytest.mark.parametrize("rate", [0.0, 0.7])
    def test_built_curves_pass_the_constructor_checks(self, rate):
        for seed in range(20):
            curve = kaplan_meier(simulate_censored(KumIwParams(0.5, 1.5, 3.0), 200, rate, seed))
            KmCurve(curve.times, curve.survival, curve.at_risk, curve.events)

    def test_matches_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.5, 10.0, 40)
        d = CensoredDataset.from_arrays(times, np.ones(40))
        km = kaplan_meier(d)
        srt = np.sort(times)
        for t in km.times:
            ecdf_surv = np.mean(srt > t)
            assert km.survival_at(t) == pytest.approx(ecdf_surv, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        times = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        events = np.array([1, 0, 1, 1, 0, 1, 1, 1])
        km1 = kaplan_meier(CensoredDataset.from_arrays(times, events))
        perm = rng.permutation(len(times))
        km2 = kaplan_meier(CensoredDataset.from_arrays(times[perm], events[perm]))
        np.testing.assert_array_equal(km1.times, km2.times)
        np.testing.assert_allclose(km1.survival, km2.survival, atol=1e-15)

    @pytest.mark.parametrize("s", [1e-3, 7.0, 1e4])
    def test_scale_equivariance(self, s):
        # t -> s t keeps the order of the times: the same curve at the scaled times
        for seed in range(500, 510):
            d = simulate_censored(KumIwParams(2.0, 1.5, 3.0), 300, 0.2, seed)
            curve = kaplan_meier(d)
            scaled = kaplan_meier(CensoredDataset.from_arrays(d.times * s, d.event_mask))
            np.testing.assert_array_equal(scaled.times, curve.times * s)
            for name in ("survival", "at_risk", "events"):
                np.testing.assert_array_equal(getattr(scaled, name), getattr(curve, name))

    def test_late_censoring_adds_no_step(self):
        # a censored subject beyond the last event enlarges every risk set
        # (standard product-limit behaviour) but introduces no new step
        base = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        extended = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 9.0], [1, 1, 1, 0])
        km1, km2 = kaplan_meier(base), kaplan_meier(extended)
        np.testing.assert_array_equal(km1.times, km2.times)
        np.testing.assert_array_equal(km2.at_risk, [4, 3, 2])
        np.testing.assert_allclose(km2.survival, [3 / 4, 1 / 2, 1 / 4], atol=1e-15)

    def test_tied_events_share_risk_set(self):
        d = CensoredDataset.from_arrays([1.0, 1.0, 2.0, 2.0], [1, 1, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [1.0, 2.0])
        np.testing.assert_allclose(km.survival, [0.5, 0.0])
        np.testing.assert_array_equal(km.events, [2, 2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 6).map(float), st.floats(0.01, 100.0)),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ).filter(lambda rows: any(event for _, event in rows))
    )
    @example([(2.0, True)] * 4 + [(1.0, True)] * 3 + [(3.0, True)] * 5)  # heavy ties
    @example([(2.0, False), (2.0, True), (1.0, False), (2.0, True), (3.0, False)])
    @example([(1.0, True), (2.0, False), (3.0, False), (4.0, False)])  # censored after the last event
    @example([(5.0, True)])  # n = 1
    def test_matches_product_limit_oracle(self, rows):
        times, events = zip(*rows)
        km = kaplan_meier(CensoredDataset.from_arrays(times, events))
        expected = kaplan_meier_product_limit(times, events)
        for got, want in zip((km.times, km.survival, km.at_risk, km.events), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_tie_heavy_large_sample_matches_product_limit_oracle(self):
        # 10^4 rows on 50 integer times: numpy's default sort, which is not
        # stable, orders each tied run its own way, and each run is summed whole
        rng = np.random.default_rng(11)
        times = rng.integers(1, 51, 10_000).astype(float)
        events = rng.random(10_000) < 0.6
        km = kaplan_meier(CensoredDataset.from_arrays(times, events))
        expected = kaplan_meier_product_limit(times, events)
        assert len(km.times) == 50
        for got, want in zip((km.times, km.survival, km.at_risk, km.events), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_step_evaluation(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        km = kaplan_meier(d)
        assert km.survival_at(0.5) == 1.0
        assert km.survival_at(1.0) == pytest.approx(2 / 3)
        assert km.survival_at(1.7) == pytest.approx(2 / 3)
        np.testing.assert_allclose(km.survival_at(np.array([2.0, 2.9])), [1 / 3, 1 / 3])

    @pytest.mark.parametrize("t", ["1", ["1", 2.0], None, [True]])
    def test_non_numbers_rejected(self, t):
        km = kaplan_meier(CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 0]))
        with pytest.raises(ValueError, match="^times must be numbers, "):
            km.survival_at(t)

    @pytest.mark.parametrize("t", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_time_rejected(self, t):
        # searchsorted puts nan past the last step, which read as its survival
        km = kaplan_meier(CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 0]))
        with pytest.raises(ValueError, match="not nan"):
            km.survival_at(t)


class TestComparison:
    def test_values_are_composed_evaluations(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        p = KumIwParams(2.0, 1.5, 2.2)
        comp = km_vs_parametric(d, p)
        km = kaplan_meier(d)
        np.testing.assert_array_equal(comp.t, km.times)
        np.testing.assert_allclose(comp.km_survival, km.survival)
        np.testing.assert_allclose(comp.model_survival, np.asarray(survival(p, km.times)))

    def test_perfect_model_sits_on_diagonal(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        comp = km_vs_parametric(d, KumIwParams(1, 1, 1))
        # substituting the KM values for the model column puts every pair on y = x
        np.testing.assert_allclose(comp.km_survival, comp.km_survival)

    def test_close_on_self_simulated_data(self):
        from kumiw import fit_mle

        truth = KumIwParams(2.0, 1.5, 3.0)
        d = simulate_censored(truth, 200, 0.0, 4242)
        fit = fit_mle(d)
        comp = km_vs_parametric(d, fit.params)
        assert float(np.max(np.abs(comp.km_survival - comp.model_survival))) <= 0.12


class TestSimulation:
    def test_censoring_rate_calibration(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        d = simulate_censored(p, 10_000, 0.2, 77)
        frac = 1.0 - d.n_events / len(d)
        assert 0.17 <= frac <= 0.23

    def test_upper_bound_monotone_in_rate(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        assert censoring_upper_bound(p, 0.4) < censoring_upper_bound(p, 0.1)

    def test_deterministic(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        d1 = simulate_censored(p, 50, 0.3, 5)
        d2 = simulate_censored(p, 50, 0.3, 5)
        np.testing.assert_array_equal(d1.times, d2.times)
        np.testing.assert_array_equal(d1.event_mask, d2.event_mask)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, 0.0, "1", True])
    def test_upper_bound_validated(self, bound):
        with pytest.raises(ValueError, match="upper_bound must be finite and > 0"):
            simulate_censored(KumIwParams(2.0, 1.5, 3.0), 10, 0.2, 1, upper_bound=bound)

    @pytest.mark.parametrize("rate", [math.nan, 1.0, -0.1, math.inf, "1", None, True])
    def test_rate_validated_beside_an_upper_bound(self, rate):
        with pytest.raises(ValueError, match=r"^censoring rate must be in \[0, 1\), got"):
            simulate_censored(KumIwParams(2.0, 1.5, 3.0), 10, rate, 1, upper_bound=2.0)

    def test_integral_counts_are_the_ints(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        want = simulate_censored(p, 20, 0.2, 7)
        for n, seed in ((20.0, 7.0), (np.int64(20), np.int32(7))):
            assert simulate_censored(p, n, 0.2, seed) == want

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -1, "7", True, None])
    @pytest.mark.parametrize("name", ["n", "seed"])
    def test_count_rule_before_the_calibration(self, monkeypatch, name, bad):
        def calibrate(*args):
            raise AssertionError("calibrated before checking the counts")

        monkeypatch.setattr(survdata, "censoring_upper_bound", calibrate)
        what = {"n": "sample size must be a positive", "seed": "seed must be a non-negative"}[name]
        with pytest.raises(ValueError, match=f"^{what} integer, got {bad}$"):
            simulate_censored(KumIwParams(2.0, 1.5, 3.0), **{"n": 5, "censor_rate": 0.2, "seed": 1, name: bad})


def from_arrays_entry(p, time, event):
    # CensoredDataset.from_arrays' scalar entries: a second row beside (1.0, 1)
    return CensoredDataset.from_arrays([1.0, time], [1, event])


# ROADMAP item 10 (tests/sweep.py): every scalar argument of the
# simulation and its censoring bound, and each entry of
# CensoredDataset.from_arrays, one at a time from a valid point at
# (2, 1.5, 3).  Each call returns a dataset of finite times or a finite
# bound, or raises ValueError (DataError is one) or NumericError, and
# never warns.
_SWEEP = (
    (simulate_censored, {"n": 5, "censor_rate": 0.2, "seed": 1}, {"n", "seed"}),
    (simulate_censored, {"n": 5, "censor_rate": 0.2, "seed": 1, "upper_bound": 2.0}, {"n", "seed"}),
    (censoring_upper_bound, {"rate": 0.2}, set()),
    (from_arrays_entry, {"time": 2.0, "event": 1}, set()),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, kwargs", sweep_cases(_SWEEP))
def test_scalar_argument_contract(fn, kwargs):
    try:
        value = fn(KumIwParams(2, 1.5, 3), **kwargs)
    except (ValueError, NumericError):
        return
    assert np.all(np.isfinite(value.times if isinstance(value, CensoredDataset) else value))


# both criterion-8 truths, then heavy and light tails, beta from 0.5 to 100
BOUND_GRID = [
    (2.0, 1.5, 3.0), (1.0, 1.5, 3.0), (0.2, 1.0, 1.2), (50.0, 3.0, 0.8),
    (0.5, 2.0, 0.5), (3.0, 0.5, 100.0), (0.2, 10.0, 100.0), (50.0, 0.1, 100.0),
]


def assert_bound_calibrated(p, rate, root_rtol=None):
    m = censoring_upper_bound(p, rate)
    residual = censored_fraction_quad(p, m) - rate
    assert abs(residual) <= 1e-11
    if root_rtol is not None:
        # one Newton step on the oracle: d fraction / d log M = S(M) - fraction
        assert abs(residual / (rate - survival_closed_form(p, m))) <= root_rtol


class TestCensoringUpperBound:
    @pytest.mark.parametrize("rate", [0.01, 0.2, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("triple", BOUND_GRID)
    def test_grid_against_oracle(self, triple, rate):
        assert_bound_calibrated(KumIwParams(*triple), rate, root_rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(math.log(0.2), math.log(50.0)),
        st.floats(math.log(0.01), math.log(100.0)),
        st.floats(math.log(0.5), math.log(100.0)),
        st.floats(0.01, 0.99),
    )
    def test_property_against_oracle(self, log_b, log_c, log_beta, rate):
        p = KumIwParams(math.exp(log_b), math.exp(log_c), math.exp(log_beta))
        assert_bound_calibrated(p, rate)

    def test_heavy_tail(self):
        # 30-digit mpmath root; an adaptive quad inside brentq failed to converge here
        m = censoring_upper_bound(KumIwParams(0.2, 1.0, 1.2), 0.5)
        assert m == pytest.approx(51.836424513513, rel=1e-12)

    @pytest.mark.parametrize("triple", [(2.0, 1.5, 3.0), (0.2, 1.0, 1.2), (3.0, 0.5, 100.0)])
    def test_few_vectorised_survival_calls(self, triple, monkeypatch):
        calls = []

        def counting_survival(p, t):
            calls.append(np.size(t))
            return survival(p, t)

        monkeypatch.setattr(survdata, "survival", counting_survival)
        for rate in (0.01, 0.2, 0.99):
            calls.clear()
            censoring_upper_bound(KumIwParams(*triple), rate)
            assert 0 < len(calls) <= 40

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("triple", [(2.0, 1.0, 50.0), (2.0, 1.0, 3.0)])
    def test_scale_near_the_float_range(self, triple):
        # M = c M(1); near c = 1e307 the quadrature's node sum leaves the
        # float range before its factor brings it back, and numpy warned
        b, _, beta = triple
        unit = censoring_upper_bound(KumIwParams(*triple), 0.2)
        assert censoring_upper_bound(KumIwParams(b, 1e307, beta), 0.2) == pytest.approx(unit * 1e307, rel=1e-12)
        # at c = 1e308 the bound, about 5e308, is beyond the float range
        with pytest.raises(NumericError, match="cannot bracket"):
            censoring_upper_bound(KumIwParams(b, 1e308, beta), 0.2)

    def test_unreachable_bound_is_a_numeric_error(self):
        # M ~ 1e2000: x = (c/M)^beta underflows long before the root
        with pytest.raises(NumericError, match="cannot bracket"):
            censoring_upper_bound(KumIwParams(0.001, 1.0, 1.0), 0.01)

    def test_rate_validated(self):
        for rate in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="censoring rate"):
                censoring_upper_bound(KumIwParams(2.0, 1.5, 3.0), rate)

    @pytest.mark.parametrize("rate", ["1", None, True])
    def test_rate_must_be_a_number(self, rate):
        with pytest.raises(ValueError, match=rf"^censoring rate must be in \(0, 1\), got {rate}$"):
            censoring_upper_bound(KumIwParams(2.0, 1.5, 3.0), rate)


def _random_bound_cases(count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.log([0.2, 0.01, 0.5]), np.log([50.0, 100.0, 100.0])
    return [
        (tuple(np.exp(rng.uniform(lo, hi)).tolist()), float(rng.uniform(0.01, 0.99)))
        for _ in range(count)
    ]


def _recorded(f, xs):
    """f, appending each point it is evaluated at to xs."""
    return lambda y: (xs.append(y), f(y))[1]


@pytest.mark.dispatch
class TestBrentPort:
    """``_brentq`` is scipy's brentq loop on Python floats: on the same
    ``excess`` it must evaluate the same points and return the same root,
    bit for bit."""

    CASES = (
        _random_bound_cases(240, 2208)
        # the criterion-8 truth and null truth at their 20 % censoring
        + [((2.0, 1.5, 3.0), 0.2), ((1.0, 1.5, 3.0), 0.2)]
        # small rates at large beta, where the bracket widens and the
        # quadrature takes more panels
        + [((0.2, 10.0, 100.0), 0.01), ((3.0, 0.5, 100.0), 0.001), ((50.0, 0.1, 100.0), 0.005)]
    )

    def test_root_and_iterates_match_scipy(self, monkeypatch):
        port = survdata._brentq
        runs = []

        def both(f, xa, xb, xtol, what):
            ours, theirs = [], []
            root = port(_recorded(f, ours), xa, xb, xtol, what)
            runs.append((root, ours, optimize.brentq(_recorded(f, theirs), xa, xb, xtol=xtol), theirs))
            return root

        monkeypatch.setattr(survdata, "_brentq", both)
        for triple, rate in self.CASES:
            censoring_upper_bound(KumIwParams(*triple), rate)
            root, ours, scipy_root, theirs = runs[-1]
            assert root.hex() == scipy_root.hex(), (triple, rate)
            assert [y.hex() for y in ours] == [y.hex() for y in theirs], (triple, rate)
        assert len(runs) == len(self.CASES)

    def test_zero_division_bisects_as_scipy(self):
        # f near 1e-300 over a bracket of width 2e6: the extrapolation's
        # divided differences underflow to 0, where C divides by 0 and
        # bisects; the port must bisect at the same iterations
        def f(y):
            return 1e-300 * ((y - 0.3) ** 3 + 1.5 * (y - 0.3))

        ours, theirs = [], []
        root = survdata._brentq(_recorded(f, ours), -1e6, 1e6, 1e-12, "the root")
        scipy_root = optimize.brentq(_recorded(f, theirs), -1e6, 1e6, xtol=1e-12)
        assert root.hex() == scipy_root.hex()
        assert [y.hex() for y in ours] == [y.hex() for y in theirs]

    def test_nan_is_a_numeric_error_naming_p_and_rate(self, monkeypatch):
        # the bracket is found on the true integral; Brent's loop sees nan
        p, port, integral = KumIwParams(2.0, 1.5, 3.0), survdata._brentq, survdata._survival_integral
        started = []

        def flagged(*args):
            started.append(True)
            return port(*args)

        monkeypatch.setattr(survdata, "_brentq", flagged)
        monkeypatch.setattr(survdata, "_survival_integral", lambda p, y: math.nan if started else integral(p, y))
        with pytest.raises(NumericError, match=r"censoring bound for .*2\.0.* at rate 0\.2: .*nan"):
            censoring_upper_bound(p, 0.2)

    def test_no_sign_change(self):
        with pytest.raises(NumericError, match="the root: no sign change"):
            survdata._brentq(lambda y: 1.0 + y * y, -1.0, 1.0, 1e-15, "the root")

    def test_no_convergence(self):
        # a jump at 0 with a tolerance near the smallest float: bisection
        # alone needs about 2000 halvings of [-1e300, 1e300]
        with pytest.raises(NumericError, match="the root: no convergence in 100 iterations"):
            survdata._brentq(lambda y: -1.0 if y < 0.0 else 1.0, -1e300, 1e300, 5e-324, "the root")

    def test_endpoint_roots_returned(self):
        assert survdata._brentq(lambda y: y, 0.0, 1.0, 1e-15, "the root") == 0.0
        assert survdata._brentq(lambda y: y - 1.0, 0.0, 1.0, 1e-15, "the root") == 1.0
