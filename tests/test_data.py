import csv
import importlib.util
import io
import os
import signal
import time

import numpy as np
import pytest

from pathshift import data
from pathshift.data import (
    DataError,
    Dataset,
    GroupSpec,
    RoleSpec,
    build_frame,
    load_csv,
    one_hot,
    role_spec_from_config,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_maps_sentinels_to_missing(tmp_path):
    path = write(tmp_path, "age,smoke\n30,1\n41,-9\n52,0\n")
    ds = load_csv(path, na_codes=[-1, -7, -8, -9])
    assert ds.n_rows == 3
    assert np.isnan(ds.column("smoke")).sum() == 1
    assert np.isnan(ds.column("age")).sum() == 0


def test_load_csv_identity_without_na_codes(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n-9,4\n")
    ds = load_csv(path)
    assert np.array_equal(ds.column("a"), [1.0, -9.0])
    assert np.array_equal(ds.column("b"), [2.0, 4.0])


def test_load_csv_header_only(tmp_path):
    ds = load_csv(write(tmp_path, "a,b\n"))
    assert ds.n_rows == 0


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError, match="expected 2 fields"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(write(tmp_path, "a,b\n1,x\n"))
    with pytest.raises(DataError, match="duplicate"):
        load_csv(write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(tmp_path / "missing.csv"))


def reference_load_csv(path, na_codes=()):
    """The per-cell loop that ``load_csv`` must reproduce: values, names and errors."""
    na_set = {float(c) for c in na_codes}
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, no header row")
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate column names")
        cols = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise DataError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            for j, cell in enumerate(row):
                cell = cell.strip()
                if cell == "":
                    cols[j].append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric value {cell!r} in column {names[j]!r}")
                cols[j].append(np.nan if value in na_set else value)
    return Dataset({name: np.asarray(col, dtype=float) for name, col in zip(names, cols)})


READER_EDGE_CASES = {
    "plain": ("a,b\n1,2\n-3.5,4e2\n", ()),
    "sentinels": ("a,b\n1,-9\n-7,2\n-1,-8\n", (-1, -7, -8, -9)),
    "empty_leading": ("a,b\n,2\n3,4\n", ()),
    "empty_middle": ("a,b,c\n1,,3\n", ()),
    "empty_trailing": ("a,b,c\n1,2,\n", ()),
    "empty_row": ("a,b\n1,2\n,\n", ()),
    "pad_spaces": ("a,b\n 1 ,  2\n", ()),
    "pad_tabs": ("a,b\n\t1\t,2\t\n", ()),
    "pad_nbsp": ("a,b\n\xa01\xa0,2\n", ()),
    "quoted": ('a,b\n"1",2\n', ()),
    "quote_after_space": ('a,b\n "1",2\n', ()),
    "space_after_quote": ('a,b\n"1" ,2\n', ()),
    "doubled_quote": ('a,b\n"1""",2\n', ()),
    "quoted_comma": ('a,b\n"1,5",2\n', ()),
    "quoted_newline": ('a,b\n"1\n2",3\n', ()),
    "quoted_trailing_newline": ('a,b\n"1\n",3\n4,5\n', ()),
    "text_after_quote": ('a,b\n"1"2,3\n', ()),
    "quote_mid_cell": ('a,b\n1"2",3\n', ()),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", ()),
    "lone_cr": ("a,b\r1,2\r3,4\r", ()),
    "no_final_newline": ("a,b\n1,2\n3,4", ()),
    "blank_line_middle": ("a,b\n1,2\n\n3,4\n", ()),
    "blank_line_end": ("a,b\n1,2\n\n", ()),
    "blank_line_one_column": ("a\n1\n\n2\n", ()),
    "whitespace_line_one_column": ("a\n1\n  \n2\n", ()),
    "nan_inf": ("a,b,c,d\nnan,NaN,-Infinity,inf\n", ()),
    "underscore": ("a,b\n1_000,2\n", ()),
    "arabic_digit": ("a,b\n\u0661,2\n", ()),
    "hex": ("a,b\n0x10,2\n", ()),
    "hash": ("a,b\n2#c,3\n", ()),
    "overflow": ("a,b\n1e400,2\n", ()),
    "underflow_and_negative_zero": ("a,b,c\n4.9e-325,-0,1\n", (0,)),
    "trailing_comma": ("a,b\n1,2,\n", ()),
    "short_row": ("a,b\n1,2\n3\n", ()),
    "long_row": ("a,b\n1,2\n3,4,5\n", ()),
    "every_row_long": ("a,b\n1,2,3\n4,5,6\n", ()),
    "every_row_short": ("a,b,c\n1,2\n4,5\n", ()),
    "header_only": ("a,b\n", ()),
    "header_only_one_column": ("a\n", ()),
    "empty_header_cell": ("a,,b\n1,2,3\n", ()),
    "padded_header": (" a , b\n1,2\n", ()),
    "duplicate_header": ("a,a\n1,2\n", ()),
    "empty_file": ("", ()),
    "blank_header": ("\n1\n", ()),
}


def assert_same_load(path, na_codes):
    try:
        expected = reference_load_csv(path, na_codes)
    except DataError as err:
        with pytest.raises(DataError) as got:
            load_csv(path, na_codes)
        assert str(got.value) == str(err)
        return
    got = load_csv(path, na_codes)
    assert list(got.columns) == list(expected.columns)
    for name, column in expected.columns.items():
        assert got.columns[name].dtype == np.float64
        assert got.columns[name].flags.c_contiguous
        assert np.array_equal(got.columns[name], column, equal_nan=True), name
        assert np.array_equal(np.signbit(got.columns[name]), np.signbit(column)), name


@pytest.mark.parametrize("case", sorted(READER_EDGE_CASES))
def test_load_csv_matches_row_reader(tmp_path, case):
    text, na_codes = READER_EDGE_CASES[case]
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_load(str(path), na_codes)


def test_load_csv_matches_row_reader_on_benchmark_csv(tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_inputs", os.path.join(root, "perfbench", "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data_path, _ = inputs.build("decompose_glm_1m", 5, 2000, str(tmp_path))
    expected = reference_load_csv(data_path, (-1, -7, -8, -9))
    assert np.isnan(expected.column("smoke")).any()
    # a clean file never reaches the row reader
    monkeypatch.setattr(data, "_read_rows", None)
    assert_same_load(data_path, (-1, -7, -8, -9))


@pytest.fixture
def ranged(monkeypatch, usable_cores):
    """Call it with a core count and a block size in bytes to parse every body
    in that many ranges; blocks of 1 byte hold one line each."""

    def set_ranges(cores: int, block_bytes: int = 1) -> None:
        monkeypatch.setattr(data, "CSV_RANGE_BYTES", 1)
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        usable_cores(cores)

    return set_ranges


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (usable cores, block bytes): one range of blocks of a line or two, ranges of
# one-line blocks, and three ranges of about one block each
LAYOUTS = [(1, 6), (2, 1), (3, 6), (3, 24)]


@pytest.mark.parametrize("cores, block_bytes", LAYOUTS)
@pytest.mark.parametrize("case", sorted(READER_EDGE_CASES))
def test_ranged_load_csv_matches_row_reader(tmp_path, ranged, case, cores, block_bytes):
    ranged(cores, block_bytes)
    text, na_codes = READER_EDGE_CASES[case]
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_load(str(path), na_codes)
    assert_no_child_process()


# a line of a nine-line two-column body that each case puts at every line in
# turn, so that it falls in each range or block and straddles each edge
RANGED_LINES = {
    "quoted_newline": '"1\n",2',
    "quoted_newline_refused": '"1\n2",3',
    "blank_line": "",
    "bare_cr": "1,2\r3,4",
    "bare_cr_quoted": '"1\r",2',
    "empty_cell": "1,",
    "non_numeric": "1,x",
    "short_row": "1",
    "sentinel": "-9,-0",
    "no_final_newline": None,
}


def ranged_text(case: str, at: int) -> str:
    rows = [f"{i}.5,{-i}e1" for i in range(9)]
    if RANGED_LINES[case] is None:
        return "a,b\n" + "\n".join(rows[: at + 1])
    rows[at] = RANGED_LINES[case]
    return "a,b\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("cores, block_bytes", LAYOUTS)
@pytest.mark.parametrize("at", range(9))
@pytest.mark.parametrize("case", sorted(RANGED_LINES))
def test_ranged_load_csv_matches_row_reader_wherever_the_odd_line_falls(tmp_path, ranged, case, at, cores, block_bytes):
    ranged(cores, block_bytes)
    path = tmp_path / "ranged.csv"
    path.write_bytes(ranged_text(case, at).encode("utf-8"))
    assert_same_load(str(path), (-9, 0))
    assert_no_child_process()


@pytest.mark.parametrize("cores", [1, 2])
def test_a_quoted_newline_across_a_block_edge_reads_as_the_row_reader(tmp_path, monkeypatch, ranged, cores):
    # one cell "1\n2", which the row reader refuses; each one-line block alone
    # reads a clean number on its side of the edge, which with two cores is
    # also the edge between the ranges
    ranged(cores)
    text = "a\n" + "3\n" * 2 + '"1\n"2\n'
    path = tmp_path / "straddle.csv"
    # the same bytes with spaces for quotes read as four rows, in ranges that
    # start at the first row and, with two cores, at the last
    path.write_bytes(text.replace('"', " ").encode("utf-8"))
    parse_ranges = data._parse_ranges
    range_starts = []

    def recorded(parts):
        range_starts.extend(part[1] for part in parts)
        return parse_ranges(parts)

    monkeypatch.setattr(data, "_parse_ranges", recorded)
    assert load_csv(str(path)).n_rows == 4
    assert range_starts == [2, text.index('"2')][:cores]
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError, match=r":4: non-numeric value '1\\n2'"):
        load_csv(str(path))
    assert_same_load(str(path), ())


LINE_ENDS = {"lone_cr": ["\r"], "mixed": ["\r", "\r\n", "\n"]}


@pytest.mark.parametrize("cores, block_bytes", LAYOUTS)
@pytest.mark.parametrize("ends", sorted(LINE_ENDS))
def test_a_lone_cr_file_scans_in_blocks_and_loads_as_the_row_reader(tmp_path, ranged, ends, cores, block_bytes):
    # each block ends on the next line end of either kind, and no CRLF is
    # split between two blocks
    ranged(cores, block_bytes)
    cycle = LINE_ENDS[ends]
    text = "a,b\r" + "".join(f"{i}.5,{-i}e1{cycle[i % len(cycle)]}" for i in range(40))
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as handle:
        blocks = data._scan(handle, len("a,b\r"))
    assert len(blocks) > 1 and sum(lines for _, lines in blocks) == 40
    assert_same_load(str(path), ())
    assert_no_child_process()


def test_scanning_a_lone_cr_file_reads_it_about_once(tmp_path, monkeypatch):
    # a block's end is looked for a little at a time, not by reading to the
    # next LF, which a lone-CR file does not have
    monkeypatch.setattr(data, "_BLOCK_BYTES", 2**14)
    path = tmp_path / "cr.csv"
    path.write_bytes(("a,b\r" + "".join(f"{i}.5,{-i}e1\r" for i in range(40_000))).encode("utf-8"))

    class CountingFile(io.FileIO):
        read = 0

        def readinto(self, buffer):
            count = super().readinto(buffer)
            CountingFile.read += count or 0
            return count

    with io.BufferedReader(CountingFile(path)) as handle:
        blocks = data._scan(handle, len("a,b\r"))
    assert len(blocks) > 40 and sum(lines for _, lines in blocks) == 40_000
    assert CountingFile.read < 2 * os.path.getsize(path)


def test_ranged_load_csv_parses_the_benchmark_csv_without_the_row_reader(tmp_path, monkeypatch, ranged):
    path = tmp_path / "bench.csv"
    rows = np.random.default_rng(4).standard_normal((500, 4))
    rows[::7, 2] = -9
    path.write_text("w,x,y,z\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    expected = reference_load_csv(str(path), (-9,))
    monkeypatch.setattr(data, "_read_rows", None)
    for cores, block_bytes in [(1, data._BLOCK_BYTES), *LAYOUTS]:
        ranged(cores, block_bytes)
        got = load_csv(str(path), (-9,))
        for name, column in expected.columns.items():
            assert got.column(name).tobytes() == column.tobytes()
    assert_no_child_process()


def test_a_refused_range_kills_and_reaps_the_other_workers(tmp_path, monkeypatch, ranged):
    ranged(3)
    parse_range = data._parse_range

    def slow_worker(part):
        if part[1] != len("a,b\n"):  # every worker but the one that holds range 0
            time.sleep(60)
        return parse_range(part)

    monkeypatch.setattr(data, "_parse_range", slow_worker)
    path = tmp_path / "refused.csv"
    path.write_bytes(("a,b\n,1\n" + "1,2\n" * 50).encode("utf-8"))
    start = time.perf_counter()
    got = load_csv(str(path))
    assert time.perf_counter() - start < 30  # the first range is refused, so its workers are killed
    assert np.isnan(got.column("a")[0]) and got.n_rows == 51
    assert_no_child_process()


@pytest.mark.parametrize("death", ["killed", "raises", "exit_code", "raises_here", "fork_fails"])
def test_a_dying_range_worker_leads_to_the_row_reader(tmp_path, monkeypatch, ranged, death):
    ranged(1 if death == "raises_here" else 3)  # one range parses in this process
    parent = os.getpid()
    parse_range = data._parse_range
    if death == "fork_fails":
        fork = os.fork
        forks = []

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("fork")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)

    def dying(part):
        if os.getpid() != parent:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if death == "raises":
                raise MemoryError("worker")
            if death == "exit_code":
                os._exit(3)
        elif death == "raises_here":
            raise OSError("range 0")
        return parse_range(part)

    calls = []
    read_rows = data._read_rows
    monkeypatch.setattr(data, "_parse_range", dying)
    monkeypatch.setattr(data, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    path = tmp_path / "dying.csv"
    path.write_bytes(("a,b\n" + "1,-9\n" * 30).encode("utf-8"))
    got = load_csv(str(path), (-9,))
    assert len(calls) == 1
    assert np.array_equal(got.column("b"), np.full(30, np.nan), equal_nan=True)
    assert_no_child_process()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("text", ["a,b\n1,2\n3,4\n5,6\n", "a,b\n1,\n3,4\n5,6\n"], ids=["numpy", "row_reader"])
def test_load_csv_columns_are_read_only(tmp_path, ranged, text, cores):
    ranged(cores)
    path = tmp_path / "ro.csv"
    path.write_bytes(text.encode("utf-8"))
    ds = load_csv(str(path))
    for column in ds.columns.values():
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


def toy_roles(scale="raw"):
    return RoleSpec(
        covariates=("x1",),
        group=GroupSpec("race", reference=0.0, comparison=1.0),
        mediator_blocks=(("m1",), ("m2",)),
        outcome="y",
        outcome_scale=scale,
    )


def toy_dataset(n=10, missing_mediator_rows=()):
    rng = np.random.default_rng(0)
    cols = {
        "x1": rng.standard_normal(n),
        "race": np.tile([0.0, 1.0], n // 2),
        "m1": rng.standard_normal(n),
        "m2": rng.standard_normal(n),
        "y": np.abs(rng.standard_normal(n)) + 0.1,
    }
    for idx in missing_mediator_rows:
        cols["m1"][idx] = np.nan
    return Dataset(cols)


def test_build_frame_complete_case_count():
    frame = build_frame(toy_dataset(10, missing_mediator_rows=(2, 5)), toy_roles())
    assert frame.n == 8


def test_build_frame_row_count_matches_manual_filter():
    ds = toy_dataset(12, missing_mediator_rows=(0,))
    ds.columns["race"][3] = 2.0  # a third group level: dropped
    roles = toy_roles()
    expected = sum(
        1
        for i in range(12)
        if not np.isnan(ds.column("m1")[i]) and ds.column("race")[i] in (0.0, 1.0)
    )
    assert build_frame(ds, roles).n == expected


def test_outcome_transforms():
    ds = toy_dataset(6)
    ds.columns["y"] = np.array([0.0, np.e, np.e**2, 5.0, 7.0, 1.0])
    log_frame = build_frame(ds, toy_roles("log_positive"))
    assert np.allclose(log_frame.y[:3], [0.0, 1.0, 2.0])
    ind_frame = build_frame(ds, toy_roles("positive_indicator"))
    assert np.array_equal(ind_frame.y, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    raw_frame = build_frame(ds, toy_roles("raw"))
    assert np.array_equal(raw_frame.y, ds.column("y"))


def test_log_positive_zero_iff_nonpositive_raw():
    ds = toy_dataset(6)
    ds.columns["y"] = np.array([0.0, 0.5, 2.0, 0.0, 3.0, 4.0])
    frame = build_frame(ds, toy_roles("log_positive"))
    raw = ds.column("y")
    assert np.array_equal(frame.y == 0.0, raw == 0.0)
    pos = raw > 0
    assert np.allclose(frame.y[pos], np.log(raw[pos]))


def test_negative_outcome_under_log_positive_errors():
    ds = toy_dataset(6)
    ds.columns["y"][0] = -1.0
    with pytest.raises(DataError, match="negative outcome"):
        build_frame(ds, toy_roles("log_positive"))


def test_group_recode_comparison_is_one():
    ds = toy_dataset(10)
    frame = build_frame(ds, toy_roles())
    assert np.array_equal(frame.r, (ds.column("race") == 1.0).astype(int))


def test_build_frame_idempotent_on_raw_scale():
    frame = build_frame(toy_dataset(10, missing_mediator_rows=(1,)), toy_roles())
    cols = {"x1": frame.x[:, 0], "race": frame.r.astype(float), "m1": frame.m_blocks[0][:, 0],
            "m2": frame.m_blocks[1][:, 0], "y": frame.y}
    roles2 = RoleSpec(("x1",), GroupSpec("race", 0.0, 1.0), (("m1",), ("m2",)), "y", "raw")
    frame2 = build_frame(Dataset(cols), roles2)
    assert frame2.n == frame.n
    assert np.array_equal(frame2.x, frame.x)
    assert np.array_equal(frame2.r, frame.r)
    assert np.array_equal(frame2.y, frame.y)
    for a, b in zip(frame2.m_blocks, frame.m_blocks):
        assert np.array_equal(a, b)


def test_too_few_rows_per_group_errors():
    ds = toy_dataset(10)
    ds.columns["race"] = np.array([0.0] * 9 + [1.0])
    with pytest.raises(DataError, match="fewer than 2"):
        build_frame(ds, toy_roles())


def test_role_spec_validation():
    with pytest.raises(DataError, match="more than one role"):
        RoleSpec(("x1",), GroupSpec("g", 0, 1), (("x1",),), "y")
    with pytest.raises(DataError, match="non-empty"):
        RoleSpec(("x1",), GroupSpec("g", 0, 1), ((),), "y")
    with pytest.raises(DataError, match="at least one mediator"):
        RoleSpec(("x1",), GroupSpec("g", 0, 1), (), "y")
    with pytest.raises(DataError, match="must differ"):
        GroupSpec("g", 1.0, 1.0)
    with pytest.raises(DataError, match="unknown outcome scale"):
        RoleSpec(("x1",), GroupSpec("g", 0, 1), (("m",),), "y", "exotic")


def test_missing_role_column_errors():
    with pytest.raises(DataError, match="not in dataset"):
        build_frame(toy_dataset(10), RoleSpec(("nope",), GroupSpec("race", 0, 1), (("m1",),), "y"))


def test_one_hot_reference_is_first_observed():
    ds = Dataset({"c": np.array([2.0, 1.0, 3.0, 2.0, np.nan]), "y": np.arange(5.0)})
    out = one_hot(ds, "c")
    assert "c" not in out.columns
    assert set(out.columns) == {"y", "c_1", "c_3"}  # level 2 (first observed) dropped
    assert np.isnan(out.column("c_1")[4])
    assert np.array_equal(out.column("c_1")[:4], [0.0, 1.0, 0.0, 0.0])

    # leading NaNs, levels out of sorted order and a level that first appears last
    c = np.array([np.nan, 5.0, np.nan, 0.5, 5.0, 10.0, np.nan, 0.5, -2.0])
    out = one_hot(Dataset({"c": c, "y": np.arange(9.0)}), "c", drop_first=False)
    assert list(out.columns) == ["y", "c_5", "c_0.5", "c_10", "c_-2"]
    for name, level in [("c_5", 5.0), ("c_0.5", 0.5), ("c_10", 10.0), ("c_-2", -2.0)]:
        expected = (c == level).astype(float)
        expected[np.isnan(c)] = np.nan
        assert np.array_equal(out.column(name), expected, equal_nan=True)
    assert list(one_hot(Dataset({"c": c}), "c").columns) == ["c_0.5", "c_10", "c_-2"]
    with pytest.raises(DataError, match="fewer than 2 observed levels"):
        one_hot(Dataset({"c": np.array([np.nan, 3.0, 3.0, np.nan])}), "c")


def test_role_spec_from_config():
    cfg = {
        "covariates": ["age", "sex"],
        "group": {"name": "race", "reference": 2, "comparison": 1},
        "mediators": [["inc", "edu"], ["ins"]],
        "outcome": {"name": "exp", "scale": "log_positive"},
    }
    roles = role_spec_from_config(cfg)
    assert roles.covariates == ("age", "sex")
    assert roles.group.comparison == 1.0
    assert roles.mediator_blocks == (("inc", "edu"), ("ins",))
    assert roles.outcome_scale == "log_positive"
    with pytest.raises(DataError, match="missing required key"):
        role_spec_from_config({"outcome": {"name": "y"}})


def test_frame_is_immutable():
    frame = build_frame(toy_dataset(10), toy_roles())
    with pytest.raises(ValueError):
        frame.y[0] = 99.0
    with pytest.raises(ValueError):
        frame.x[0, 0] = 99.0
