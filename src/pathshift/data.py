"""Tabular loading, variable roles, complete-case filtering, outcome transforms.

An :class:`AnalysisFrame` is the immutable input every downstream stage works
on: a covariate matrix X, a 0/1 group indicator R (1 = comparison/advantaged
group), K ordered mediator blocks, and the outcome on its analysis scale.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import mmap
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .parallel import fork_map, usable_cores

OUTCOME_SCALES = ("raw", "log_positive", "positive_indicator")

# a body parses in one byte range per CSV_RANGE_BYTES, up to one per usable
# core; below that a forked worker costs more than its range saves
CSV_RANGE_BYTES = 2**20
# a body is scanned and parsed in line-aligned blocks of about this many bytes
_BLOCK_BYTES = 2**18


class DataError(ValueError):
    """Malformed input data or an inconsistent role specification."""


@dataclass(frozen=True)
class Dataset:
    """Column-oriented numeric dataset; missing values are NaN."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise DataError("columns have unequal lengths")

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"no column named {name!r}")
        return self.columns[name]


def load_csv(path: str, na_codes: Sequence[float] = ()) -> Dataset:
    """Read a comma-delimited UTF-8 file with a header row into a Dataset.

    The first row names the columns; names are stripped and must be unique.
    Every other line is one row with one numeric cell per column: anything
    Python's ``float`` accepts, surrounded by optional whitespace and
    optionally in double quotes. Empty cells are missing, and so are cells
    equal to one of the sentinel ``na_codes`` (e.g. -1, -7, -8, -9). A blank
    line is a row of the wrong width and is rejected, as is a non-numeric cell.

    numpy's C reader parses the body, a block of lines at a time. A body of
    ``CSV_RANGE_BYTES`` or more per usable core is split at line ends into one
    byte range per core, and each range is parsed by its own process into its
    columns of one shared buffer, so a large file loads on every usable core
    and gives the same values as in one range. Every column is read-only.

    Files the reader refuses or could read differently go through the row
    reader, :func:`_read_rows`, which owns the empty-cell rule and every
    error message: a file with an empty cell, a cell only Python's ``float``
    reads (``1_000``, non-ASCII digits), a bad cell or width, or a blank,
    whitespace-only or quoted-newline line. So does a file whose range worker
    fails or dies.
    """
    na = [float(c) for c in na_codes]
    with _open(path) as handle:
        reader = csv.reader(handle)
        names = _header(path, reader)
        handle.seek(0)
        start = len("".join(itertools.islice(handle, reader.line_num)).encode("utf-8"))
    table = _parse_body(path, start, len(names), na)
    ds = _read_rows(path, na_codes) if table is None else Dataset(dict(zip(names, table)))
    for column in ds.columns.values():
        column.setflags(write=False)
    return ds


def _open(path: str):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err


def _header(path: str, reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, no header row")
    names = [h.strip() for h in header]
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate column names")
    return names


def _parse_body(path: str, start: int, width: int, na: list[float]) -> np.ndarray | None:
    """The lines from byte ``start`` to the end as a (width, n) float array in a
    shared anonymous mapping, or None where the body is empty or a block's
    lines are refused.

    The blocks form min(usable cores, body bytes // CSV_RANGE_BYTES) ranges of
    consecutive blocks and about equal bytes. Each range is parsed in a forked
    worker, or here if it is the only one, and writes the rows of its blocks
    into their own columns of the array.
    """
    with open(path, "rb") as handle:
        blocks = _scan(handle, start)
        end = handle.tell()
    if not blocks:
        return None
    edges = np.cumsum([0] + [lines for _, lines in blocks])
    n = int(edges[-1])
    table = np.frombuffer(mmap.mmap(-1, max(8 * width * n, 1)), dtype=float, count=width * n).reshape(width, n)
    outs = [table[:, a:b] for a, b in zip(edges, edges[1:])]
    starts = [lo for lo, _ in blocks]
    k = max(1, min(usable_cores(), (end - start) // CSV_RANGE_BYTES))
    cuts = [bisect.bisect_left(starts, start + (end - start) * i // k) for i in range(k)] + [len(blocks)]
    parts = [(path, starts[a], outs[a:b], na) for a, b in zip(cuts, cuts[1:]) if b > a]
    return table if _parse_ranges(parts) else None


def _scan(handle, start: int) -> list[tuple[int, int]] | None:
    """The first byte and the line count of each block from byte ``start`` to
    the end, as the text layer splits lines (at LF, CRLF or a lone CR); None
    where a block holds an odd number of quotes.

    A block is about ``_BLOCK_BYTES`` long and ends on the next line end of
    either kind, never between the CR and the LF of a CRLF; that end is
    looked for at most 4 KiB at a time, as a file may have no LF. A block
    whose lines numpy reads in full has no literal quote, so an odd count
    means it ends inside a quoted field.
    """
    handle.seek(start)
    blocks = []
    while chunk := handle.read(_BLOCK_BYTES):
        lo = handle.tell() - len(chunk)
        while not chunk.endswith(b"\n"):  # extend the block to its next line end
            if chunk.endswith(b"\r"):  # a lone CR, or the CR of a CRLF
                chunk += handle.read(1) if handle.peek(1).startswith(b"\n") else b""
                break
            if not (line := handle.readline(2**12)):
                break
            cut = line.find(b"\r") + 1 or len(line)
            handle.seek(cut - len(line), os.SEEK_CUR)
            chunk += line[:cut]
        if b'"' in chunk and chunk.count(b'"') % 2:
            return None
        view = np.frombuffer(chunk, np.uint8)
        ends = np.count_nonzero(view == ord("\n"))  # 3-4x faster than bytes.count
        if b"\r" in chunk:  # and each lone CR: one not followed by an LF
            cr = view == ord("\r")
            ends += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (view[1:] == ord("\n")))
        blocks.append((lo, ends + (chunk[-1:] not in b"\r\n")))
    return blocks


def _parse_range(part: tuple) -> None:
    """Parse the lines from byte ``lo`` of ``part = (path, lo, outs, na)``
    into each of ``outs`` in turn, one column a row and ``out.shape[1]``
    lines each; raise ValueError where numpy's reader refuses them or could
    read them differently from the row reader.

    numpy skips blank lines and joins quoted newlines, so its row count must
    equal the number of lines for each of its rows to be one row of the file.
    A block at a time keeps numpy's own buffer small.
    """
    path, lo, outs, na = part
    raw = open(path, "rb")
    raw.seek(lo)
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for out in outs:
            width, lines = out.shape
            rows = np.loadtxt(
                itertools.islice(text, lines), delimiter=",", dtype=float, comments=None, quotechar='"', ndmin=2
            )
            if rows.shape != (lines, width):
                raise DataError(f"{path}: numpy reads the {lines} lines from byte {lo} as {rows.shape} cells")
            rows[np.isin(rows, na)] = np.nan
            out[...] = rows.T


def _parse_ranges(parts: list[tuple]) -> bool:
    """:func:`_parse_range` on every part, each in a forked worker when there
    are several (:func:`~pathshift.parallel.fork_map`): False if one raises,
    which stops the others, or if a worker dies or a fork fails."""
    try:
        fork_map(_parse_range, parts, len(parts))
    except Exception:  # noqa: BLE001 - the caller reads the file with the row reader
        return False
    return True


def _read_rows(path: str, na_codes: Sequence[float]) -> Dataset:
    """Row-by-row reader: :func:`load_csv` for the files numpy's reader refuses."""
    na_set = {float(c) for c in na_codes}
    with _open(path) as handle:
        reader = csv.reader(handle)
        names = _header(path, reader)
        cols: list[list[float]] = [[] for _ in names]
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


@dataclass(frozen=True)
class GroupSpec:
    name: str
    reference: float
    comparison: float

    def __post_init__(self):
        if self.reference == self.comparison:
            raise DataError("group reference and comparison levels must differ")


@dataclass(frozen=True)
class RoleSpec:
    """Variable roles: covariates X, group R, ordered mediator blocks, outcome Y."""

    covariates: tuple[str, ...]
    group: GroupSpec
    mediator_blocks: tuple[tuple[str, ...], ...]
    outcome: str
    outcome_scale: str = "raw"

    def __post_init__(self):
        if self.outcome_scale not in OUTCOME_SCALES:
            raise DataError(f"unknown outcome scale {self.outcome_scale!r}")
        if len(self.mediator_blocks) < 1:
            raise DataError("need at least one mediator block")
        if any(len(block) == 0 for block in self.mediator_blocks):
            raise DataError("mediator blocks must be non-empty")
        seen: set[str] = set()
        groups = [list(self.covariates), [self.group.name], [self.outcome]]
        groups += [list(block) for block in self.mediator_blocks]
        for names in groups:
            for name in names:
                if name in seen:
                    raise DataError(f"column {name!r} assigned to more than one role")
                seen.add(name)

    @property
    def n_blocks(self) -> int:
        return len(self.mediator_blocks)

    def all_columns(self) -> tuple[str, ...]:
        names = list(self.covariates) + [self.group.name]
        for block in self.mediator_blocks:
            names += list(block)
        names.append(self.outcome)
        return tuple(names)


@dataclass(frozen=True)
class AnalysisFrame:
    """Complete-case analysis data with roles applied; immutable."""

    x: np.ndarray
    r: np.ndarray
    m_blocks: tuple[np.ndarray, ...]
    y: np.ndarray
    scale_applied: str = "raw"
    covariate_names: tuple[str, ...] = ()
    block_names: tuple[tuple[str, ...], ...] = ()
    outcome_name: str = "y"
    group_labels: tuple[float, float] = (0.0, 1.0)  # (reference, comparison)

    def __post_init__(self):
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, dtype=float))
        object.__setattr__(self, "r", np.ascontiguousarray(self.r, dtype=np.int8))
        object.__setattr__(self, "y", np.ascontiguousarray(self.y, dtype=float))
        object.__setattr__(self, "m_blocks", tuple(np.ascontiguousarray(b, dtype=float) for b in self.m_blocks))
        self.x.setflags(write=False)
        self.r.setflags(write=False)
        self.y.setflags(write=False)
        for block in self.m_blocks:
            block.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.m_blocks)

    def m_upto(self, k: int) -> np.ndarray:
        """Columns of the first k mediator blocks, in block order (empty for k=0)."""
        if k == 0:
            return np.empty((self.n, 0))
        return np.hstack([self.m_blocks[j] for j in range(k)])


def apply_outcome_scale(y_raw: np.ndarray, scale: str) -> np.ndarray:
    if scale == "raw":
        return y_raw.astype(float)
    if scale == "positive_indicator":
        return (y_raw > 0).astype(float)
    if scale == "log_positive":
        if (y_raw < 0).any():
            raise DataError("negative outcome under log_positive scale")
        out = np.zeros_like(y_raw, dtype=float)
        pos = y_raw > 0
        out[pos] = np.log(y_raw[pos])
        return out
    raise DataError(f"unknown outcome scale {scale!r}")


def build_frame(ds: Dataset, roles: RoleSpec) -> AnalysisFrame:
    """Assemble an AnalysisFrame: keep complete cases in the two target group
    levels, recode R to 0/1 (1 = comparison), apply the outcome transform."""
    for name in roles.all_columns():
        if name not in ds.columns:
            raise DataError(f"role column {name!r} not in dataset")

    group_col = ds.column(roles.group.name)
    in_pair = (group_col == roles.group.reference) | (group_col == roles.group.comparison)
    complete = in_pair.copy()
    for name in roles.all_columns():
        complete &= ~np.isnan(ds.column(name))

    keep = np.flatnonzero(complete)
    r = (group_col[keep] == roles.group.comparison).astype(np.int8)
    if (r == 1).sum() < 2 or (r == 0).sum() < 2:
        raise DataError("fewer than 2 complete rows in one of the group levels")

    x = np.column_stack([ds.column(name)[keep] for name in roles.covariates]) if roles.covariates else np.empty((keep.size, 0))
    blocks = tuple(np.column_stack([ds.column(name)[keep] for name in block]) for block in roles.mediator_blocks)
    y = apply_outcome_scale(ds.column(roles.outcome)[keep], roles.outcome_scale)

    return AnalysisFrame(
        x=x,
        r=r,
        m_blocks=blocks,
        y=y,
        scale_applied=roles.outcome_scale,
        covariate_names=tuple(roles.covariates),
        block_names=tuple(tuple(b) for b in roles.mediator_blocks),
        outcome_name=roles.outcome,
        group_labels=(roles.group.reference, roles.group.comparison),
    )


def one_hot(ds: Dataset, column: str, drop_first: bool = True) -> Dataset:
    """Expand an integer-coded categorical column into indicator columns.

    The reference level (dropped when ``drop_first``) is the first level in
    order of first appearance. Missing values propagate to every indicator.
    """
    values = ds.column(column)
    nan_mask = np.isnan(values)
    observed, first = np.unique(values[~nan_mask], return_index=True)
    seen = observed[np.argsort(first)]
    if len(seen) < 2:
        raise DataError(f"column {column!r} has fewer than 2 observed levels")
    levels = seen[1:] if drop_first else seen
    new_cols = dict(ds.columns)
    del new_cols[column]
    for level in levels:
        ind = (values == level).astype(float)
        ind[nan_mask] = np.nan
        new_cols[f"{column}_{level:g}"] = ind
    return Dataset(new_cols)


def _group_level(group: dict, key: str) -> float:
    try:
        return float(group[key])
    except (TypeError, ValueError) as err:
        raise DataError(f"config group {key!r} must be a number, got {group[key]!r}") from err


def role_spec_from_config(cfg: dict) -> RoleSpec:
    """Build a RoleSpec from the structured config mapping.

    Expected keys: ``covariates`` (list), ``group`` (name/reference/comparison),
    ``mediators`` (ordered list of lists), ``outcome`` (name/scale).
    """
    try:
        group = cfg["group"]
        outcome = cfg["outcome"]
        return RoleSpec(
            covariates=tuple(cfg.get("covariates", ())),
            group=GroupSpec(
                name=group["name"],
                reference=_group_level(group, "reference"),
                comparison=_group_level(group, "comparison"),
            ),
            mediator_blocks=tuple(tuple(block) for block in cfg["mediators"]),
            outcome=outcome["name"],
            outcome_scale=outcome.get("scale", "raw"),
        )
    except KeyError as err:
        raise DataError(f"config missing required key: {err}") from err
