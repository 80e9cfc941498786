"""Demonstration loading and preprocessing.

CSV layout: a header row `t,x1,...,xn` optionally extended by velocity
columns `v1,...,vn`, with one row per sample.  A file may instead carry a
leading `demo_id` column to pack several demonstrations into one file;
the variant is detected from the header.  A directory path is read as one
file per demonstration (sorted by name).

A file is read in one pass: after the whole-text checks (a quote, the
csv module's field-size limit, the header), its lines go to one
`np.loadtxt` call as they are.  That call skips empty lines, takes a
trailing CR as the end of its line, and rejects rows of unequal width,
cells that are not plain numbers and a CR inside a line; its block must
be as wide as the header and finite; and a converter on the demo_id
column codes the ids in order of first appearance while the rows are
parsed, so one stable sort by code groups the rows.  Only where that call
raises are the lines cut at every CR and the blank and comma-only rows,
which `_read_rows` skips too, dropped for one more call with a fresh
coder.  Where that pass meets anything else unusual, the file is read
again row by row with the csv module, which accepts what it can and
raises a ParseError naming the line of the first malformed row.  Both
readers give the same arrays for every file the first one accepts.

Positions are millimetres, times seconds.  On load every demonstration is
translated so that its end point, the motion goal, sits exactly at the
origin; the goal of the set (taken from the first demonstration, in the
original frame) is kept for reference.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, ParseError


@dataclass
class Demonstration:
    times: np.ndarray            # (T,), strictly increasing, seconds
    positions: np.ndarray        # (T, n), mm
    velocities: np.ndarray | None = None   # (T, n), mm/s

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).ravel()
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2:
            raise DimensionError(f"positions must be (T, n), not shape {self.positions.shape}: "
                                 "a 1-D motion is (T, 1)")
        if self.times.shape[0] != self.positions.shape[0]:
            raise DimensionError("times and positions must have equal length")
        if self.times.size == 0:
            raise DataError("empty demonstration")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("times must be strictly increasing")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)
            if self.velocities.shape != self.positions.shape:
                raise DimensionError("velocities must match positions in shape")

    @property
    def length(self):
        return self.times.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])


@dataclass
class DemoSet:
    demos: list
    goal: np.ndarray   # goal in the source frame of the first demonstration

    @property
    def dim(self):
        return self.demos[0].dim


@dataclass(frozen=True)
class PreprocessConfig:
    """Settings of velocity estimation and averaging, checked when built: a
    value out of range is a DataError naming its key."""

    smoothing_window: int = 5     # odd, >= 1
    resample_len: int = 1000

    def __post_init__(self):
        if not self.smoothing_window >= 1 or self.smoothing_window % 2 == 0:
            raise DataError("smoothing_window must be odd and >= 1")
        if not self.resample_len >= 2:
            raise DataError("resample_len must be at least 2")


def _parse_header(path, fields):
    fields = [f.strip().lower() for f in fields]
    has_id = fields and fields[0] == "demo_id"
    body = fields[1:] if has_id else fields
    if not body or body[0] != "t":
        raise ParseError(f"{path}: header must start with 't' (optionally after 'demo_id')", line=1)
    xcols = [c for c in body[1:] if c.startswith("x")]
    vcols = [c for c in body[1:] if c.startswith("v")]
    n = len(xcols)
    if n == 0 or body[1:] != [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, len(vcols) + 1)]:
        raise ParseError(f"{path}: unrecognized column layout {fields}", line=1)
    if vcols and len(vcols) != n:
        raise ParseError(f"{path}: {len(vcols)} velocity columns for {n} position columns", line=1)
    return has_id, n, bool(vcols)


def _read_text(path):
    """The text of `path`, less a leading UTF-8 byte-order mark; a byte that is
    not UTF-8 is a ParseError naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(f"{path}: byte 0x{raw[exc.start]:02x} is not UTF-8",
                         line=head.count(b"\n") + 1) from None


def _load_block(rows, has_id):
    """(block, ids) of the data rows from one `np.loadtxt` call, with the
    demo_ids coded in order of first appearance as the rows are parsed;
    ValueError where loadtxt rejects a row."""
    ids = {}
    coder = {0: lambda cell: ids.setdefault(cell.strip(), len(ids))} if has_id else None
    # comments=None: a '#' cell is malformed, not the start of a comment
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, converters=coder), ids


def _read_fast(path):
    """(n, has_v, {demo_id: rows}) of `path` from one `np.loadtxt` call, or
    None where the file has anything `_read_rows` might read differently or
    reject: a quote, a line longer than the csv module's field limit, a
    header it rejects, or no data rows (checked here), or rows of unequal
    width, a cell that is not a number or a non-finite value (rejected by
    `np.loadtxt`, or by the test of its block against the header)."""
    text = _read_text(path)
    if '"' in text:
        return None
    # \r\n and \r end a line, as they end a csv row.  loadtxt takes a
    # trailing \r as the end of its line and refuses one inside it, so the
    # lines are cut at \r here only where the header's line holds a lone one
    lines = text.split("\n")
    del text                        # peak memory: one copy of the file at a time
    if "\r" in lines[0][:-1]:
        lines = [row for line in lines for row in line.split("\r")]
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    try:
        has_id, n, has_v = _parse_header(path, header)
    except ParseError:
        return None
    rows = lines[1:]
    # no data rows: loadtxt would warn where every line is empty
    if not any(line.replace(",", "").strip() for line in rows):
        return None
    try:
        block, ids = _load_block(rows, has_id)
    except ValueError:
        # a blank or comma-only row, a \r inside a line, or a malformed row:
        # cut at every \r, drop the rows _read_rows skips, and try once more
        # with a fresh coder
        rows = [row for line in rows for row in line.split("\r")
                if row.replace(",", "").strip()]
        try:
            block, ids = _load_block(rows, has_id)
        except ValueError:
            return None
    if block.shape[1] != len(header) or not np.all(np.isfinite(block)):
        return None
    if not has_id:
        return n, has_v, {None: block}
    # a stable sort by code keeps each id's rows in file order and the ids
    # in order of first appearance; one split cuts where the code changes
    order = np.argsort(block[:, 0], kind="stable")
    cuts = np.flatnonzero(np.diff(block[order, 0])) + 1
    return n, has_v, dict(zip(ids, np.split(block[order, 1:], cuts)))


def _read_rows(path):
    """(n, has_v, {demo_id: rows}) of `path` read row by row with the csv
    module; the reference reader, which names the line of the first
    malformed row."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:                                # a csv.Error is a cell longer than the field limit
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file", line=1)
        has_id, n, has_v = _parse_header(path, header)
        ncols = len(header)
        groups = {}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            lineno = reader.line_num       # the file line the row ends on
            if len(row) != ncols:
                raise ParseError(f"{path}: expected {ncols} fields, got {len(row)}", line=lineno)
            try:
                vals = [float(c) for c in (row[1:] if has_id else row)]
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno)
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"{path}: non-finite value in {row}", line=lineno)
            key = row[0].strip() if has_id else None
            groups.setdefault(key, []).append(vals)
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=reader.line_num) from None
    if not groups:
        raise ParseError(f"{path}: no data rows")
    return n, has_v, {key: np.asarray(rows, dtype=float) for key, rows in groups.items()}


def _parse_file(path):
    n, has_v, groups = _read_fast(path) or _read_rows(path)
    demos = []
    for key, block in groups.items():
        vel = block[:, 1 + n:1 + 2 * n] if has_v else None
        try:
            demos.append(Demonstration(block[:, 0], block[:, 1:1 + n], vel))
        except (DataError, DimensionError) as exc:
            raise DataError(f"{path}" + (f" (demo_id {key})" if key else "") + f": {exc}")
    return demos


def load_demonstrations(path):
    """Load one or more demonstrations and move every goal to the origin.

    `path` is a CSV file or a directory of CSV files.  Velocities are read
    when the header has velocity columns.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise ParseError(f"{path}: no .csv files in directory")
    else:
        files = [path]
    demos = []
    for f in files:
        demos.extend(_parse_file(f))
    dim = demos[0].dim
    for d in demos:
        if d.dim != dim:
            raise DimensionError(f"demonstrations mix dimensions {dim} and {d.dim}")
    goal = demos[0].positions[-1].copy()
    for d in demos:
        d.positions = d.positions - d.positions[-1]
    return DemoSet(demos, goal)


def _moving_average(values, window):
    # shrinking window at the edges keeps constants exactly constant
    half = window // 2
    T = values.shape[0]
    csum = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    lo = np.clip(np.arange(T) - half, 0, T)
    hi = np.clip(np.arange(T) + half + 1, 0, T)
    return (csum[hi] - csum[lo]) / (hi - lo)[:, None]


def finite_difference_velocities(demo, cfg=PreprocessConfig()):
    """Estimate velocities by central differences plus moving-average smoothing.

    Interior samples use the centered difference over the bracketing
    timestamps, the ends use one-sided differences; affine trajectories
    reproduce their exact velocity.  Returns a new Demonstration.
    """
    if demo.length < 3:
        raise DataError("need at least 3 samples for central differences")
    t, x = demo.times, demo.positions
    v = np.empty_like(x)
    v[1:-1] = (x[2:] - x[:-2]) / (t[2:] - t[:-2])[:, None]
    v[0] = (x[1] - x[0]) / (t[1] - t[0])
    v[-1] = (x[-1] - x[-2]) / (t[-1] - t[-2])
    return Demonstration(t.copy(), x.copy(), _moving_average(v, cfg.smoothing_window))


def fill_velocities(dset, cfg=PreprocessConfig()):
    """The set with missing velocities estimated by `finite_difference_velocities`."""
    return DemoSet([d if d.velocities is not None else finite_difference_velocities(d, cfg)
                    for d in dset.demos], dset.goal)


def resample_and_average(dset, cfg=PreprocessConfig()):
    """Pointwise average of all demonstrations on a common time grid.

    Every demonstration is linearly resampled to `resample_len` points
    spanning its own duration rescaled to the mean duration; velocities
    pick up the d(own time)/d(common time) factor so the resampled
    trajectory stays dynamically consistent.  The averaged trajectory ends
    exactly at the origin.
    """
    demos = dset.demos
    if not demos:
        raise DataError("no demonstrations to average")
    for d in demos:
        if d.velocities is None:
            raise DataError("all demonstrations need velocities before averaging")
        if d.length < 2:
            raise DataError("each demonstration needs at least 2 samples")
    mean_T = float(np.mean([d.duration for d in demos]))
    grid = np.linspace(0.0, mean_T, cfg.resample_len)
    pos = np.zeros((cfg.resample_len, dset.dim))
    vel = np.zeros_like(pos)
    for d in demos:
        scale = d.duration / mean_T
        s = d.times[0] + grid * scale
        for c in range(d.dim):
            pos[:, c] += np.interp(s, d.times, d.positions[:, c])
            vel[:, c] += np.interp(s, d.times, d.velocities[:, c]) * scale
    pos /= len(demos)
    vel /= len(demos)
    pos[-1] = 0.0
    return Demonstration(grid, pos, vel)


def subsample_constraint_points(demo, k):
    """k positions at uniform index stride, always including both ends.

    k >= length returns every sample; the result is sorted, duplicate-free
    and a subset of the demonstration's positions.
    """
    if k < 1:
        raise DataError("k must be at least 1")
    T = demo.length
    idx = np.unique(np.round(np.linspace(0, T - 1, min(k, T))).astype(int))
    return demo.positions[idx]
