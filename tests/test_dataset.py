"""Loading, differentiation, resampling and constraint subsampling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _synth import angle_demos, write_demo_csv, write_demo_dir
from cvfield import dataset
from cvfield.cli import main
from cvfield.dataset import (Demonstration, DemoSet, PreprocessConfig,
                             finite_difference_velocities, load_demonstrations,
                             resample_and_average, subsample_constraint_points)
from cvfield.errors import DataError, DimensionError, ParseError


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_translates_endpoint_to_origin(tmp_path):
    p = _write(tmp_path, "t,x1,x2\n0,0,0\n1,1,1\n")
    dset = load_demonstrations(p)
    assert len(dset.demos) == 1
    d = dset.demos[0]
    np.testing.assert_allclose(d.positions[0], [-1.0, -1.0])
    np.testing.assert_allclose(d.positions[-1], [0.0, 0.0])
    np.testing.assert_allclose(dset.goal, [1.0, 1.0])
    assert d.velocities is None


def test_load_each_demo_ends_at_origin(tmp_path):
    # demos with different raw endpoints: each is translated by its own
    # endpoint, the recorded goal is the first demo's endpoint
    text = ("demo_id,t,x1,x2\n"
            "0,0,0,0\n0,1,2,3\n"
            "1,0,1,1\n1,1,4,5\n")
    dset = load_demonstrations(_write(tmp_path, text))
    assert len(dset.demos) == 2
    for d in dset.demos:
        assert np.linalg.norm(d.positions[-1]) <= 1e-9
    np.testing.assert_allclose(dset.goal, [2.0, 3.0])


def test_load_demo_id_packing(tmp_path):
    dset = angle_demos(num=7, samples=50, seed=1)
    p = write_demo_csv(tmp_path / "all.csv", dset, velocities=True, demo_id=True)
    loaded = load_demonstrations(p)
    assert len(loaded.demos) == 7
    assert loaded.dim == 2
    for orig, got in zip(dset.demos, loaded.demos):
        np.testing.assert_allclose(got.times, orig.times)
        np.testing.assert_allclose(got.velocities, orig.velocities)
        # generator demos already end at the origin so translation is a no-op
        np.testing.assert_allclose(got.positions, orig.positions, atol=1e-12)


def test_load_directory_sorted(tmp_path):
    dset = angle_demos(num=3, samples=40, seed=2)
    d = write_demo_dir(tmp_path / "demos", dset)
    loaded = load_demonstrations(d)
    assert len(loaded.demos) == 3
    for orig, got in zip(dset.demos, loaded.demos):
        np.testing.assert_allclose(got.positions, orig.positions, atol=1e-12)


def test_load_velocity_column_handling(tmp_path):
    dset = angle_demos(num=1, samples=30, seed=0)
    with_v = write_demo_csv(tmp_path / "v.csv", dset, velocities=True, demo_id=False)
    no_v = write_demo_csv(tmp_path / "nov.csv", dset, velocities=False, demo_id=False)
    assert load_demonstrations(with_v).demos[0].velocities is not None
    assert load_demonstrations(no_v).demos[0].velocities is None


def test_load_rejects_malformed_input(tmp_path):
    with pytest.raises(ParseError):
        load_demonstrations(_write(tmp_path, "", "empty.csv"))
    with pytest.raises(ParseError):
        load_demonstrations(_write(tmp_path, "t,x1,x2\n", "rows.csv"))
    with pytest.raises(ParseError):
        load_demonstrations(_write(tmp_path, "x1,t\n0,0\n", "head.csv"))
    with pytest.raises(ParseError) as exc:
        load_demonstrations(_write(tmp_path, "t,x1,x2\n0,0,0\n1,1\n", "short.csv"))
    assert exc.value.line == 3
    with pytest.raises(ParseError, match="expected 3 fields, got 4") as exc:
        load_demonstrations(_write(tmp_path, "t,x1,x2\n0,0,0\n1,1,1,1\n2,2,2\n", "long.csv"))
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        load_demonstrations(_write(tmp_path, "t,x1,x2\n0,0,zap\n", "junk.csv"))
    assert exc.value.line == 2
    # a quoted cell that spans a newline: the bad cell is on file line 4
    with pytest.raises(ParseError) as exc:
        load_demonstrations(_write(tmp_path, 't,x1\n0,"1\n"\n1,zap\n', "quoted.csv"))
    assert exc.value.line == 4
    empty_dir = tmp_path / "no_csv_here"
    empty_dir.mkdir()
    with pytest.raises(ParseError):
        load_demonstrations(empty_dir)


@pytest.mark.parametrize("header, message", [
    ("t,x1,y1", "unrecognized column layout"),
    ("t,x1,x2,v1", "1 velocity columns for 2 position columns"),
], ids=["unrecognized-layout", "velocity-count"])
def test_header_layout_errors_name_line_1(tmp_path, header, message):
    width = header.count(",") + 1
    rows = "".join(",".join([str(t)] * width) + "\n" for t in range(3))
    with pytest.raises(ParseError, match=message) as exc:
        load_demonstrations(_write(tmp_path, header + "\n" + rows))
    assert exc.value.line == 1


def test_load_rejects_non_finite_values(tmp_path):
    # a NaN time would slip past the strictly-increasing check, since every
    # comparison with NaN is false
    with pytest.raises(ParseError) as exc:
        load_demonstrations(_write(tmp_path, "t,x1,x2\n0,0,0\nnan,1,1\n2,2,2\n", "nan.csv"))
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        load_demonstrations(_write(tmp_path, "t,x1,x2\n0,0,0\n1,1,1\n2,inf,2\n", "inf.csv"))
    assert exc.value.line == 4


@pytest.mark.parametrize("content, line", [
    pytest.param(b"t,x1\n0,0\n1," + b"9" * 131073 + b"\n2,2\n", 3, id="cell-over-field-limit"),
    pytest.param(b"t,x1\n0,0\n1,\xff\n", 3, id="not-utf8"),
    pytest.param(b"t,x1\r0,0\r\n1,2\r\xff,3\n", 4, id="not-utf8-after-cr"),
    pytest.param(b"\xef\xbb\xbft,x1\n0,0\n1,\xff\n", 3, id="not-utf8-after-bom"),
])
def test_unreadable_csv_is_a_parse_error_naming_file_and_line(tmp_path, capsys, monkeypatch,
                                                               content, line):
    # the same error from both readers, and `cvfield train` exits 1 with it
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["train", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 1
    assert f"line {line}: {path}" in capsys.readouterr().err
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            load_demonstrations(path)
        assert exc.value.line == line and str(path) in str(exc.value)
        monkeypatch.setattr(dataset, "_read_fast", lambda path: None)


@pytest.mark.parametrize("times, positions, velocities, error, message", [
    pytest.param(np.arange(3.0), np.zeros((2, 2)), None, DimensionError, "equal length",
                 id="times-long"),
    pytest.param(np.arange(0.0), np.zeros((0, 2)), None, DataError, "empty demonstration",
                 id="empty"),
    pytest.param(np.arange(2.0), np.zeros((2, 2)), np.zeros((2, 3)), DimensionError,
                 "match positions", id="velocities-shape"),
    # a flat array is not read as one sample of a T-dimensional motion
    pytest.param(np.linspace(0, 1, 5), np.linspace(0, 1, 5), None, DimensionError,
                 r"shape \(5,\): a 1-D motion is \(T, 1\)", id="positions-flat"),
])
def test_demonstration_rejects_inconsistent_arrays(times, positions, velocities, error, message):
    with pytest.raises(error, match=message):
        Demonstration(times, positions, velocities)


def test_train_rejects_a_demonstration_of_one_sample(tmp_path, capsys):
    # velocity columns skip the finite differences, so the average is the
    # first step to see the one-row demonstration
    path = _write(tmp_path, "demo_id,t,x1,x2,v1,v2\n0,0,1,1,-1,-1\n0,1,0,0,0,0\n"
                            "1,0,2,2,-2,-2\n")
    assert main(["train", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 1
    assert "each demonstration needs at least 2 samples" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_load_rejects_nonmonotone_times(tmp_path):
    p = _write(tmp_path, "t,x1,x2\n0,0,0\n2,1,1\n1,2,2\n")
    with pytest.raises(DataError):
        load_demonstrations(p)


def test_load_rejects_mixed_dimensions(tmp_path):
    d = tmp_path / "demos"
    d.mkdir()
    (d / "a.csv").write_text("t,x1,x2\n0,0,0\n1,1,1\n")
    (d / "b.csv").write_text("t,x1,x2,x3\n0,0,0,0\n1,1,1,1\n")
    with pytest.raises(DimensionError):
        load_demonstrations(d)


def test_fd_exact_on_affine():
    t = np.linspace(0.0, 3.0, 40)
    pos = np.stack([2.0 - 0.5 * t, 1.0 + 2.0 * t], axis=1)
    out = finite_difference_velocities(Demonstration(t, pos))
    np.testing.assert_allclose(out.velocities[:, 0], -0.5, atol=1e-12)
    np.testing.assert_allclose(out.velocities[:, 1], 2.0, atol=1e-12)


def test_fd_constant_gives_zero():
    t = np.linspace(0.0, 1.0, 10)
    pos = np.full((10, 2), 7.0)
    out = finite_difference_velocities(Demonstration(t, pos))
    np.testing.assert_allclose(out.velocities, 0.0, atol=1e-14)


def test_fd_quadratic_interior_value():
    # x = t^2 on t in [0, 2]: central differences give exactly 2t at the
    # interior and the default smoothing window keeps that affine profile
    # intact away from the ends, so v(1) = 2 exactly
    t = np.linspace(0.0, 2.0, 9)
    pos = np.stack([t**2, np.zeros_like(t)], axis=1)
    out = finite_difference_velocities(Demonstration(t, pos))
    assert abs(out.velocities[4, 0] - 2.0) <= 1e-12


def test_fd_needs_three_samples():
    t = np.array([0.0, 1.0])
    pos = np.zeros((2, 2))
    with pytest.raises(DataError):
        finite_difference_velocities(Demonstration(t, pos))


def test_average_single_demo_is_identity():
    t = np.linspace(0.0, 2.0, 50)
    pos = np.stack([t - 2.0, np.sin(t - 2.0)], axis=1)
    vel = np.stack([np.ones_like(t), np.cos(t - 2.0)], axis=1)
    dset = DemoSet([Demonstration(t, pos, vel)], np.zeros(2))
    avg = resample_and_average(dset, PreprocessConfig(resample_len=200))
    assert avg.times.size == 200
    np.testing.assert_allclose(avg.positions[-1], 0.0, atol=0.0)
    np.testing.assert_allclose(avg.positions[:, 0], avg.times - 2.0, atol=1e-9)
    np.testing.assert_allclose(avg.velocities[:, 0], 1.0, atol=1e-9)


def test_average_mirrored_demos_cancel():
    t = np.linspace(0.0, 1.0, 30)
    pos = np.stack([np.sin(np.pi * t), np.zeros_like(t)], axis=1)
    vel = np.stack([np.pi * np.cos(np.pi * t), np.zeros_like(t)], axis=1)
    dset = DemoSet([Demonstration(t, pos, vel),
                    Demonstration(t, -pos, -vel)], np.zeros(2))
    avg = resample_and_average(dset, PreprocessConfig(resample_len=64))
    np.testing.assert_allclose(avg.positions, 0.0, atol=1e-12)
    np.testing.assert_allclose(avg.velocities, 0.0, atol=1e-12)


def test_average_of_two_slopes():
    # lines with slopes 1 and 3 over the same duration average to slope 2
    t = np.linspace(0.0, 2.0, 40)
    a = Demonstration(t, np.stack([1.0 * (t - 2.0), np.zeros_like(t)], axis=1),
                      np.stack([np.ones_like(t), np.zeros_like(t)], axis=1))
    b = Demonstration(t, np.stack([3.0 * (t - 2.0), np.zeros_like(t)], axis=1),
                      np.stack([3.0 * np.ones_like(t), np.zeros_like(t)], axis=1))
    avg = resample_and_average(DemoSet([a, b], np.zeros(2)),
                               PreprocessConfig(resample_len=100))
    np.testing.assert_allclose(avg.positions[:, 0], 2.0 * (avg.times - 2.0), atol=1e-9)
    np.testing.assert_allclose(avg.velocities[:, 0], 2.0, atol=1e-9)


def test_average_rescales_velocities_by_duration():
    # durations 2 and 4 average to a grid of duration 3; unit-speed demos
    # come in rescaled by T_i / T_mean, so displacement stays consistent
    ta = np.linspace(0.0, 2.0, 30)
    tb = np.linspace(0.0, 4.0, 30)
    a = Demonstration(ta, np.stack([ta - 2.0, np.zeros_like(ta)], axis=1),
                      np.stack([np.ones_like(ta), np.zeros_like(ta)], axis=1))
    b = Demonstration(tb, np.stack([tb - 4.0, np.zeros_like(tb)], axis=1),
                      np.stack([np.ones_like(tb), np.zeros_like(tb)], axis=1))
    avg = resample_and_average(DemoSet([a, b], np.zeros(2)),
                               PreprocessConfig(resample_len=90))
    assert abs(avg.times[-1] - 3.0) <= 1e-12
    np.testing.assert_allclose(avg.velocities[:, 0], 1.0, atol=1e-9)
    np.testing.assert_allclose(avg.positions[0], [-3.0, 0.0], atol=1e-9)


def test_average_requires_velocities():
    t = np.linspace(0.0, 1.0, 5)
    dset = DemoSet([Demonstration(t, np.zeros((5, 2)))], np.zeros(2))
    with pytest.raises(DataError):
        resample_and_average(dset)


def test_average_needs_a_demonstration():
    with pytest.raises(DataError, match="no demonstrations to average"):
        resample_and_average(DemoSet([], np.zeros(2)))


def test_subsample_counts_and_membership():
    t = np.linspace(0.0, 1.0, 1000)
    pos = np.stack([t, t**2], axis=1)
    demo = Demonstration(t, pos)
    cp = subsample_constraint_points(demo, 250)
    assert cp.shape == (250, 2)
    np.testing.assert_allclose(cp[0], pos[0])
    np.testing.assert_allclose(cp[-1], pos[-1])
    # sorted, duplicate-free, and a subset of the demo samples
    idx = [int(np.argmin(np.linalg.norm(pos - c, axis=1))) for c in cp]
    assert idx == sorted(set(idx))
    for i, c in zip(idx, cp):
        np.testing.assert_allclose(c, pos[i])


def test_subsample_edge_counts():
    t = np.linspace(0.0, 1.0, 7)
    pos = np.stack([t, -t], axis=1)
    demo = Demonstration(t, pos)
    np.testing.assert_allclose(subsample_constraint_points(demo, 1), pos[:1])
    np.testing.assert_allclose(subsample_constraint_points(demo, 7), pos)
    np.testing.assert_allclose(subsample_constraint_points(demo, 99), pos)
    with pytest.raises(DataError):
        subsample_constraint_points(demo, 0)


# finite doubles, subnormals and -0.0 included, within 1e300 of zero so that
# moving the goal to the origin cannot overflow
_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def _csv_demos(draw):
    """1 to 3 demonstrations of dimension n as (times, columns) pairs, where
    columns holds the positions and, if drawn, the velocities."""
    n = draw(st.integers(1, 3))
    width = n * draw(st.sampled_from([1, 2]))
    demos = []
    for _ in range(draw(st.integers(1, 3))):
        times = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8, unique=True)))
        cols = draw(st.lists(st.lists(_FINITE, min_size=width, max_size=width),
                             min_size=len(times), max_size=len(times)))
        demos.append((np.array(times), np.array(cols).reshape(len(times), width)))
    return n, width > n, demos


def _csv_lines(n, has_v, demos, demo_id):
    """Header and data rows of the demos, every number written with repr."""
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)] * has_v
    lines = [["demo_id"] * demo_id + header]
    for k, (times, cols) in enumerate(demos):
        for t, row in zip(times, cols):
            lines.append([f"d{k}"] * demo_id + [repr(float(v)) for v in (t, *row)])
    return lines


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_demos(), st.booleans())
def test_csv_round_trip_is_bit_exact(tmp_path, drawn, demo_id):
    n, has_v, demos = drawn
    if not demo_id:
        demos = demos[:1]
    path = tmp_path / "demos.csv"
    path.write_text("".join(",".join(line) + "\n" for line in _csv_lines(n, has_v, demos, demo_id)))
    assert dataset._read_fast(path) is not None      # no silent fallback
    loaded = load_demonstrations(path)
    assert len(loaded.demos) == len(demos)
    assert np.array_equal(_bits(loaded.goal), _bits(demos[0][1][-1, :n]))
    for (times, cols), got in zip(demos, loaded.demos):
        X = cols[:, :n]
        assert np.array_equal(_bits(got.times), _bits(times))
        assert np.array_equal(_bits(got.positions), _bits(X - X[-1]))
        if has_v:
            assert np.array_equal(_bits(got.velocities), _bits(cols[:, n:]))
        else:
            assert got.velocities is None


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_demos(), st.booleans(), st.data())
def test_csv_malformed_cell_names_its_line(tmp_path, drawn, demo_id, data):
    n, has_v, demos = drawn
    lines = _csv_lines(n, has_v, demos, demo_id)
    row = data.draw(st.integers(1, len(lines) - 1), label="data row")
    col = data.draw(st.integers(int(demo_id), len(lines[0]) - 1), label="column")
    fault = data.draw(st.sampled_from(["zap", "", "nan", "-inf", "missing"]), label="fault")
    if fault == "missing":
        del lines[row][col]
    else:
        lines[row][col] = fault
    path = tmp_path / "bad.csv"
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    with pytest.raises(ParseError) as exc:
        load_demonstrations(path)
    assert exc.value.line == row + 1


def _load_outcome(path):
    try:
        return load_demonstrations(path)
    except (ParseError, DataError, DimensionError) as exc:
        return exc


# (file text, whether the np.loadtxt path reads it); the others fall back to
# the line-by-line parser, which accepts some of them and rejects the rest
_EDGE_FILES = {
    "hash-cell": ("t,x1,x2\n0,0,0\n#1,1,1\n2,2,2\n", False),
    "hash-line": ("t,x1\n0,0\n# a note\n1,1\n", False),
    "hash-trailing": ("t,x1\n0,0 # a note\n1,1\n", False),
    "quoted-cell": ('t,x1,x2\n0,"0.5",0\n1,1,1\n', False),
    "space-padded": ("t , X1, x2 \n 0 , 0 ,0\n1,\t1 , 1 \n", True),
    "crlf": ("t,x1,x2\r\n0,0,0\r\n1,1,1\r\n", True),
    "cr": ("t,x1\r0,0\r1,2\r", True),
    "blank-lines": ("t,x1,x2\n\n0,0,0\n   \n , ,\n1,1,1\n\n", True),
    "crlf-blank-lines": ("t,x1\r\n\r\n0,0\r\n \r\n1,1\r\n", True),
    "cr-inside-a-line": ("t,x1\n0,0\r1,1\n2,2\n", True),
    "comma-rows-only": ("t,x1\n , \n,\n", False),
    "interleaved-ids": ("demo_id,t,x1\nb,0,0\n a ,0,5\nb,1,1\na,1,6\nb,2,2\n", True),
    "blank-rows-between-ids": ("demo_id,t,x1\nb,0,0\n,,\na,0,5\n \nb,1,1\na,1,6\n", True),
    "id-only-row": ("demo_id,t,x1\na,0,0\nb\na,1,1\n", False),
    "underscore": ("t,x1\n0,1_0\n1,2\n", False),
    "nan": ("t,x1\n0,0\n1,nan\n", False),
    "short-row": ("t,x1,x2\n0,0,0\n1,1\n", False),
    "long-row": ("t,x1,x2\n0,0,0\n1,1,1,1\n2,2,2\n", False),
    "long-row-id": ("demo_id,t,x1\na,0,0\na,1,1,1\na,2,2\n", False),
    # rows that agree with each other but not with the header
    "wide-rows": ("t,x1\n0,0,0\n1,1,1\n", False),
    "narrow-rows": ("t,x1,x2\n0,0\n1,1\n", False),
    "one-id": ("demo_id,t,x1\na,0,0\na,1,1\n", True),
    "no-rows": ("t,x1,x2\n\n", False),
    "bom": ("\ufefft,x1,v1\n0,0,1\n1,1,1\n", True),
}


@pytest.mark.parametrize("name", sorted(_EDGE_FILES))
def test_fast_and_line_by_line_parsers_agree(tmp_path, monkeypatch, name):
    text, fast = _EDGE_FILES[name]
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    assert (dataset._read_fast(path) is not None) == fast
    got = _load_outcome(path)
    monkeypatch.setattr(dataset, "_read_fast", lambda path: None)
    ref = _load_outcome(path)
    if isinstance(ref, Exception):
        assert type(got) is type(ref)
        assert getattr(got, "line", None) == getattr(ref, "line", None)
        return
    assert len(got.demos) == len(ref.demos)
    assert np.array_equal(_bits(got.goal), _bits(ref.goal))
    for a, b in zip(got.demos, ref.demos):
        assert np.array_equal(_bits(a.times), _bits(b.times))
        assert np.array_equal(_bits(a.positions), _bits(b.positions))
        assert (a.velocities is None) == (b.velocities is None)


def test_many_interleaved_ids_group_as_the_line_by_line_parser_does(tmp_path):
    # 2,000 demo_ids in shuffled order, 3 rows each, dealt round-robin so that
    # no two rows of one id are adjacent: the fast reader's groups are
    # _read_rows's, in the same order and bit for bit
    rng = np.random.default_rng(12)
    ids = [f"d{i}" for i in rng.permutation(2000)]
    values = rng.normal(size=(3, len(ids), 2)) * 1e3
    lines = ["demo_id,t,x1"] + [f"{key},{j},{float(values[j, i, 0])!r}"
                                for j in range(3) for i, key in enumerate(ids)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    fast = dataset._read_fast(path)
    assert fast is not None
    ref = dataset._read_rows(path)
    assert fast[:2] == ref[:2] == (1, False)
    assert list(fast[2]) == list(ref[2]) == ids
    for key in ids:
        assert fast[2][key].shape == (3, 2)
        assert np.array_equal(_bits(fast[2][key]), _bits(ref[2][key]))


def test_retry_after_a_comma_only_row_codes_the_ids_afresh(tmp_path):
    # loadtxt's first call codes the comma-only row's empty id before it
    # fails on that row; the retry drops it and the whitespace-only row and
    # codes the ids afresh, so the groups are _read_rows's, keys included
    path = tmp_path / "edge.csv"
    path.write_bytes(_EDGE_FILES["blank-rows-between-ids"][0].encode())
    fast, ref = dataset._read_fast(path), dataset._read_rows(path)
    assert fast is not None
    assert fast[:2] == ref[:2] == (1, False)
    assert list(fast[2]) == list(ref[2]) == ["b", "a"]
    for key in ref[2]:
        assert np.array_equal(_bits(fast[2][key]), _bits(ref[2][key]))


@pytest.mark.parametrize("name, message", [("wide-rows", "expected 2 fields, got 3"),
                                           ("narrow-rows", "expected 3 fields, got 2")])
def test_rows_that_disagree_with_the_header_name_the_first_row(tmp_path, name, message):
    # every row one field wider, or narrower, than the header: the rows agree
    # with each other, so only the header test sends the file to _read_rows
    with pytest.raises(ParseError, match=message) as exc:
        load_demonstrations(_write(tmp_path, _EDGE_FILES[name][0]))
    assert exc.value.line == 2


def test_byte_order_mark_is_skipped(tmp_path, monkeypatch):
    # both readers give the arrays of the file without the mark, and a bad
    # byte after it is named by its own value and line
    text = _EDGE_FILES["bom"][0]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text[1:].encode())
    marked.write_bytes(text.encode())
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbft,x1\n0,0\n1,\xff\n")
    for _ in range(2):
        got, ref = load_demonstrations(marked), load_demonstrations(plain)
        assert len(got.demos) == len(ref.demos) == 1
        assert np.array_equal(_bits(got.goal), _bits(ref.goal))
        for a, b in zip(got.demos, ref.demos):
            for name in ("times", "positions", "velocities"):
                assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name)))
        with pytest.raises(ParseError, match="byte 0xff is not UTF-8") as exc:
            load_demonstrations(bad)
        assert exc.value.line == 3
        monkeypatch.setattr(dataset, "_read_fast", lambda path: None)
