import collections
import errno
import hashlib
import io
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hcl.hurwitz as hurwitz_module
import oracles
from hcl.arith import is_fundamental
from hcl.hurwitz import (
    MAX_N_MAX,
    HurwitzTable,
    build_table,
    class_number,
    hurwitz,
    hurwitz_via_formula,
    read_table_csv,
    write_table_csv,
)


def test_hurwitz_examples():
    assert Fraction(hurwitz(0), 12) == Fraction(-1, 12)
    assert Fraction(hurwitz(3), 12) == Fraction(1, 3)
    assert Fraction(hurwitz(23), 12) == 3
    assert Fraction(hurwitz(275), 12) == 5


def test_hurwitz_zero_pattern():
    for D in range(1, 10**4 + 1):
        value = hurwitz(D)
        if D % 4 in (1, 2):
            assert value == 0
        else:
            assert value > 0, D


def test_class_number_examples():
    assert class_number(23) == 3
    assert class_number(4) == 1
    assert class_number(11) == 1
    with pytest.raises(ValueError):
        class_number(12)  # -12 = -3 * 2^2 is not fundamental


def test_class_number_equals_hurwitz_for_fundamental():
    for D in range(5, 3001):
        if is_fundamental(D):
            assert 12 * class_number(D) == hurwitz(D)


def test_formula_examples():
    assert Fraction(hurwitz_via_formula(11, 5), 12) == 5
    assert Fraction(hurwitz_via_formula(3, 1), 12) == Fraction(1, 3)
    assert hurwitz_via_formula(3, 7) == hurwitz(147)
    with pytest.raises(ValueError):
        hurwitz_via_formula(12, 2)


def test_formula_matches_enumeration_sample(table_small):
    for D in range(3, 301):
        if not is_fundamental(D):
            continue
        for f in range(1, 9):
            value = hurwitz_via_formula(D, f)
            assert type(value) is int, (D, f)
            assert value == hurwitz(D * f * f) == int(table_small.values[D * f * f]), (D, f)


def test_kronecker_hurwitz_relation(table_small):
    # sum over all m of H(4n - m^2) equals 2*sigma(n) - sum_{d|n} min(d, n/d)
    for n in range(1, 2001):
        total = Fraction(0)
        m = 0
        while m * m <= 4 * n:
            term = Fraction(int(table_small.values[4 * n - m * m]), 12)
            total += term if m == 0 else 2 * term
            m += 1
        lam = sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        assert total == 2 * oracles.sigma_brute(n) - lam, n


def test_build_table_small_values():
    t = build_table(4)
    assert [int(v) for v in t.values] == [-1, 0, 0, 4, 6]
    t0 = build_table(0)
    assert [int(v) for v in t0.values] == [-1]


def test_build_table_support_pattern():
    t = build_table(30)
    nonzero = {D for D in range(1, 31) if int(t.values[D])}
    assert nonzero == {3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28}


# n per row window, so a row window spans 4 * _WINDOW D and a heads window 2 * _WINDOW D
_WINDOW = hurwitz_module._WINDOW
# the head of a = 400, 3*400^2 + 4*400 <= D < 4*400*401, spans D = 2 * _WINDOW
_STRADDLE = 4 * 400 * 401
# every residue mod 4 around the first heads window edge and the first row
# window edge, which is the second heads edge; the boundary test below holds
# 2 * _WINDOW - 1 and 2 * _WINDOW
_EDGES = [2 * _WINDOW - 2, 2 * _WINDOW + 1] + [4 * _WINDOW + d for d in (-2, -1, 0, 1)]


@pytest.mark.parametrize(
    "n_max", [0, 1, 2, 3, 11, 12, 13, 47, 48, 49, 50, 1000, 20000, 65537] + _EDGES + [_STRADDLE]
)
def test_build_table_matches_strided_sweep(n_max):
    """Row boundaries (n_max + 1 a multiple of 4a or not) are where the
    periodic rows and the point-by-point head meet; window edges are where a
    window's lanes go into the table."""
    t = build_table(n_max)
    assert t.values.dtype == "int32"
    assert t.values.tolist() == oracles.build_table_strided_reference(n_max)


_LAST_ALONE = 4 * 257 * 258  # at this n_max the odd a = 257 forms the last batch of rows on its own


@pytest.mark.parametrize(
    "n_max",
    [
        2 * _WINDOW - 1,  # the table ends on a heads window boundary
        2 * _WINDOW,  # one past it
        4 * 255 * 256 - 1,  # the periodic part of a = 255, a new odd a, would start one past the end
        4 * 255 * 256,  # it covers the last D only
        4 * 256 * 257 - 1,  # likewise for a = 256, where the row of a = 1, 2, 4, ... grows
        4 * 256 * 257,
        _LAST_ALONE - 1,
        _LAST_ALONE,
    ],
)
def test_windowed_build_matches_oracles_at_boundaries(n_max):
    values = build_table(n_max).values
    assert oracles.kronecker_hurwitz_mismatches(values) == []
    assert values.tolist() == oracles.build_table_strided_reference(n_max)


def test_windowed_build_ends_on_a_batch_boundary(monkeypatch):
    batches = []

    def recording(values, rows, lo, hi):
        assert (lo, hi) == (0, (values.size + 3) // 4)  # one process sweeps every n
        batches.append(sorted((start, stop) for start, stop, _ in rows))
        sweep(values, rows, lo, hi)

    sweep = hurwitz_module._sweep_rows
    monkeypatch.setattr(hurwitz_module, "_sweep_rows", recording)
    for n_max in (_LAST_ALONE - 1, _LAST_ALONE):
        batches.clear()
        values = build_table(n_max).values
        assert oracles.kronecker_hurwitz_mismatches(values) == [], n_max
    # the stretch of a = 257 in n, from 257 * 258 (D = _LAST_ALONE) to the start of 514
    assert len(batches) >= 2 and batches[-1] == [(_LAST_ALONE // 4, 514 * 515)]


@pytest.mark.parametrize("n_max", _EDGES)
def test_row_lanes_flush_before_they_pass_the_bound(monkeypatch, n_max):
    # with the int16 bound lowered to 100, above every row entry at these sizes
    # (76 at most), each row window flushes several times, no row lane entry
    # passes the bound, and the table is unchanged
    bound, flushes = 100, collections.Counter()

    def checked(values, lanes, lo):
        if lanes.dtype == np.int16:
            assert lanes.max() <= bound, lo
            flushes[lo] += 1
        flush(values, lanes, lo)

    flush = hurwitz_module._flush
    monkeypatch.setattr(hurwitz_module, "_LANE_BOUND", bound)
    monkeypatch.setattr(hurwitz_module, "_flush", checked)
    assert build_table(n_max).values.tolist() == oracles.build_table_strided_reference(n_max)
    windows = -(-(n_max + 1) // (4 * _WINDOW))
    assert len(flushes) == windows and min(flushes.values()) >= 3, flushes


def test_build_table_passes_kronecker_hurwitz(table_1m):
    assert table_1m.values.dtype == "int32"
    assert oracles.kronecker_hurwitz_mismatches(table_1m.values) == []


def test_build_table_matches_strided_sweep_at_one_million(table_1m):
    assert table_1m.values.tolist() == oracles.build_table_strided_reference(10**6)


def _count_forks(monkeypatch):
    """Wrap os.fork; the list gains each child's pid in the parent."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_build_table_sha256_at_ten_million(monkeypatch):
    forks = _count_forks(monkeypatch)
    values = build_table(10**7).values
    assert len(forks) == 1  # the hash pins the table the two processes build
    digest = hashlib.sha256(values.astype("<i4").tobytes()).hexdigest()
    assert digest == "13e58c590a30b37bde8eddb7256a6b50cc9db2b1fa9860ff7c061829427d973f"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_max", [0, 1, 3, 4, 7, 8, 12, 13, 49, 50, 1000, 1001, 65537])
def test_forked_build_matches_strided_sweep_above_a_lowered_floor(monkeypatch, n_max):
    # n_end = (n_max + 4) // 4 runs odd and even; below n_max = 4 the parent's range is empty
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(hurwitz_module, "_FORK_FLOOR", 0)
    values = build_table(n_max).values
    assert len(forks) == 1
    assert values.dtype == "int32" and values.flags.owndata
    assert values.tolist() == oracles.build_table_strided_reference(n_max)
    assert oracles.kronecker_hurwitz_mismatches(values) == []
    _assert_no_child_left()


_HEADS_EDGE = _WINDOW // 2  # n at the first heads window edge; _WINDOW is the first row window edge


@pytest.mark.parametrize(
    "n_max, split",
    [
        (2**19 + 5, _HEADS_EDGE),  # n_end = 131074, even
        (2**20 + 2, _HEADS_EDGE),  # n_end = 262145, odd
        (2**20 + 2, _WINDOW),  # the upper range is one n long
        (2**20 + 6, _WINDOW),  # n_end = 262146, even
        (_STRADDLE, 140000),  # inside the head of a = 400, n in [120400, 160400)
        (4003, 1000),  # n_end = 1001, odd: the upper range is one n long
        (4004, 1001),  # n_end = 1002, even: likewise
    ],
)
def test_forked_build_matches_strided_sweep_at_forced_splits(monkeypatch, n_max, split):
    assert split < (n_max + 4) // 4
    monkeypatch.setattr(hurwitz_module, "_FORK_FLOOR", 0)
    monkeypatch.setattr(hurwitz_module, "_split", lambda n_end: split)
    values = build_table(n_max).values
    assert values.tolist() == oracles.build_table_strided_reference(n_max)
    assert oracles.kronecker_hurwitz_mismatches(values) == []
    _assert_no_child_left()


class _Planted(Exception):
    pass


def _raise_on(side, sweep):
    """A _sweep_range that raises in the parent (side 0, whose range starts at
    n = 0) or in the child (side 1)."""

    def sweep_or_raise(values, lo, hi):
        if (lo > 0) == side:
            raise _Planted(f"planted at n = {lo}")
        sweep(values, lo, hi)

    return sweep_or_raise


@pytest.mark.parametrize("when", ["before sending", "after sending"])
def test_forked_build_raises_when_the_child_raises(monkeypatch, when):
    # after the send every byte arrives, so only the exit status tells
    def send_then_raise(fd, view):
        send(fd, view)
        raise _Planted("after the send")

    send = hurwitz_module._send
    monkeypatch.setattr(hurwitz_module, "_FORK_FLOOR", 0)
    if when == "before sending":
        monkeypatch.setattr(hurwitz_module, "_sweep_range", _raise_on(1, hurwitz_module._sweep_range))
    else:
        monkeypatch.setattr(hurwitz_module, "_send", send_then_raise)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        build_table(5000)
    _assert_no_child_left()


def test_forked_build_detects_a_short_slice_from_a_child_that_exits_zero(monkeypatch):
    send = hurwitz_module._send
    monkeypatch.setattr(hurwitz_module, "_FORK_FLOOR", 0)
    monkeypatch.setattr(hurwitz_module, "_send", lambda fd, view: send(fd, view[:-4]))
    theirs = 4 * (5001 - 4 * hurwitz_module._split((5000 + 4) // 4))  # bytes of D >= 4 * split
    with pytest.raises(RuntimeError, match=f"the child sent {theirs - 4} of {theirs} bytes"):
        build_table(5000)
    _assert_no_child_left()


def test_forked_build_reaps_the_child_when_the_parent_raises(monkeypatch):
    monkeypatch.setattr(hurwitz_module, "_FORK_FLOOR", 0)
    monkeypatch.setattr(hurwitz_module, "_sweep_range", _raise_on(0, hurwitz_module._sweep_range))
    with pytest.raises(_Planted, match="planted at n = 0"):
        build_table(5000)
    _assert_no_child_left()


def test_build_table_holds_under_six_bytes_per_d():
    # 4 bytes per D of int32 table and 1 MiB of lanes; the heads' int32 lanes
    # and point indices peak above the int16 row lanes and row batches: 5.41
    # bytes per D measured, 0.08 of margin
    n_max = 10**6
    tracemalloc.start()
    try:
        table = build_table(n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.values.flags.owndata and table.values.flags.writeable
    assert peak < 5.49 * (n_max + 1), peak / (n_max + 1)


def test_forked_build_holds_under_six_bytes_per_d_in_the_parent(monkeypatch):
    # the child's lanes come back into the parent's own table, with no copy:
    # 4.68 bytes per D measured at the floor
    forks = _count_forks(monkeypatch)
    n_max = hurwitz_module._FORK_FLOOR
    tracemalloc.start()
    try:
        table = build_table(n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert table.values.flags.owndata and table.values.flags.writeable
    assert peak < 5.49 * (n_max + 1), peak / (n_max + 1)


def test_build_table_checks_the_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"beyond the supported {MAX_N_MAX}"):
            build_table(MAX_N_MAX + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def test_build_table_matches_pointwise(table_1m):
    rng = random.Random(11)
    for _ in range(1000):
        D = rng.randrange(0, 10**6 + 1)
        value = hurwitz(D)
        assert type(value) is int and value == int(table_1m.values[D]), D


def test_enumeration_matches_independent_oracle_sample():
    rng = random.Random(12)
    for _ in range(300):
        D = rng.randrange(0, 5000)
        assert hurwitz(D) == oracles.hurwitz_twelve_brute(D), D


def test_check_covers_is_the_one_coverage_rule():
    from hcl.congruence import search, verify_congruence
    from hcl.holproj import exact_projection_coefficient
    from hcl.qseries import eisenstein_hol

    t = build_table(100)
    t.check_covers(0)
    t.check_covers(100)
    # the coverage is the values' own: no table claims more than it holds
    short = HurwitzTable(build_table(1000).values)
    assert short.n_max == short.values.size - 1 == 1000
    cases = [
        (lambda: t.check_covers(101), 100, 101),
        (lambda: verify_congruence(5, 4, 3, 200, t), 100, 200),
        (lambda: search(5, 1, 200, t), 100, 200),
        (lambda: exact_projection_coefficient(5, 4, 1, 30, t), 100, 150),
        (lambda: eisenstein_hol(150, t), 100, 149),
        # the real table fails at D = 1060; a slice past the end of short would verify it
        (lambda: verify_congruence(5, 134, 122, 10**6, short), 1000, 10**6),
    ]
    for call, covers, need in cases:
        with pytest.raises(ValueError, match=rf"^table covers D <= {covers}, need {need}$"):
            call()
    assert verify_congruence(5, 134, 122, 1060, build_table(1060)) == (False, 1060)


def test_table_csv_roundtrip(tmp_path):
    t = build_table(50)
    path = tmp_path / "t.csv"
    write_table_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "D,twelveH"
    assert len(lines) == 52
    back = read_table_csv(path)
    assert back.n_max == 50
    assert [int(v) for v in back.values] == [int(v) for v in t.values]


def test_table_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_table_csv(path)


@pytest.mark.parametrize("n_max", [0, 1, 50, 5000, 2**14])  # 2**14 + 1 rows cross a write chunk
def test_table_csv_matches_csv_module_reference(tmp_path, n_max):
    t = build_table(n_max)
    ref = tmp_path / "ref.csv"
    oracles.write_table_csv_reference(t.values, ref)
    write_table_csv(t, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == ref.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["ref.csv", "t.csv"]
    back = read_table_csv(ref)
    assert back.n_max == n_max and back.values.dtype == "int32"
    assert back.values.tolist() == oracles.read_table_csv_reference(ref)


def _edit_row(lines, D, cell):
    lines[D + 1] = f"{D},{cell}".encode()


def _damage(kind, values):
    """Bytes of a 5000-row cache with one defect; the first three pass a
    reader that only parses the rows and checks the D column."""
    lines = [b"D,twelveH"] + [f"{D},{v}".encode() for D, v in enumerate(values.tolist())]
    if kind == "cut mid-row":  # the last complete row is D = 2382
        return b"".join(line + b"\r\n" for line in lines)[:20000]
    if kind == "edited at n_max":
        _edit_row(lines, 4999, values[4999] + 12)
    elif kind == "nonzero at D == 1 (mod 4)":
        _edit_row(lines, 2001, 12)
    elif kind == "non-integer cell":
        _edit_row(lines, 100, "12.5")
    elif kind == "cell beyond int32":
        _edit_row(lines, 4000, 3000000000)
    elif kind == "missing D row":
        del lines[1234 + 1]
    elif kind == "one column":
        lines[1:] = [f"{D}".encode() for D in range(len(values))]
    elif kind == "extra column":
        lines[1:] = [line + b",0" for line in lines[1:]]
    elif kind == "header only":
        del lines[1:]
    elif kind == "12H(0) edited":
        _edit_row(lines, 0, 0)
    return b"".join(line + b"\r\n" for line in lines)


DAMAGES = {  # kind -> the defect the reader must name
    "cut mid-row": "cut off",
    "edited at n_max": r"12\*H\(4999\) = \d+, enumeration gives",
    "nonzero at D == 1 (mod 4)": r"12\*H\(2001\) = 12 must be 0",
    "non-integer cell": "malformed row",
    "cell beyond int32": "malformed row",
    "missing D row": "row 1235 holds D = 1235",
    "one column": "malformed row: expected 2 columns, got 1",
    "extra column": "malformed row: expected 2 columns, got 3",
    "header only": "table cache has no rows",
    "12H(0) edited": r"12\*H\(0\) = 0, expected -1",
}


@pytest.mark.parametrize("kind", list(DAMAGES))
def test_read_table_csv_rejects_damaged_cache(tmp_path, kind):
    path = tmp_path / "damaged.csv"
    path.write_bytes(_damage(kind, build_table(4999).values))
    with pytest.raises(ValueError, match=DAMAGES[kind]) as info:
        read_table_csv(path)
    assert str(path) in str(info.value)


class _FullDisk(io.FileIO):
    """A file whose disk fills up after 1000 bytes."""

    def write(self, data):
        room = 1000 - self.tell()
        if len(data) > room:
            super().write(data[:room])
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "rename failed")


@pytest.mark.parametrize("step", ["write", "replace"])
def test_write_table_csv_is_atomic(tmp_path, monkeypatch, step):
    path = tmp_path / "t.csv"
    write_table_csv(build_table(50), path)
    before = path.read_bytes()
    if step == "write":
        monkeypatch.setattr(hurwitz_module, "open", _FullDisk, raising=False)
    else:
        monkeypatch.setattr(hurwitz_module.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write_table_csv(build_table(5000), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.csv"]
