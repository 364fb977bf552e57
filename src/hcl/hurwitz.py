"""Hurwitz class numbers: per-value enumeration, the multiplicative formula,
and a dense int32 table built by a windowed sweep over reduced quadratic
forms.  Every discriminant 4ac - b^2 is 0 or 3 (mod 4), so the sweep runs
over n and fills only the two live lanes D = 4n and D = 4n + 3; the points
below where each a's progressions turn periodic are added window by window
too.

All values are carried as the integer 12*H(D), a plain int from hurwitz and
hurwitz_via_formula, so that every computation stays in exact integer
arithmetic; congruence checks modulo primes ell > 3 are then valid on 12*H
directly since gcd(12, ell) = 1.  Table values are int32: 12*H(D) stays below
10^6 for every D the table builder accepts, so callers widen to int64 before
multiplying them.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import check_fundamental, factorize, hecke_factor, kronecker

__all__ = [
    "HurwitzTable",
    "hurwitz",
    "class_number",
    "hurwitz_via_formula",
    "MAX_N_MAX",
    "build_table",
    "write_table_csv",
    "read_table_csv",
]


def hurwitz(D: int) -> int:
    """12*H(D) as an int; H(D) itself is Fraction(hurwitz(D), 12).

    H(0) = -1/12, H(D) = 0 unless -D is congruent to 0 or 1 mod 4, otherwise
    H(D) is the weighted count of classes of positive definite binary
    quadratic forms of discriminant -D, found by enumerating the reduced forms
    (a, b, c): |b| <= a <= c with b >= 0 whenever |b| = a or a = c.  Forms
    proportional to x^2+y^2 weigh 1/2 and to x^2+xy+y^2 weigh 1/3; the loop
    below runs over b >= 0 and books 24 per (a, b, c) with 0 < b < a < c to
    account for the +-b pair.
    """
    if D < 0:
        raise ValueError("hurwitz expects D >= 0")
    if D == 0:
        return -1
    if D % 4 in (1, 2):
        return 0
    total = 0
    for b in range(D % 2, isqrt(D // 3) + 1, 2):
        m4 = b * b + D
        if m4 % 4:
            continue
        m = m4 // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if b == a == c:
                total += 4
            elif b == 0 and a == c:
                total += 6
            elif b == 0 or b == a or a == c:
                total += 12
            else:
                total += 24
    return total


def class_number(D: int) -> int:
    """h(-D) for a fundamental discriminant -D; equals H(D) for D > 4."""
    check_fundamental(D)
    if D in (3, 4):
        return 1
    twelve = hurwitz(D)
    if twelve % 12:
        raise ArithmeticError(f"H({D}) is not an integer for fundamental -{D}")
    return twelve // 12


def hurwitz_via_formula(D: int, f: int) -> int:
    """12*H(D*f^2) via the multiplicative class number formula
    H(D f^2) = H(D) * prod_{p | f} (sigma1(f_p) - (-D|p) * sigma1(f_p / p)).
    """
    check_fundamental(D)
    if f < 1:
        raise ValueError("f must be a positive integer")
    twelve = hurwitz(D)
    for p, e in factorize(f):
        twelve *= hecke_factor(p**e, kronecker(-D, p), p)
    return twelve


@dataclass(frozen=True)
class HurwitzTable:
    """Dense table of 12*H(D) for 0 <= D <= n_max, where n_max is read off
    the values, values.size - 1, so no table claims a D it does not hold."""

    values: np.ndarray  # int32, values[D] == 12*H(D)

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    def check_covers(self, n: int) -> None:
        """Raise ValueError unless the table reaches D = n."""
        if n > self.n_max:
            raise ValueError(f"table covers D <= {self.n_max}, need {n}")


# The largest n_max build_table accepts.  There the table takes 0.8 GB, the
# build peaks at about 860 MiB of RSS and takes about 65 s on a 2-vCPU Xeon,
# and 12*H(D) <= 384,744, far below 2^31.
MAX_N_MAX = 2 * 10**8
_WINDOW = 1 << 18  # n per row window: the lanes D = 4n, 4n + 3 are 1 MiB of int16 and stay in L2
_LANE_BOUND = 2**15 - 1  # the most an int16 row lane entry may reach before its window is flushed


def build_table(n_max: int) -> HurwitzTable:
    """Table of 12*H(D) for all D <= n_max by a windowed sweep over form triples.

    For each (a, b) with 0 <= b <= a the discriminants 4ac - b^2, c >= a,
    form an arithmetic progression with step 4a, and every term is 0 or 3
    (mod 4).  So the sweep runs over n and adds only to the two live lanes
    D = 4n and D = 4n + 3, held as interleaved pairs in a buffer of _WINDOW
    n: D lands at lane entry D // 2, and each window's buffer is added into
    the table before the next window is read.  The terms with c = a go into
    the table directly.  The terms with c > a below 4a(a + 1), the head of
    a, go in by their own sweep: in each window, the b whose head started
    below it add as one partial row, the rest point by point.  From 4a(a + 1)
    on, the progressions of a add up to one periodic weight row of 2a lane
    entries.  The rows of a, 2a, 4a, ... sum to one row of the largest of
    them, so each odd m contributes one row per stretch between the starts
    of its multiples m * 2^j.  The rows are held in batches of about an
    eighth of the table's entries, one sweep per batch.

    Every weight with c > a is 12 or 24, so the sweeps add counts in units
    of 12, and the table is multiplied by 12 before the terms with c = a go
    in.  The rows and the row lanes are int16.  An entry of the row of a is
    at most 2a, so the sum of the rows of a, a/2, a/4, ... is below
    4a <= 4 * a_body < 2^15 for every n_max <= MAX_N_MAX.  A row adds at
    most its largest entry to a lane entry, so a sweep flushes a window's
    lanes into the table before the sum of the largest entries of the rows
    added since its last flush would pass _LANE_BOUND: exactness rests on
    that sum, not on the size of H.  The heads keep int32 lanes, over
    windows of _WINDOW / 2 n so that they too take 1 MiB.  The table is
    int32 from the start, and the build holds about 4.4 bytes per D (a
    tracemalloc peak of 4.40 at 10^7).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > MAX_N_MAX:
        raise ValueError(f"n_max = {n_max} beyond the supported {MAX_N_MAX}")
    values = np.zeros(n_max + 1, dtype=np.int32)
    a_body = (isqrt(n_max + 1) - 1) // 2  # the largest a with 4a(a + 1) <= n_max
    budget = max(values.size // 8, _WINDOW // 2)  # row entries held at once
    _sweep_heads(values)
    rows, entries = [], 0
    for m in range(1, a_body + 1, 2):
        a, row = m, _period(m)
        while True:
            doubled = np.tile(row, 2)  # any phase of the row is one slice of this
            rows.append((a * (a + 1), 2 * a * (2 * a + 1), doubled))
            entries += doubled.size
            a *= 2
            if a > a_body:
                break
            row = doubled + _period(a)  # the row so far, repeated to 2a lane entries
        if entries >= budget or m + 2 > a_body:
            _sweep_rows(values, rows)
            rows, entries = [], 0
    values *= 12
    values[0] = -1
    for a in range(1, isqrt(n_max // 3) + 1):
        lowest = 4 * a * a - n_max  # b^2 >= lowest keeps D at c = a in the table
        b = np.arange(isqrt(lowest - 1) + 1 if lowest > 0 else 0, a + 1)
        values[4 * a * a - b * b] += np.where(b == a, 4, np.where(b == 0, 6, 12))  # distinct D
    return HurwitzTable(values)


def _period(a: int, least: int = 0, dtype=np.int16) -> np.ndarray:
    """The weight row of a on the lanes, in units of 12: entry D // 2 counts
    the progressions 4ac - b^2, c > a, b >= least, at D == -b^2 (mod 4a),
    b = 0 and b = a once and every other b twice.  At most a + 1 values of b
    meet in one entry, so no entry passes 2a."""
    b = np.arange(least, a + 1)
    weights = np.where((b == 0) | (b == a), 1, 2)
    return np.bincount(-b * b % (4 * a) // 2, weights=weights, minlength=2 * a).astype(dtype)


def _sweep_heads(values: np.ndarray) -> None:
    """Add the heads, one window of _WINDOW / 2 n at a time, in units of 12,
    through int32 lanes of 1 MiB."""
    n_end = (values.size + 3) // 4  # the n with 4n <= n_max
    window = _WINDOW // 2
    buffer = np.zeros(2 * min(window, n_end), dtype=np.int32)
    for lo in range(0, n_end, window):
        hi = min(lo + window, n_end)
        lanes = buffer[: 2 * (hi - lo)]
        _add_heads(lanes, lo, hi)
        _flush(values, lanes, lo)


def _sweep_rows(values: np.ndarray, rows: list) -> None:
    """Add each doubled lane row over its stretch [start, stop) of n, one
    window of _WINDOW n at a time, in units of 12.

    A row adds at most its largest entry to a lane entry, so the sum of the
    largest entries of the rows added since the last flush bounds the int16
    lanes; they are flushed before that sum would pass _LANE_BOUND."""
    n_end = (values.size + 3) // 4  # the n with 4n <= n_max
    rows.sort(key=lambda r: r[0])
    tops = [int(doubled.max()) for _, _, doubled in rows]
    buffer = np.zeros(2 * min(_WINDOW, n_end), dtype=np.int16)
    for lo in range(rows[0][0] // _WINDOW * _WINDOW, n_end, _WINDOW):
        hi = min(lo + _WINDOW, n_end)
        lanes = buffer[: 2 * (hi - lo)]
        bound = 0
        for (start, stop, doubled), top in zip(rows, tops):
            if start >= hi:
                break
            start, stop = max(start, lo), min(stop, hi)
            if start < stop:
                if bound + top > _LANE_BOUND:
                    _flush(values, lanes, lo)
                    bound = 0
                bound += top
                _add_row(lanes[2 * (start - lo) : 2 * (stop - lo)], doubled, 2 * start)
        _flush(values, lanes, lo)


def _flush(values: np.ndarray, lanes: np.ndarray, lo: int) -> None:
    """Add the lanes of the window from n = lo into the table and clear them."""
    hi = lo + lanes.size // 2
    zero, three = values[4 * lo : 4 * hi : 4], values[4 * lo + 3 : 4 * hi : 4]
    zero += lanes[0::2]
    three += lanes[1::2][: three.size]  # D = 4n + 3 may pass n_max in the last pair
    lanes[:] = 0


def _add_row(window: np.ndarray, doubled: np.ndarray, first: int) -> None:
    """Add a doubled periodic lane row to window, whose entry 0 is lane
    entry `first` of the table."""
    step = doubled.size // 2
    row = doubled[first % step : first % step + step]
    whole = window.size - window.size % step
    body = window[:whole].reshape(-1, step)
    body += row
    tail = window[whole:]
    tail += row[: tail.size]


def _add_heads(lanes: np.ndarray, lo: int, hi: int) -> None:
    """Add the head of every a, the forms (a, b, c) with 0 < b <= a < c and
    D = 4ac - b^2 below 4a(a + 1), to the lanes of the window of n in
    [lo, hi).  The head of (a, b) runs from c = a + 1, at 4a(a + 1) - b^2, up
    to 4a(a + 1).  The b whose head started below the window add as one
    partial row; the b whose head starts inside it add point by point."""
    a = max(isqrt(lo), 1)
    while a * (a + 1) <= lo:  # the head of a ends at n = a(a + 1)
        a += 1
    while 3 * a * a + 4 * a < 4 * hi:  # the lowest head point of a, at b = a, c = a + 1
        step, top = 4 * a, 4 * a * (a + 1)
        started = isqrt(top - 4 * lo - 1) + 1  # the least b with top - b^2 <= 4lo
        if started <= a:
            # int32, as an int16 row would add into the lanes through a slow cast
            row = np.tile(_period(a, started, np.int32), 2)
            _add_row(lanes[: min(2 * hi, top // 2) - 2 * lo], row, 2 * lo)
        b = np.arange(isqrt(top - 4 * hi) + 1 if top > 4 * hi else 1, min(started, a + 1))
        if b.size:  # the b with 4hi > top - b^2 > 4lo
            b2 = b * b
            # points from c = a + 1 to the end of the head or of the window
            count = np.minimum((b2 - 1) // step + 1, (b2 + 4 * hi - 1) // step - a)
            at = np.arange(0, 2 * a * int(count.sum()), 2 * a)
            at += np.repeat((top - b2) // 2 - 2 * lo - 2 * a * (np.cumsum(count) - count), count)
            np.add.at(lanes, at, np.int32(2))  # D repeats across b
            if b[-1] == a:  # b = a weighs 1
                s = (top - a * a) // 2 - 2 * lo
                lanes[s : s + 2 * a * int(count[-1]) : 2 * a] -= 1
        a += 1


_HEADER = b"D,twelveH"
_CHUNK = 2**14  # rows formatted per write; bounds the memory the text needs
_SAMPLE_SIZE = 12


def write_table_csv(table: HurwitzTable, path) -> None:
    """Persist the table as CSV with header `D,twelveH`, one row per D, each
    line ended by CRLF.

    The text goes to a temporary file beside `path` that then replaces `path`
    in one step, so readers see either the old file or the whole new one.  The
    temporary file is removed when any step fails.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")  # outside the try: on a name clash the other file stays
    try:
        with fh:
            fh.write(_HEADER + b"\r\n")
            for start in range(0, table.n_max + 1, _CHUNK):
                block = table.values[start : start + _CHUNK]
                Ds = np.arange(start, start + block.size)
                cells = np.column_stack((Ds, block)).ravel().tolist()
                fh.write(b"%d,%d\r\n" * block.size % tuple(cells))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sample_points(n_max: int) -> list[int]:
    """D values re-enumerated when a table is loaded: n_max and its halvings
    n_max / 2^k, moved alternately to D == 0 and D == 3 (mod 4), where
    12*H(D) > 0.  An enumeration costs about D steps, so the whole sample
    costs about two enumerations at n_max."""
    points = {n_max}
    for k in range(1, _SAMPLE_SIZE):
        D = n_max >> k
        points.add(D - D % 4 - k % 2)
    return sorted(D for D in points if D > 0)


def read_table_csv(path) -> HurwitzTable:
    """Read a table written by write_table_csv, checking it on the way.

    Raises ValueError naming the path and the defect when the header is not
    `D,twelveH`, the file does not end in a newline (the last row was cut
    off), a row is not two int32 integers, the rows do not enumerate
    D = 0..n_max, 12*H(0) != -1, a value is nonzero at D == 1, 2 (mod 4) or
    not positive at another D > 0, or a value at a fixed sample of D (always
    including n_max) differs from direct enumeration.  The values come back
    as int32.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.rstrip(b"\r\n") != _HEADER:
            raise ValueError(f"{path}: not a Hurwitz table cache (bad header {header[:40]!r})")
        if fh.seek(0, os.SEEK_END) == len(header):
            raise ValueError(f"{path}: table cache has no rows")
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            raise ValueError(f"{path}: last row is cut off (no final newline)")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, dtype=np.int32, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row: {exc}") from None
    if rows.shape[1] != 2:
        raise ValueError(f"{path}: malformed row: expected 2 columns, got {rows.shape[1]}")
    n_max = rows.shape[0] - 1
    if n_max < 0:  # only blank lines after the header
        raise ValueError(f"{path}: table cache has no rows")
    wrong = np.flatnonzero(rows[:, 0] != np.arange(n_max + 1))
    if wrong.size:
        i = wrong[0]
        raise ValueError(
            f"{path}: row {i + 1} holds D = {rows[i, 0]}; rows must enumerate D = 0..n_max"
        )
    values = rows[:, 1].copy()
    if values[0] != -1:
        raise ValueError(f"{path}: 12*H(0) = {values[0]}, expected -1")
    for r in (1, 2, 3, 4):
        vanishes = r in (1, 2)
        bad = np.flatnonzero(values[r::4] != 0 if vanishes else values[r::4] <= 0)
        if bad.size:
            D = r + 4 * int(bad[0])
            rule = "must be 0 at D == 1, 2 (mod 4)" if vanishes else "must be positive"
            raise ValueError(f"{path}: 12*H({D}) = {values[D]} {rule}")
    for D in _sample_points(n_max):
        expected = hurwitz(D)
        if values[D] != expected:
            raise ValueError(f"{path}: 12*H({D}) = {values[D]}, enumeration gives {expected}")
    return HurwitzTable(values)
