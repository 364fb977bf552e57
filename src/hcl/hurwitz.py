"""Hurwitz class numbers: per-value enumeration, the multiplicative formula,
and a dense table built by a single sweep over reduced quadratic forms.

All values are carried as the integer 12*H(D) so that every computation stays
in exact integer arithmetic; congruence checks modulo primes ell > 3 are then
valid on 12*H directly since gcd(12, ell) = 1.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .arith import factorize, is_fundamental, kronecker, sigma1

__all__ = [
    "HurwitzValue",
    "HurwitzTable",
    "hurwitz",
    "class_number",
    "hurwitz_via_formula",
    "build_table",
    "write_table_csv",
    "read_table_csv",
]


@dataclass(frozen=True)
class HurwitzValue:
    """Exact Hurwitz class number, stored as the integer 12*H(D)."""

    twelve_h: int

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twelve_h, 12)


def _twelve_h_enumerate(D: int) -> int:
    """12*H(D) by direct enumeration of reduced forms (a, b, c).

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Forms proportional to x^2+y^2 weigh 1/2 and to x^2+xy+y^2 weigh 1/3;
    the loop below runs over b >= 0 and books 24 per (a, b, c) with
    0 < b < a < c to account for the +-b pair.
    """
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


def hurwitz(D: int) -> HurwitzValue:
    """H(D): H(0) = -1/12, H(D) = 0 unless -D is congruent to 0 or 1 mod 4,
    otherwise the weighted count of classes of positive definite binary
    quadratic forms of discriminant -D."""
    if D < 0:
        raise ValueError("hurwitz expects D >= 0")
    if D == 0:
        return HurwitzValue(-1)
    if D % 4 in (1, 2):
        return HurwitzValue(0)
    return HurwitzValue(_twelve_h_enumerate(D))


def class_number(D: int) -> int:
    """h(-D) for a fundamental discriminant -D; equals H(D) for D > 4."""
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")
    if D in (3, 4):
        return 1
    twelve = hurwitz(D).twelve_h
    if twelve % 12:
        raise ArithmeticError(f"H({D}) is not an integer for fundamental -{D}")
    return twelve // 12


def hurwitz_via_formula(D: int, f: int) -> HurwitzValue:
    """H(D*f^2) via the multiplicative class number formula
    H(D f^2) = H(D) * prod_{p | f} (sigma1(f_p) - (-D|p) * sigma1(f_p / p)).
    """
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")
    if f < 1:
        raise ValueError("f must be a positive integer")
    twelve = hurwitz(D).twelve_h
    for p, e in factorize(f).factors:
        fp = p**e
        twelve *= sigma1(fp) - kronecker(-D, p) * sigma1(fp // p)
    return HurwitzValue(twelve)


@dataclass(frozen=True)
class HurwitzTable:
    """Dense table of 12*H(D) for 0 <= D <= n_max."""

    n_max: int
    values: np.ndarray  # int64, values[D] == 12*H(D)

    def covers(self, n: int) -> bool:
        return n <= self.n_max

    def twelve_h(self, D: int) -> int:
        if not 0 <= D <= self.n_max:
            raise IndexError(f"table covers 0..{self.n_max}, got {D}")
        return int(self.values[D])

    def hurwitz(self, D: int) -> HurwitzValue:
        return HurwitzValue(self.twelve_h(D))


def build_table(n_max: int) -> HurwitzTable:
    """Table of 12*H(D) for all D <= n_max in one sweep over form triples.

    For each (a, b) with 0 <= b <= a the discriminants 4ac - b^2, c >= a,
    form an arithmetic progression with step 4a.  Cut into rows of length
    4a, every progression of a given a has started by row a + 1, so from
    there on they add up to one periodic weight row, added to all those rows
    at once; the terms below row a + 1 are added point by point.  The sums
    are taken in int32 (12*H(D) stays below 10^7 for D <= 10^8, against
    2^31) in the upper half of the int64 table's own buffer and widened in
    place at the end, so the build holds 8 bytes per D.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > 10**8:
        raise ValueError("n_max beyond the supported 10^8 memory bound")
    size = n_max + 1
    table = np.empty(size, dtype=np.int64)
    values = table.view(np.int32)[size:]  # bytes [4*size, 8*size) of the table
    values[:] = 0
    values[0] = -1
    for a in range(1, isqrt(n_max // 3) + 1):
        step = 4 * a
        b = np.arange(a + 1)
        first = step * a - b * b  # D at c = a
        b, first = b[first <= n_max], first[first <= n_max]
        w_eq = np.where(b == a, 4, np.where(b == 0, 6, 12))
        w_gen = np.where((b == 0) | (b == a), 12, 24)
        head_end = min((a + 1) * step, n_max + 1)
        count = np.maximum((head_end - 1 - first) // step, 0)  # terms with c > a before head_end
        # k runs 1..count[i] for each b[i], all b side by side
        k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
        at = np.concatenate((first, np.repeat(first, count) + step * k))
        weights = np.concatenate((w_eq, np.repeat(w_gen, count))).astype(np.int32)
        np.add.at(values, at, weights)
        rows = (n_max + 1) // step
        if rows > a:
            period = np.bincount(first % step, weights=w_gen, minlength=step).astype(np.int32)
            body = values[: rows * step].reshape(rows, step)[a + 1 :]
            body += period
            tail = values[rows * step :]
            tail += period[: tail.size]
    # table[i] overlaps only values[j] with j <= i, so a front-to-back copy reads
    # each value before overwriting it; numpy copies a 1-d overlap front to back
    # when the target starts first, without a temporary
    table[:] = values
    return HurwitzTable(n_max, table)


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
    off), a row is not two integers, the rows do not enumerate D = 0..n_max,
    12*H(0) != -1, a value is nonzero at D == 1, 2 (mod 4) or not positive at
    another D > 0, or a value at a fixed sample of D (always including n_max)
    differs from direct enumeration.
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
        rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row: {exc}") from None
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
        expected = _twelve_h_enumerate(D)
        if values[D] != expected:
            raise ValueError(f"{path}: 12*H({D}) = {values[D]}, enumeration gives {expected}")
    return HurwitzTable(n_max, values)
