"""Truncated Fourier expansions on fractional exponent grids.

A series keeps exact rational coefficients on the grid (1/M)Z, knows all
coefficients for exponents below its precision bound, and stores only the
nonzero ones.  Series are immutable values: every operation returns a new
instance.

No module of the package calls this one.  It is the exact composition
(sieved Eisenstein series times theta series) that
holproj.exact_projection_coefficient replaces with a direct sum over the table;
that function's test builds its reference here, and the benchmark traces it.
The Eisenstein series reads one slice of the table's values, after its
check_covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .hurwitz import HurwitzTable

__all__ = [
    "QSeries",
    "theta_series",
    "eisenstein_hol",
    "u_operator",
]


@dataclass(frozen=True)
class QSeries:
    """Sparse expansion sum c_n e(n tau / M) with exact rational coefficients.

    Coefficients are known exactly for all exponents n/M < precision; an
    absent index below the precision bound means the coefficient is zero.
    """

    grid: int
    precision: Fraction
    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError("grid denominator must be >= 1")
        bound = self.precision
        clean = {}
        for idx, val in self.coeffs.items():
            if idx < 0:
                raise ValueError("negative exponents are not representable")
            if Fraction(idx, self.grid) >= bound:
                raise ValueError(
                    f"index {idx} lies at/beyond the precision bound {bound}"
                )
            frac = Fraction(val)
            if frac:
                clean[idx] = frac
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "precision", Fraction(bound))

    def coefficient(self, exponent) -> Fraction:
        """Coefficient at the given exponent (int or Fraction)."""
        exp = Fraction(exponent)
        if exp >= self.precision:
            raise ValueError(f"exponent {exp} is beyond precision {self.precision}")
        idx = exp * self.grid
        if idx.denominator != 1 or idx < 0:
            return Fraction(0)
        return self.coeffs.get(int(idx), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def rescaled(self, new_grid: int) -> "QSeries":
        """Same series on a finer grid (new_grid must be a multiple of grid)."""
        if new_grid % self.grid:
            raise ValueError("new grid must refine the old one")
        k = new_grid // self.grid
        return QSeries(new_grid, self.precision, {i * k: c for i, c in self.coeffs.items()})

    def __add__(self, other: "QSeries") -> "QSeries":
        m = self.grid * other.grid // gcd(self.grid, other.grid)
        a, b = self.rescaled(m), other.rescaled(m)
        bound = min(a.precision, b.precision)
        out: dict[int, Fraction] = {}
        for idx, val in list(a.coeffs.items()) + list(b.coeffs.items()):
            if Fraction(idx, m) < bound:
                out[idx] = out.get(idx, Fraction(0)) + val
        return QSeries(m, bound, out)

    def __mul__(self, other: "QSeries") -> "QSeries":
        m = self.grid * other.grid // gcd(self.grid, other.grid)
        a, b = self.rescaled(m), other.rescaled(m)
        bound = min(a.precision, b.precision)
        limit = bound * m  # indices strictly below this survive
        out: dict[int, Fraction] = {}
        for i1, c1 in a.coeffs.items():
            if i1 >= limit:
                continue
            for i2, c2 in b.coeffs.items():
                idx = i1 + i2
                if idx < limit:
                    out[idx] = out.get(idx, Fraction(0)) + c1 * c2
        return QSeries(m, bound, out)

    def agrees_with(self, other: "QSeries") -> bool:
        """Coefficientwise equality below the smaller precision bound."""
        m = self.grid * other.grid // gcd(self.grid, other.grid)
        a, b = self.rescaled(m), other.rescaled(m)
        bound = min(a.precision, b.precision) * m
        for idx in set(a.coeffs) | set(b.coeffs):
            if idx < bound and a.coeffs.get(idx, 0) != b.coeffs.get(idx, 0):
                return False
        return True


def _check_modulus(a: int) -> None:
    """The rule that the modulus a of a theta series or U operator is >= 1."""
    if a < 1:
        raise ValueError("a must be >= 1")


def theta_series(a: int, beta: int, precision) -> QSeries:
    """Theta series on the grid (1/a)Z: coefficient at n^2/a counts integers
    n == beta (mod a) with that square."""
    _check_modulus(a)
    bound = Fraction(precision)
    coeffs: dict[int, Fraction] = {}
    # n^2 < a * bound
    top = a * bound
    n = beta % a
    while Fraction(n * n) < top:
        coeffs[n * n] = coeffs.get(n * n, Fraction(0)) + 1
        n += a
    n = beta % a - a
    while Fraction(n * n) < top:
        coeffs[n * n] = coeffs.get(n * n, Fraction(0)) + 1
        n -= a
    return QSeries(a, bound, coeffs)


def eisenstein_hol(precision, table: HurwitzTable) -> QSeries:
    """Holomorphic generating series of Hurwitz class numbers: coefficient
    H(D) = table.values[D] / 12 at integer exponent D."""
    bound = Fraction(precision)
    top = bound.numerator // bound.denominator
    if Fraction(top) == bound:
        top -= 1  # strict inequality: exponents < bound
    table.check_covers(top)
    twelve_h = table.values[: top + 1].tolist()
    coeffs = {D: Fraction(t, 12) for D, t in enumerate(twelve_h) if t}
    return QSeries(1, bound, coeffs)


def u_operator(series: QSeries, a: int, b: int) -> QSeries:
    """Sieve exponents congruent to b (mod a) and divide them by a.

    On the grid (1/M)Z this keeps indices n with n == b*M (mod a*M); the
    output lives on the grid (1/(M*a))Z with the same indices.
    """
    _check_modulus(a)
    m = series.grid
    keep = (b * m) % (a * m)
    coeffs = {i: c for i, c in series.coeffs.items() if i % (a * m) == keep}
    return QSeries(m * a, series.precision / a, coeffs)

