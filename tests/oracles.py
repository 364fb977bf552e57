"""Independent brute-force reference implementations used by the tests.

These deliberately share no code with the package: different loop structures,
no sieve, no factorization shortcuts.  They stay correct for small inputs and
slow everywhere else.
"""

import csv
from fractions import Fraction
from math import gcd, isqrt

import numpy as np


def hurwitz_twelve_brute(D: int) -> int:
    """12*H(D) by scanning all reduced forms (a, b, c), b of either sign."""
    if D == 0:
        return -1
    if D % 4 in (1, 2):
        return 0
    total = 0
    a = 1
    while 3 * a * a <= D:
        for b in range(-a, a + 1):
            rem = b * b + D
            if rem % (4 * a):
                continue
            c = rem // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if a == b == c:
                total += 4
            elif b == 0 and a == c:
                total += 6
            else:
                total += 12
        a += 1
    return total


def build_table_strided_reference(n_max: int) -> list[int]:
    """12*H(D) for D <= n_max by the plain form sweep: one strided slice per
    (a, b), adding weight at D = 4ac - b^2 for every c >= a."""
    values = np.zeros(n_max + 1, dtype=np.int64)
    values[0] = -1
    for a in range(1, isqrt(n_max // 3) + 1):
        for b in range(a + 1):
            first = 4 * a * a - b * b
            if first > n_max:
                continue
            at_c_eq_a, beyond = (4, 12) if b == a else (6, 12) if b == 0 else (12, 24)
            values[first] += at_c_eq_a
            values[first + 4 * a :: 4 * a] += beyond
    return values.tolist()


def kronecker_hurwitz_mismatches(values) -> list[int]:
    """The n in 1..(len(values) - 1) // 4 at which a table of 12*H(D) breaks
    the Kronecker-Hurwitz relation sum_{t in Z} 12H(4n - t^2) =
    24 sigma(n) - 12 lambda(n), lambda(n) = sum_{d | n} min(d, n/d).

    Every D == 0 (mod 4) enters at n = D/4 (t = 0) and every D == 3 (mod 4)
    below the last multiple of 4 at n = (D + 1)/4 (t = +-1), so one wrong
    value there breaks a relation.  The left side is one slice-add per t;
    sigma and lambda come from sieves over the divisor pairs d <= n/d."""
    values = np.asarray(values)
    top = (values.size - 1) // 4
    lhs = np.zeros(top + 1, dtype=np.int64)
    t = 0
    while t * t <= 4 * top:
        lo = (t * t + 3) // 4  # the least n with 4n - t^2 >= 0
        lhs[lo:] += (1 if t == 0 else 2) * values[4 * lo - t * t : 4 * top - t * t + 1 : 4].astype(np.int64)
        t += 1
    sigma = np.zeros(top + 1, dtype=np.int64)
    lam = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, isqrt(top) + 1):
        n = np.arange(d * d, top + 1, d)
        sigma[n] += d + n // d  # the pair (d, n/d)
        lam[n] += 2 * d
        sigma[d * d] -= d  # d = n/d counted once
        lam[d * d] -= d
    bad = np.flatnonzero(lhs[1:] != 24 * sigma[1:] - 12 * lam[1:]) + 1
    return bad.tolist()


def write_table_csv_reference(values, path) -> None:
    """The table cache as the csv module writes it: header `D,twelveH`, one
    row per D, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["D", "twelveH"])
        for D, v in enumerate(values):
            writer.writerow([D, int(v)])


def read_table_csv_reference(path) -> list[int]:
    """The values column of a `D,twelveH` cache, row by row with the csv module."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["D", "twelveH"]:
            raise ValueError(f"{path}: bad header {header}")
        rows = [(int(d), int(v)) for d, v in reader]
    if [d for d, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: rows must enumerate D = 0..n_max")
    return [v for _, v in rows]


def sqrt_mod_brute(x: int, m: int) -> list[int]:
    return [z for z in range(m) if (z * z - x) % m == 0]


def kronecker_prime_brute(x: int, p: int) -> int:
    """Legendre symbol by scanning squares; p an odd prime.  p = 2 follows the
    standard 2-adic rule."""
    if p == 2:
        if x % 2 == 0:
            return 0
        return 1 if x % 8 in (1, 7) else -1
    if x % p == 0:
        return 0
    squares = {z * z % p for z in range(1, p)}
    return 1 if x % p in squares else -1


def sigma_brute(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def factor_brute(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors_brute(n: int) -> list[int]:
    """The divisors of n in increasing order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def proj_theta_brute(a: int, beta_tilde: int, beta: int, n: int) -> int:
    """Direct scan over integer pairs (m, mt) with m^2 - mt^2 = a*n."""
    an = a * n
    total = 0
    bound = an // 2 + 2
    if beta_tilde % a == 0 and an > 0:
        r = isqrt(an)
        if r * r == an:
            for m in (r, -r):
                if (m - beta) % a == 0:
                    total += abs(m)
    for m in range(-bound, bound + 1):
        if (m - beta) % a:
            continue
        mt2 = m * m - an
        if mt2 <= 0:
            continue
        mt = isqrt(mt2)
        if mt * mt != mt2:
            continue
        for sign_mt in {mt, -mt}:
            if (sign_mt - beta_tilde) % a == 0:
                total += an // (abs(m) + mt)
    return -4 * total


def proj_theta_divisor_walk(a: int, beta_tilde: int, beta: int, n: int) -> int:
    """proj_theta_product as one divisor walk per call, the path the shared
    walk replaced: every factorization a*n = e*f, e < f, e == f (mod 2), with
    its sign counts for m and mt checked in place."""
    an = a * n
    total = 0
    if beta_tilde % a == 0 and an > 0:
        r = isqrt(an)
        if r * r == an:
            for m in (r, -r):
                if (m - beta) % a == 0:
                    total += r
    # m^2 - mt^2 is never == 2 (mod 4)
    if an > 0 and an % 4 != 2:
        for e in divisors_brute(an):
            f = an // e
            if e >= f:  # e == f gives mt = 0, and the pairs past it repeat
                break
            if (e - f) % 2:
                continue
            m0, mt0 = (e + f) // 2, (f - e) // 2
            # each admissible sign pair contributes an / (|m| + |mt|) = e
            m_signs = ((m0 - beta) % a == 0) + ((m0 + beta) % a == 0)
            mt_signs = ((mt0 - beta_tilde) % a == 0) + ((mt0 + beta_tilde) % a == 0)
            total += e * m_signs * mt_signs
    return -4 * total


def projection_completed_by_roots(a: int, b: int, beta: int, n: int) -> Fraction:
    """The completed part of exact_projection_coefficient by the route it
    replaced: 1/16 of proj_theta_product summed over every square root bt of
    -b mod a (found by scanning), one divisor walk each, and doubled for
    -beta, as the walk counts the signs m == +-beta alike."""
    total = sum(proj_theta_divisor_walk(a, bt, beta, n) for bt in sqrt_mod_brute(-b, a))
    return Fraction(2 * total, 16)


def pair_sums_by_root_walk(a: int, beta: int, an: int) -> dict[int, int]:
    """Sums of min(d1, d2) over a*n = d1*d2 with d1 != d2 and d1 + d2 == 2*beta
    (mod a), keyed by beta_tilde = d1 - beta mod a, by one walk over every
    ordered pair: the path the shared walk replaced.  Roots without a pair
    are absent."""
    sums: dict[int, int] = {}
    for d1 in divisors_brute(an):
        d2 = an // d1
        if d1 != d2 and (d1 + d2 - 2 * beta) % a == 0:
            bt = (d1 - beta) % a
            sums[bt] = sums.get(bt, 0) + min(d1, d2)
    return sums


def factor_pair_sums_brute(a: int, b: int, beta: int, n: int) -> dict[int, int]:
    """The inner sums of the factorization form, one per square root bt of -b
    mod a (found by scanning 0 <= bt < a), by naive divisor scan of a*n.
    Pairs with d1 = d2 add nothing."""
    an = a * n
    divs = divisors_brute(an)
    sums = {}
    for bt in sqrt_mod_brute(-b, a):
        sums[bt] = 0
        for d1 in divs:
            d2 = an // d1
            if (d1 - beta - bt) % a == 0 and (d2 - beta + bt) % a == 0:
                if d1 < d2:
                    sums[bt] += d1
                elif d2 < d1:
                    sums[bt] += d2
    return sums


def nonhol_brute(a: int, b: int, beta: int, n: int) -> int:
    """Factorization double sum by naive divisor scan."""
    total = sum(factor_pair_sums_brute(a, b, beta, n).values())
    assert total % 2 == 0
    return -total // 2


def square_class_witness_brute(m: int, a: int, b: int) -> int | None:
    for u in range(1, a + 1):
        if gcd(u, a) == 1 and (m - b * u * u) % a == 0:
            return u
    return None


def enumerate_representations_reference(a: int, b: int, n_max: int, ell: int | None = None) -> list:
    """Rows (n, D, f, {p: (f_p, kronecker, hecke_residue)}) of
    dichotomy.enumerate_representations, one n of the progression at a time:
    n = s * f^2 with s squarefree by trial division, then (D, f) = (s, f) for
    s == 3 (mod 4) and (4s, f/2) otherwise; the residue is
    sigma(f_p) - (-D|p) * sigma(f_p/p) mod ell, or 1 mod ell when f_p = 1."""
    primes = [p for p, _ in factor_brute(a)]
    rows = []
    start = b if b else a
    for n in range(start, n_max + 1, a):
        if n % 4 in (1, 2):
            continue
        s, f = n, 1
        for p, e in factor_brute(n):
            s //= p ** (e - e % 2)
            f *= p ** (e // 2)
        D, f = (s, f) if s % 4 == 3 else (4 * s, f // 2)
        local = {}
        for p in primes:
            fp = 1
            while f % (fp * p) == 0:
                fp *= p
            kr = kronecker_prime_brute(-D, p)
            if not ell:
                residue = None
            elif fp == 1:
                residue = 1 % ell
            else:
                residue = (sigma_brute(fp) - kr * sigma_brute(fp // p)) % ell
            local[p] = (fp, kr, residue)
        rows.append((n, D, f, local))
    return rows


def classify_rows_reference(rows: list, values, ell: int) -> tuple:
    """(case, witness (p, kronecker, f_p) or None, h_values) of
    dichotomy.classify, decided row by row on reference rows; a witness prime
    with non-constant (f_p, kronecker) raises ArithmeticError."""
    inv12 = pow(12, -1, ell)
    h_values = [(D, int(values[D]) * inv12 % ell) for _, D, _, _ in rows if D > 4]
    if not rows:
        return "inconclusive", None, h_values
    for p in rows[0][3]:
        if all(local[p][2] == 0 for *_, local in rows):
            seen = {local[p][:2] for *_, local in rows}
            if len(seen) != 1:
                raise ArithmeticError(
                    f"Hecke witness p={p} has non-constant local data {sorted(seen)}; "
                    "this contradicts the uniqueness property and indicates a bug"
                )
            fp, kr = seen.pop()
            return "hecke_condition", (p, kr, fp), h_values
    if h_values and all(r == 0 for _, r in h_values):
        return "fundamental_divisibility", None, h_values
    return "inconclusive", None, h_values


def search_plain_scan(values, ell: int, a_max: int, n_max: int) -> list[tuple[int, int, bool]]:
    """(a, b, nonholomorphic) of each certificate congruence.search returns:
    every residue b mod a <= a_max whose values up to n_max are all 0 mod ell,
    minus progressions without D == 0, 3 (mod 4) and those whose parent
    (a/q, b mod a/q), q a prime divisor of a, passes too."""
    nonzero = np.asarray(values[: n_max + 1]) % ell != 0
    passing = {
        (a, b) for a in range(1, a_max + 1) for b in range(a) if not nonzero[b::a].any()
    }
    out = []
    for a, b in sorted(passing):
        if a % 4 == 0 and b % 4 in (1, 2):
            continue
        if any((a // q, b % (a // q)) in passing for q, _ in factor_brute(a)):
            continue
        out.append((a, b, bool(sqrt_mod_brute(-b, a))))
    return out
