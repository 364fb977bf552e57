"""Reference computations and checkers for the benchmark.

Nothing here imports hcl or tests/oracles.py: every reference value is
recomputed from the definitions with plain loops, trial division and small
numpy scans, so a fault in the program cannot hide in a shared helper.

Each `check_*` function returns a list of problems; an empty list means the
output passed.  Values are handled as the integers 12*H(D) throughout.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

SIX_CONGRUENCES = [
    (5, 125, 25),
    (7, 343, 147),
    (11, 1331, 847),
    (5, 27, 9),
    (7, 125, 50),
    (11, 512, 192),
]
EXPECTED_WITNESSES = {
    (5, 125, 25): (5, 1, 5),
    (7, 343, 147): (7, 1, 7),
    (11, 1331, 847): (11, 1, 11),
    (5, 27, 9): (3, -1, 3),
    (7, 125, 50): (5, -1, 5),
    (11, 512, 192): (2, -1, 8),
}


# --- elementary arithmetic, by trial division -------------------------------


def prime_factors(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [(n, 1)]


def divisor_list(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def legendre(x: int, p: int) -> int:
    """(x|p) for a prime p, with the 2-adic rule at p = 2."""
    if p == 2:
        if x % 2 == 0:
            return 0
        return 1 if x % 8 in (1, 7) else -1
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def is_fundamental(D: int) -> bool:
    """Whether -D is a fundamental discriminant."""
    if D % 4 == 3:
        return all(e == 1 for _, e in prime_factors(D))
    if D % 4 == 0 and D > 0:
        k = D // 4
        return k % 4 in (1, 2) and all(e == 1 for _, e in prime_factors(k))
    return False


def square_roots(x: int, m: int) -> list[int]:
    return [z for z in range(m) if (z * z - x) % m == 0]


# --- the Hurwitz table ------------------------------------------------------


def twelve_h(D: int) -> int:
    """12*H(D) by counting reduced forms (a, b, c), one numpy row per a.

    Reduced: |b| <= a <= c, b >= 0 when |b| = a or a = c; multiples of
    x^2+y^2 weigh 1/2 and of x^2+xy+y^2 weigh 1/3.
    """
    if D == 0:
        return -1
    if D % 4 in (1, 2):
        return 0
    total = 0
    for a in range(1, isqrt(D // 3) + 1):
        b = np.arange(-a + 1, a + 1, dtype=np.int64)
        num = b * b + D
        hit = num % (4 * a) == 0
        b, c = b[hit], num[hit] // (4 * a)
        keep = (c > a) | ((c == a) & (b >= 0))
        b, c = b[keep], c[keep]
        third = (b == a) & (c == a)
        half = (b == 0) & (c == a)
        total += 12 * b.size - 8 * int(third.sum()) - 6 * int(half.sum())
    return total


def draw_table_probes(rng: random.Random, n_max: int, spots: int = 6, pairs: int = 24, window: int = 96):
    """Seed-drawn probes of a table covering D <= n_max.

    Returns (ns, Ds, pairs): a window of n just below n_max/4 for the
    Kronecker-Hurwitz relation, spot discriminants (always including the last
    one), and (D, f) with -D fundamental and D*f^2 <= n_max.
    """
    top = n_max // 4
    lo = max(1, top - window + 1 - rng.randrange(window))
    ns = list(range(lo, min(top, lo + window - 1) + 1))
    last = max(D for D in range(n_max - 3, n_max + 1) if D % 4 in (0, 3))
    Ds = [last]
    while len(Ds) < spots:
        D = rng.randrange(max(3, n_max // 2), n_max + 1)
        if D % 4 in (0, 3):
            Ds.append(D)
    out_pairs = []
    while len(out_pairs) < pairs:
        f = rng.randrange(2, 40)
        if f * f * 3 > n_max:
            continue
        D = rng.randrange(3, n_max // (f * f) + 1)
        if is_fundamental(D):
            out_pairs.append((D, f))
    return ns, Ds, out_pairs


def check_structure(values: np.ndarray) -> list[str]:
    """H(0) = -1/12; H vanishes exactly off the discriminants -D == 0, 1 mod 4."""
    problems = []
    if int(values[0]) != -1:
        problems.append(f"12H(0) = {int(values[0])}, expected -1")
    for r in (1, 2):
        bad = np.flatnonzero(values[r::4])
        if bad.size:
            problems.append(f"12H({r + 4 * int(bad[0])}) != 0 off the discriminants")
    for r in (3, 4):
        bad = np.flatnonzero(values[r::4] <= 0)
        if bad.size:
            problems.append(f"12H({r + 4 * int(bad[0])}) <= 0 on a discriminant")
    return problems


def check_kronecker_hurwitz(values: np.ndarray, ns) -> list[str]:
    """sum_t 12H(4n - t^2) == 24*sigma(n) - 12*sum_{d|n} min(d, n/d)."""
    problems = []
    for n in ns:
        r = isqrt(4 * n)
        t = np.arange(-r, r + 1, dtype=np.int64)
        lhs = int(values[4 * n - t * t].sum())
        divs = divisor_list(n)
        rhs = 24 * sum(divs) - 12 * sum(min(d, n // d) for d in divs)
        if lhs != rhs:
            problems.append(f"Kronecker-Hurwitz fails at n={n}: {lhs} != {rhs}")
    return problems


def check_spot_values(values: np.ndarray, Ds) -> list[str]:
    return [
        f"12H({D}) = {int(values[D])}, reduced-form count gives {twelve_h(D)}"
        for D in Ds
        if int(values[D]) != twelve_h(D)
    ]


def check_class_number_formula(values: np.ndarray, pairs) -> list[str]:
    """H(D f^2) = H(D) * prod_{p^e || f} (sigma(p^e) - (-D|p) sigma(p^(e-1)))."""
    problems = []
    for D, f in pairs:
        want = int(values[D])
        for p, e in prime_factors(f):
            want *= (p ** (e + 1) - 1) // (p - 1) - legendre(-D, p) * ((p**e - 1) // (p - 1))
        got = int(values[D * f * f])
        if got != want:
            problems.append(f"class number formula fails at D={D}, f={f}: {got} != {want}")
    return problems


def check_table(values: np.ndarray, probes) -> list[str]:
    ns, Ds, pairs = probes
    return (
        check_structure(values)
        + check_kronecker_hurwitz(values, ns)
        + check_spot_values(values, Ds)
        + check_class_number_formula(values, pairs)
    )


def read_csv_table(path) -> np.ndarray:
    """Parse a `D,twelveH` cache file; raises ValueError when the rows are not D = 0..N."""
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    if header.strip() != b"D,twelveH":
        raise ValueError(f"{path}: bad header {header!r}")
    cells = np.array(body.replace(b",", b" ").split(), dtype=np.int64)
    if cells.size % 2:
        raise ValueError(f"{path}: odd number of cells")
    rows = cells.reshape(-1, 2)
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise ValueError(f"{path}: rows are not D = 0..N")
    return rows[:, 1].copy()


# --- congruences ------------------------------------------------------------


def least_counterexample(values: np.ndarray, ell: int, a: int, b: int, n_max: int) -> int | None:
    """Least D <= n_max with D == b (mod a) and 12H(D) != 0 (mod ell), by a plain scan."""
    for start in range(b, n_max + 1, a * 4096):
        chunk = values[start : min(n_max, start + a * 4096 - 1) + 1 : a]
        bad = np.flatnonzero(chunk % ell)
        if bad.size:
            return start + a * int(bad[0])
    return None


def _has_discriminant(a: int, b: int, n_max: int) -> bool:
    return any(b + a * j <= n_max and (b + a * j) % 4 in (0, 3) for j in range(4))


def reference_search(values: np.ndarray, ell: int, a_max: int, n_max: int) -> set[tuple[int, int]]:
    """Maximal progressions (a, b), a <= a_max, on which 12H == 0 (mod ell) up to n_max.

    Residues hit by the first few failing D are ruled out at once; each
    survivor is then scanned in full.  Progressions holding no discriminant
    are left out, and a progression is dropped when a progression modulo a
    proper divisor of a also passes.
    """
    prefix = values[: min(n_max, 200 * a_max + 4096) + 1] % ell
    bad_prefix = np.flatnonzero(prefix)
    passing = set()
    for a in range(1, a_max + 1):
        hit = np.zeros(a, dtype=bool)
        hit[bad_prefix[: 64 * a + 256] % a] = True
        for b in np.flatnonzero(~hit).tolist():
            if _has_discriminant(a, b, n_max) and not (values[b : n_max + 1 : a] % ell).any():
                passing.add((a, b))
    return {
        (a, b)
        for a, b in passing
        if not any((d, b % d) in passing for d in range(1, a) if a % d == 0)
    }


def check_verify(values, ell, a, b, n_max, ok, counterexample) -> list[str]:
    want = least_counterexample(values, ell, a, b, n_max)
    if ok != (want is None) or counterexample != want:
        return [f"verify({ell},{a},{b},{n_max}) gave {ok, counterexample}, plain scan gives {want}"]
    return []


def check_search(values, ell, a_max, n_max, found) -> list[str]:
    """found: the (a, b) pairs of the certificates, in program order."""
    problems = []
    want = reference_search(values, ell, a_max, n_max)
    got = set(found)
    if len(got) != len(found):
        problems.append(f"search ell={ell}: duplicate certificates")
    if got != want:
        problems.append(
            f"search ell={ell}, a_max={a_max}: missing {sorted(want - got)[:5]}, "
            f"extra {sorted(got - want)[:5]}"
        )
    for e, a, b in SIX_CONGRUENCES:
        if e == ell and a <= a_max and (a, b) not in got:
            problems.append(f"search ell={ell} misses the known progression ({a},{b})")
    return problems


def check_square_class(values, ell, a, b, u_max, n_max, ok, failures) -> list[str]:
    want = []
    for u in range(1, u_max + 1):
        if gcd(u, a) == 1:
            ce = least_counterexample(values, ell, a, b * u * u % a, n_max)
            if ce is not None:
                want.append((u, ce))
    got = [tuple(f) for f in failures]
    if ok != (not want) or got != want:
        return [f"square-class({ell},{a},{b}) gave {ok, got[:3]}, plain scan gives {want[:3]}"]
    return []


def representation_rows(a: int, b: int, n_max: int) -> int:
    """Count of 1 <= n <= n_max with n == b (mod a) and n == 0, 3 (mod 4)."""
    n = np.arange(b if b else a, n_max + 1, a, dtype=np.int64)
    return int(np.count_nonzero((n % 4 == 0) | (n % 4 == 3)))


def check_dichotomy(ell, a, b, n_max, case, witness, rows) -> list[str]:
    problems = []
    want = EXPECTED_WITNESSES[(ell, a, b)]
    if case != "hecke_condition" or witness != want:
        problems.append(f"classify({ell},{a},{b}) gave {case} {witness}, expected hecke_condition {want}")
    if rows != representation_rows(a, b, n_max):
        problems.append(f"classify({ell},{a},{b}) has {rows} rows, expected {representation_rows(a, b, n_max)}")
    return problems


# --- holomorphic projection -------------------------------------------------


def proj_theta_ref(a: int, beta_tilde: int, beta: int, n: int) -> int:
    """-4 * ([beta_tilde == 0] * sum |m| over m^2 = a n, m == beta
            + sum a n / (|m| + |mt|) over m^2 - mt^2 = a n, mt != 0,
              m == beta, mt == beta_tilde (mod a)), by scanning m."""
    an = a * n
    total = 0
    r = isqrt(an)
    if beta_tilde % a == 0 and an > 0 and r * r == an:
        total += sum(r for m in (r, -r) if (m - beta) % a == 0)
    # |m| - |mt| >= 1 and (|m| - |mt|)(|m| + |mt|) = a n bound |m| by (a n + 1) / 2
    for sign in (1, -1):
        m = r + 1 + (sign * beta - r - 1) % a  # least |m| > r with sign*|m| == beta
        while m <= (an + 1) // 2:
            mt2 = m * m - an
            mt = isqrt(mt2)
            if mt * mt == mt2:
                for smt in {mt, -mt}:
                    if (smt - beta_tilde) % a == 0:
                        total += an // (m + mt)
            m += a
    return -4 * total


def nonhol_ref(a: int, b: int, beta: int, n: int) -> int:
    """-1/2 * sum over bt^2 == -b, a n = d1 d2, d1 == beta + bt, d2 == beta - bt
    (mod a), d1 != d2, of min(d1, d2)."""
    an = a * n
    total = 0
    divs = divisor_list(an)
    for bt in square_roots(-b, a):
        for d1 in divs:
            d2 = an // d1
            if d1 != d2 and (d1 - beta - bt) % a == 0 and (d2 - beta + bt) % a == 0:
                total += min(d1, d2)
    return -(total // 2)


def projection_ref(values: np.ndarray, a: int, b: int, beta: int, n: int) -> Fraction:
    """sum of H(a n - k^2) over k == beta and over k == -beta (mod a), plus 1/16 of
    proj_theta over the square roots of -b and both signs of beta."""
    an = a * n
    r = isqrt(an)
    k = np.arange(-r, r + 1, dtype=np.int64)
    hol = sum(int(values[an - k[(k - s) % a == 0] ** 2].sum()) for s in (beta, -beta))
    completed = sum(
        proj_theta_ref(a, bt, beta, n) + proj_theta_ref(a, bt, -beta, n)
        for bt in square_roots(-b, a)
    )
    return Fraction(hol, 12) + Fraction(completed, 16)


def subset_decomposition_defined(a: int, b: int, beta: int) -> bool:
    """The roots of -b modulo every prime power of a are exactly the two classes +-beta."""
    for p, e in prime_factors(a):
        pe = p**e
        want = sorted({beta % pe, -beta % pe})
        if len(want) != 2 or square_roots(-b, pe) != want:
            return False
    return True


def admissible_tuples(a_limit: int, n_limit: int):
    """(a, b, beta, roots, n): -b == beta^2 != 0 (mod a), a n not a square."""
    for a in range(1, a_limit + 1):
        for beta in range(a):
            b = -beta * beta % a
            if b == 0:
                continue
            roots = square_roots(-b, a)
            for n in range(1, n_limit + 1):
                if isqrt(a * n) ** 2 != a * n:
                    yield a, b, beta, roots, n


def draw_projection_tuples(rng: random.Random, count: int) -> list[tuple[int, int, int, int]]:
    """(a, b, beta, n) with 50 <= a <= 60, -b == beta^2 != 0 (mod a), 1900 <= n <= 2000.

    The cost of one coefficient grows with a*n, so the narrow ranges keep a
    round's work nearly the same for every seed.
    """
    out = []
    while len(out) < count:
        a = rng.randrange(50, 61)
        beta = rng.randrange(1, a)
        b = -beta * beta % a
        if b:
            out.append((a, b, beta, rng.randrange(1900, 2001)))
    return out


def generic_witness_inputs(a_tildes=(3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22)):
    """(a_tilde, b_tilde, beta) in the order the generic witness draw visits them:
    beta coprime to a_tilde, and beta >= 3 when a_tilde is even."""
    for a_tilde in a_tildes:
        for beta in range(1, a_tilde):
            if gcd(beta, a_tilde) == 1 and not (a_tilde % 2 == 0 and beta < 3):
                yield a_tilde, -beta * beta % a_tilde, beta


def witness_conditions(a_tilde, b_tilde, beta, a, b, p_big) -> dict[str, bool]:
    return {
        "refines_input": a % a_tilde == 0 and (b - b_tilde) % a_tilde == 0,
        "minus_b_is_square": (b + beta * beta) % a == 0,
        "proper_local_gcds": all(gcd(p**e, 2 * beta) != p**e for p, e in prime_factors(a)),
        "large_prime": a % p_big == 0 and is_prime(p_big) and a < p_big**2 and 0 <= 2 * beta < p_big,
    }


def check_witness(a_tilde, b_tilde, beta, a, b, p_big, a_prime, p, p_prime, value_at_ap) -> list[str]:
    """The four witness conditions, the distinguished primes and, when given,
    the value -a of the coefficient at a'p."""
    problems = []
    tag = f"witness ({a_tilde},{b_tilde},{beta}) -> ({a},{b})"
    failed = [k for k, v in witness_conditions(a_tilde, b_tilde, beta, a, b, p_big).items() if not v]
    if failed:
        problems.append(f"{tag} fails {failed}")
    if a_prime != gcd(a, 2 * beta):
        problems.append(f"{tag}: a' = {a_prime}, expected {gcd(a, 2 * beta)}")
    q = a // a_prime
    if p is None:  # degenerate: 2 beta == a' (mod a), and p' only has to exceed a/a'
        if (2 * beta - a_prime) % a:
            problems.append(f"{tag}: no p although 2 beta != a' (mod a)")
        floor = q
    else:
        floor = p * q
        if not (is_prime(p) and p > q and (a_prime * p - 2 * beta) % a == 0):
            problems.append(f"{tag}: p = {p} is not a prime > a/a' with a'p == 2 beta (mod a)")
        elif any((a_prime * x - 2 * beta) % a == 0 and is_prime(x) for x in range(q + 1, p)):
            problems.append(f"{tag}: p = {p} is not the least admissible prime")
    if not (is_prime(p_prime) and p_prime % a == 1 and p_prime > floor):
        problems.append(f"{tag}: p' = {p_prime} is not a prime == 1 (mod a) above {floor}")
    elif any(is_prime(x) for x in range(floor + 1 + (-floor) % a, p_prime, a)):
        problems.append(f"{tag}: p' = {p_prime} is not the least admissible prime")
    if value_at_ap is not None and value_at_ap != -a:
        problems.append(f"{tag}: coefficient at a'p is {value_at_ap}, expected {-a}")
    return problems


def truncated_cache_verdict(returncode: int, payload: dict | None) -> bool:
    """The truncated-cache verify is handled when the program refuses or
    rebuilds the cache (exit 2), or reports the true counterexample 2383."""
    if returncode == 2:
        return True
    return returncode == 1 and payload is not None and payload.get("counterexample") == 2383
