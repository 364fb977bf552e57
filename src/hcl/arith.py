"""Elementary exact number-theoretic primitives shared by the other modules.

Everything here is a pure function of its arguments, returning ints, lists or
tuples.  Three kinds of state only remember results:
- the prime sieve and the smallest-prime-factor table, built once on first use
  and never mutated afterwards;
- `_sqrt_tables`, which gains one table of square roots per new prime power
  below 10^4 and never changes a table it holds (larger prime powers lift);
- the bounded cache on `divisors`, whose entries are immutable tuples.
A racing thread at worst builds a sieve or a square-root table twice with the
same content, and `functools.lru_cache` takes its own lock, so the module is
safe for concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

_SIEVE_LIMIT = 10**6
_BRUTE_SQRT_LIMIT = 10**4

_sieve_primes: tuple[int, ...] | None = None
_spf: bytearray | None = None  # smallest-prime-factor indices, see _spf_table()
_spf_primes: list[int] = []
_sqrt_tables: dict[int, dict[int, tuple[int, ...]]] = {}


def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes p <= n, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


def sieve_primes() -> tuple[int, ...]:
    """All primes up to 10^6, computed once."""
    global _sieve_primes
    if _sieve_primes is None:
        _sieve_primes = primes_up_to(_SIEVE_LIMIT)
    return _sieve_primes


def _spf_table() -> bytearray:
    """Smallest-prime-factor table for n < 10^6, stored as indices into _spf_primes."""
    global _spf
    if _spf is None:
        n = _SIEVE_LIMIT
        primes = primes_up_to(isqrt(n))  # 168 of them: indices fit a byte
        table = bytearray(n)  # 0 means "n itself is prime (or < 2)"
        # Largest prime first, so every composite ends up holding its smallest one.
        for idx in range(len(primes), 0, -1):
            p = primes[idx - 1]
            table[p * p :: p] = bytes((idx,)) * len(range(p * p, n, p))
        _spf_primes[:] = primes
        _spf = table
    return _spf


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_ell(ell: int) -> None:
    """Raise ValueError unless ell is a prime > 3, the moduli for which 12*H
    congruences are taken (gcd(12, ell) = 1)."""
    if ell <= 3 or not is_prime(ell):
        raise ValueError("ell must be a prime > 3")


def check_fundamental(D: int) -> None:
    """Raise ValueError unless -D is a fundamental discriminant."""
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")


def next_prime_in_class(lower: int, residue: int, modulus: int, cap: int = 10**7) -> int:
    """Smallest prime p > lower with p == residue (mod modulus), searched up to cap.

    Raises ValueError when the bounded search is exhausted.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    residue %= modulus
    p = lower + 1 + (residue - lower - 1) % modulus
    while p <= cap:
        if is_prime(p):
            return p
        p += modulus
    raise ValueError(
        f"no prime == {residue} (mod {modulus}) in ({lower}, {cap}]"
    )


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as (prime, exponent) pairs, primes ascending.

    Accepts 1 <= n <= 2^63 - 1.  A cofactor surviving all sieve primes is
    prime whenever it is below 10^12; larger composite cofactors are out of
    the supported range and rejected.
    """
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(f"factorize expects 1 <= n <= 2^63-1, got {n}")
    if n == 1:
        return ()
    factors: list[tuple[int, int]] = []
    m = n
    if m < _SIEVE_LIMIT:
        table = _spf_table()
        while m > 1:
            idx = table[m]
            p = _spf_primes[idx - 1] if idx else m
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return tuple(factors)
    for p in sieve_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        if m < _SIEVE_LIMIT**2 or is_prime(m):
            factors.append((m, 1))
        else:
            raise ValueError(f"cannot factor {n}: composite cofactor {m} beyond sieve")
    factors.sort()
    return tuple(factors)


@lru_cache(maxsize=256)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending.

    The tuple is shared by every caller asking for the same n, so it is
    immutable.  The holomorphic-projection closed forms share one walk per
    (a, beta mod a, a*n), and a sweep over the residues beta at fixed a
    revisits each a*n once per beta.  256 entries hold one a's a*n for up to
    256 values of n: 75,935 of the 81,079 calls in the `holproj` benchmark
    sweep hit.
    """
    divs = [1]
    for p, e in factorize(n):
        power = divs
        for _ in range(e):
            power = [d * p for d in power]
            divs += power
    divs.sort()
    return tuple(divs)


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma1 expects n >= 1")
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def ord_p(n: int, p: int) -> int:
    """Exponent of p in n (n != 0, p >= 2)."""
    if p < 2:
        raise ValueError(f"ord_p expects p >= 2, got {p}")
    if n == 0:
        raise ValueError("ord_p(0, p) is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if n < 1:
        raise ValueError("p_part expects n >= 1")
    return p ** ord_p(n, p)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1.

    For odd prime n this is the Legendre symbol; composite n is supported via
    complete multiplicativity in the lower argument.
    """
    if n < 1:
        raise ValueError("kronecker expects n >= 1")
    if n == 1:
        return 1
    result = 1
    # factor of 2 in n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol (a|n) with n odd via reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 (mod m1) and r2 (mod m2); moduli coprime."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)


def _sqrt_mod_prime(x: int, p: int) -> list[int]:
    """Roots of z^2 == x (mod p) for prime p, via Tonelli-Shanks."""
    x %= p
    if p == 2:
        return [x]
    if x == 0:
        return [0]
    if kronecker(x, p) != 1:
        return []
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
        return sorted({r, p - r})
    # Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return sorted({r, p - r})


def _sqrt_mod_odd_prime_power_unit(x: int, p: int, e: int) -> list[int]:
    """Roots of z^2 == x (mod p^e), p odd prime, p not dividing x; Hensel lifting."""
    roots = _sqrt_mod_prime(x, p)
    mod = p
    for _ in range(e - 1):
        nxt = mod * p
        roots = [(r - (r * r - x) * pow(2 * r, -1, nxt)) % nxt for r in roots]
        mod = nxt
    return sorted(roots)


def _sqrt_mod_2_power_unit(x: int, e: int) -> list[int]:
    """Roots of z^2 == x (mod 2^e), x odd."""
    if e == 1:
        return [1]
    if e == 2:
        return [1, 3] if x % 4 == 1 else []
    if x % 8 != 1:
        return []
    r, mod = 1, 8
    for _ in range(e - 3):
        nxt = mod * 2
        if (r * r - x) % nxt:
            r += mod // 2
        mod = nxt
    full = 1 << e
    return sorted({r % full, (-r) % full, (r + full // 2) % full, (-r + full // 2) % full})


def _sqrt_mod_prime_power(x: int, p: int, e: int) -> list[int]:
    """All roots of z^2 == x (mod p^e), ascending; tabled below _BRUTE_SQRT_LIMIT."""
    mod = p**e
    x %= mod
    if mod >= _BRUTE_SQRT_LIMIT:
        return _sqrt_mod_prime_power_lifted(x, p, e)
    table = _sqrt_tables.get(mod)
    if table is None:
        table = {}
        for z in range(mod):
            table.setdefault(z * z % mod, []).append(z)
        table = {k: tuple(v) for k, v in table.items()}
        _sqrt_tables[mod] = table
    return list(table.get(x, ()))


def _sqrt_mod_prime_power_lifted(x: int, p: int, e: int) -> list[int]:
    """All roots of z^2 == x (mod p^e), 0 <= x < p^e, ascending: the roots of
    the unit part u = x / p^k modulo p^(e-k), lifted from p, times p^(k/2)."""
    mod = p**e
    if x == 0:
        half = p ** ((e + 1) // 2)
        return list(range(0, mod, half))
    k = ord_p(x, p)
    if k % 2:
        return []
    u = x // p**k
    f = e - k
    base = _sqrt_mod_2_power_unit(u, f) if p == 2 else _sqrt_mod_odd_prime_power_unit(u, p, f)
    if not base:
        return []
    shift = p ** (k // 2)
    period = p ** (e - k // 2)
    out = set()
    for r in base:
        first = shift * r
        out.update(range(first % period, mod, period))
    return sorted(out)


def sqrt_mod(x: int, m: int) -> list[int]:
    """All residues z mod m with z^2 == x (mod m), ascending; empty when none."""
    if m < 1:
        raise ValueError("sqrt_mod expects m >= 1")
    if m == 1:
        return [0]
    x %= m
    roots: list[int] = [0]
    mod = 1
    for p, e in factorize(m):
        pe = p**e
        local = _sqrt_mod_prime_power(x % pe, p, e)
        if not local:
            return []
        roots = [_crt(r, mod, s, pe) for r in roots for s in local]
        mod *= pe
    return sorted(roots)


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s * f^2 with s squarefree; returns (s, f)."""
    s, f = 1, 1
    for p, e in factorize(n):
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def is_fundamental(D: int) -> bool:
    """True when -D is a fundamental discriminant (D > 0)."""
    if D <= 0:
        return False
    if D % 4 == 3:
        return squarefree_part(D)[1] == 1
    if D % 4 == 0:
        k = D // 4
        return k % 4 in (1, 2) and squarefree_part(k)[1] == 1
    return False
