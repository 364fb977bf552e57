"""Elementary exact number-theoretic primitives shared by the other modules.

Everything here is a pure function of its arguments, returning ints, lists or
tuples.  The only state is two bounded `functools.lru_cache`s, whose entries
are immutable tuples:
- one entry on `sieve_primes`, the primes up to 10^6, built on first use;
- 256 entries on `divisors`.
A racing thread at worst computes an entry twice with the same content, so
the module is safe for concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import index

_SIEVE_LIMIT = 10**6
PRIME_SEARCH_CAP = 10**7  # the default bound of next_prime_in_class, and so of every prime search


def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes p <= n, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


@lru_cache(maxsize=1)
def sieve_primes() -> tuple[int, ...]:
    """All primes up to 10^6, computed once."""
    return primes_up_to(_SIEVE_LIMIT)


_TRIAL_PRIMES = primes_up_to(isqrt(_SIEVE_LIMIT))  # the 168 primes below 1000


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


def next_prime_in_class(lower: int, residue: int, modulus: int, cap: int = PRIME_SEARCH_CAP) -> int:
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

    Accepts integers 1 <= n <= 2^63 - 1; a non-integer, 6.0 included, raises
    TypeError at every size.  Trial division runs over the 168 primes below
    1000 when n < 10^6, and over the sieve up to 10^6 from there on.  A
    cofactor surviving them is prime whenever it is below 10^12; larger
    composite cofactors are out of the supported range and rejected.
    """
    n = index(n)
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(f"factorize expects 1 <= n <= 2^63-1, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    for p in _TRIAL_PRIMES if n < _SIEVE_LIMIT else sieve_primes():
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


def hecke_factor(fp, chi, p: int):
    """The local factor sigma1(f_p) - chi * sigma1(f_p / p) at f_p = p^k of
    the class number formula and the Hecke condition, 1 at f_p = 1, in closed
    form ((f_p * p - 1) - chi * (f_p - 1)) / (p - 1).  f_p and chi are ints or
    int64 arrays of equal shape."""
    return (fp * p - 1) // (p - 1) - chi * ((fp - 1) // (p - 1))


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


def _sqrt_mod_prime(x: int, p: int) -> list[int]:
    """Roots of z^2 == x (mod p) for an odd prime p not dividing x: Euler's
    criterion, then Tonelli-Shanks."""
    half = (p - 1) // 2
    if pow(x, half, p) != 1:
        return []
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
        return [r, p - r]
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
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
    return [r, p - r]


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
    return [r % full, (-r) % full, (r + full // 2) % full, (-r + full // 2) % full]


def _sqrt_mod_prime_power(x: int, p: int, e: int) -> list[int]:
    """All roots of z^2 == x (mod p^e), 0 <= x < p^e, in no set order.

    With x = p^k * u, p not dividing u, a root exists only for even k: the
    roots of u modulo p^(e-k), lifted from p by Hensel's lemma (odd p),
    times p^(k/2), each standing for a whole class mod p^(e-k/2).
    """
    mod = p**e
    if x == 0:
        return list(range(0, mod, p ** ((e + 1) // 2)))
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    if k % 2:
        return []
    if p == 2:
        roots = _sqrt_mod_2_power_unit(x, e - k)
    else:
        roots, lifted = _sqrt_mod_prime(x % p, p), p
        for _ in range(e - k - 1):
            lifted *= p
            roots = [(r - (r * r - x) * pow(2 * r, -1, lifted)) % lifted for r in roots]
    if k:
        shift = p ** (k // 2)
        roots = [z for r in roots for z in range(shift * r, mod, mod // shift)]
    return roots


def sqrt_mod(x: int, m: int) -> list[int]:
    """All residues z mod m with z^2 == x (mod m), ascending; empty when none.

    x may be any number of integral value, 4.0 as well as 4; any other x
    raises TypeError, as does a modulus m that factorize rejects.  Each prime
    power p^e || m is solved by Hensel lifting from p, and the roots are
    joined by the CRT.
    """
    if m < 1:
        raise ValueError("sqrt_mod expects m >= 1")
    z = int(x)
    if z != x:
        raise TypeError(f"sqrt_mod expects an integral x, got {x!r}")
    x = z % m
    roots: list[int] = [0]
    mod = 1
    for p, e in factorize(m):
        pe = p**e
        local = _sqrt_mod_prime_power(x % pe, p, e)
        if not local:
            return []
        if mod == 1:
            roots = local
        else:
            inv = pow(mod, -1, pe)  # CRT: z == r (mod mod) and z == s (mod pe)
            roots = [r + mod * ((s - r) * inv % pe) for r in roots for s in local]
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
