import os
import random
import subprocess
import sys

import numpy as np
import pytest

import oracles
from hcl import arith
from hcl.arith import (
    check_ell,
    check_fundamental,
    divisors,
    factorize,
    hecke_factor,
    is_fundamental,
    is_prime,
    kronecker,
    next_prime_in_class,
    ord_p,
    p_part,
    sqrt_mod,
    squarefree_part,
)


# ---------------------------
# factorization and divisor sums
# ---------------------------


def test_factorize_basics():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(847) == ((7, 1), (11, 2))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_brute():
    rng = random.Random(1)
    ns = [rng.randrange(1, 10**6) for _ in range(300)]
    rng = random.Random(3)
    ns += list(range(2, 3000)) + [rng.randrange(3000, 10**6) for _ in range(1000)] + [10**6 - 1]
    for n in ns:
        assert list(factorize(n)) == oracles.factor_brute(n), n


def test_primes_up_to_matches_trial_division():
    for n in range(0, 300):
        assert arith.primes_up_to(n) == tuple(p for p in range(2, n + 1) if oracles.factor_brute(p) == [(p, 1)]), n


def test_factorize_large_cofactors():
    p, q = 999_983, 1_000_003  # q survives the sieve, stays below 10^12
    assert factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
    with pytest.raises(ValueError):
        factorize(1_000_003 * 1_000_033)  # composite cofactor beyond the sieve


def test_divisors_matches_brute():
    for n in range(1, 5001):
        want = tuple(oracles.divisors_brute(n))
        assert divisors(n) == want, n


@pytest.mark.parametrize("bad, kind", [(0, ValueError), (-4, ValueError), (6.0, TypeError)])
def test_divisors_rejects_the_same_arguments_after_caching(bad, kind):
    def error(n):
        with pytest.raises(kind) as info:
            divisors(n)
        return str(info.value)

    before = error(bad)
    assert divisors(6) == (1, 2, 3, 6)
    assert error(bad) == before  # a value computed for 6 answers neither 6.0 nor a bad n


def test_hecke_factor_matches_sigma1():
    ks = [k for k in range(7) for _ in range(3)]
    chis = [-1, 0, 1] * 7
    for p in arith.primes_up_to(50):
        sigma = [oracles.sigma_brute(p**k) for k in range(7)]
        want = [sigma[k] - chi * (sigma[k - 1] if k else 0) for k, chi in zip(ks, chis)]
        assert [hecke_factor(p**k, chi, p) for k, chi in zip(ks, chis)] == want, p
        fp = np.array([p**k for k in ks], dtype=np.int64)
        assert hecke_factor(fp, np.array(chis, dtype=np.int64), p).tolist() == want, p


def test_p_part():
    assert p_part(48, 2) == 16
    assert p_part(35, 2) == 1
    assert p_part(847, 11) == 121


@pytest.mark.parametrize("p", [-2, 0])
def test_ord_p_is_the_one_rule_for_p_below_two(p):
    from hcl.dichotomy import hecke_condition

    for call in (lambda: ord_p(12, p), lambda: p_part(12, p), lambda: hecke_condition(3, 4, p, 5)):
        with pytest.raises(ValueError, match=f"^ord_p expects p >= 2, got {p}$"):
            call()


def test_ord_p_rejects_p_one_instead_of_looping():
    # ord_p(n, 1) once divided by 1 forever, so the calls run in a child with a timeout
    code = (
        "from hcl.arith import ord_p, p_part\n"
        "from hcl.dichotomy import hecke_condition\n"
        "for call in (lambda: ord_p(12, 1), lambda: p_part(12, 1), lambda: hecke_condition(3, 4, 1, 5)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arith.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout) == (0, "ord_p expects p >= 2, got 1\n" * 3), run.stderr


# ---------------------------
# kronecker symbol
# ---------------------------


def test_kronecker_examples():
    assert kronecker(-4, 2) == 0
    assert kronecker(-11, 5) == 1
    assert kronecker(-3, 5) == -1


def test_kronecker_matches_prime_brute():
    primes = [p for p in range(2, 100) if is_prime(p)]
    for p in primes:
        for x in range(-60, 61):
            assert kronecker(x, p) == oracles.kronecker_prime_brute(x, p), (x, p)


def test_kronecker_multiplicative_in_numerator():
    for p in (p for p in range(2, 100) if is_prime(p)):
        for x in range(-30, 31):
            for y in range(-30, 31):
                assert kronecker(x * y, p) == kronecker(x, p) * kronecker(y, p)


def test_kronecker_composite_lower_argument():
    # multiplicativity in the lower argument pins down the composite extension
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        x = rng.randrange(-40, 41)
        assert kronecker(x, m * n) == kronecker(x, m) * kronecker(x, n)


# ---------------------------
# square roots mod m
# ---------------------------


def test_sqrt_mod_examples():
    assert sqrt_mod(1, 8) == [1, 3, 5, 7]
    assert sqrt_mod(-1, 4) == []
    assert 1 in sqrt_mod(-54, 55)


def test_sqrt_mod_exhaustive_small():
    for m in range(1, 301):
        by_x = {}
        for z in range(m):
            by_x.setdefault(z * z % m, []).append(z)
        for x in range(m):
            assert sqrt_mod(x, m) == by_x.get(x, []), (x, m)


def test_sqrt_mod_exhaustive_sweep_to_2000():
    for m in range(301, 2001):
        by_x = {}
        for z in range(m):
            by_x.setdefault(z * z % m, []).append(z)
        for x in range(m):
            assert sqrt_mod(x, m) == by_x.get(x, []), (x, m)


def test_sqrt_mod_large_prime_power_paths():
    rng = random.Random(5)
    for mod, p in [(3**9, 3), (2**15, 2), (5**7, 5), (7**6, 7), (10007, 10007), (104729, 104729)]:
        for _ in range(40):
            z = rng.randrange(mod)
            x = z * z % mod
            roots = sqrt_mod(x, mod)
            assert z in roots
            assert all((r * r - x) % mod == 0 for r in roots)
        # non-residues must come back empty
        empties = 0
        for _ in range(40):
            x = rng.randrange(mod)
            roots = sqrt_mod(x, mod)
            assert all((r * r - x) % mod == 0 for r in roots)
            empties += not roots
        assert empties > 0


def test_input_rules_do_not_depend_on_size():
    # the same rule on both sides of 10^6 and of 10^4
    for n in (6.0, 2e6):
        with pytest.raises(TypeError):
            factorize(n)
        with pytest.raises(TypeError):
            sqrt_mod(4, n)
    for m in (9973, 10007):
        assert sqrt_mod(4, m) == [2, m - 2]
        for x in (4.0, 4.5):
            with pytest.raises(TypeError):
                sqrt_mod(x, m)


def test_sqrt_mod_large_composite():
    mod = 3**9 * 10007
    z = 123456789 % mod
    x = z * z % mod
    roots = sqrt_mod(x, mod)
    assert z in roots and all((r * r - x) % mod == 0 for r in roots)


# ---------------------------
# squarefree parts and fundamental discriminants
# ---------------------------


def test_squarefree_part():
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(48) == (3, 4)
    assert squarefree_part(275) == (11, 5)


def test_check_fundamental_is_the_one_fundamental_discriminant_rule():
    from hcl.dichotomy import hecke_condition
    from hcl.hurwitz import class_number, hurwitz_via_formula

    for D in (3, 4, 7, 8, 11, 15, 20, 23, 24, 163):
        assert is_fundamental(D)
        check_fundamental(D)
    for D in (-3, 0, 1, 2, 5, 12, 16, 27, 28, 75):
        assert not is_fundamental(D)
        message = f"^-{D} is not a fundamental discriminant$"
        for call in (
            lambda: check_fundamental(D),
            lambda: class_number(D),
            lambda: hurwitz_via_formula(D, 1),
            lambda: hecke_condition(D, 1, 2, 5),
        ):
            with pytest.raises(ValueError, match=message):
                call()


# ---------------------------
# primality and prime search
# ---------------------------


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_next_prime_in_class():
    assert next_prime_in_class(55, 2, 55) == 167
    assert next_prime_in_class(5, 0, 1) == 7
    with pytest.raises(ValueError):
        next_prime_in_class(4, 0, 4, cap=10**4)  # multiples of 4 are never prime


def test_check_ell_is_the_one_prime_gt_3_rule():
    from hcl.congruence import verify_congruence
    from hcl.hurwitz import build_table

    for ell in (5, 7, 11, 13, 10007):
        check_ell(ell)
    for ell in (-5, 0, 1, 2, 3, 4, 9, 25):
        with pytest.raises(ValueError, match=r"^ell must be a prime > 3$"):
            check_ell(ell)
    with pytest.raises(ValueError, match=r"^ell must be a prime > 3$"):
        verify_congruence(9, 4, 3, 10, build_table(10))
