import json
import random
from math import gcd

import numpy as np
import pytest

import oracles
from hcl.congruence import (
    _passing_residues,
    ArithmeticProgression,
    CongruenceCertificate,
    HolomorphicClass,
    certificate_to_json,
    classify_progression,
    ord_bound_report,
    search,
    square_class_check,
    square_class_witness,
    verify_congruence,
)
from hcl.hurwitz import HurwitzTable, build_table

SIX_CONGRUENCES = [
    (5, 125, 25),
    (7, 343, 147),
    (11, 1331, 847),
    (5, 27, 9),
    (7, 125, 50),
    (11, 512, 192),
]


def make_cert(ell, a, b, n_max):
    return CongruenceCertificate(
        ell, ArithmeticProgression(a, b), n_max, classify_progression(a, b), True
    )


# ---------------------------
# verification
# ---------------------------


def test_verify_known_congruences(table_1m):
    for ell, a, b in SIX_CONGRUENCES:
        ok, counterexample = verify_congruence(ell, a, b, 10**6, table_1m)
        assert ok and counterexample is None, (ell, a, b, counterexample)


def test_verify_counterexample(table_1m):
    ok, counterexample = verify_congruence(5, 4, 3, 10**4, table_1m)
    assert not ok and counterexample == 3  # 12*H(3) = 4


def test_verify_requires_table_coverage(table_1m):
    with pytest.raises(ValueError):
        verify_congruence(5, 125, 25, 10**6 + 1, table_1m)


def test_verify_rejects_small_or_composite_modulus(table_1m):
    for ell in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            verify_congruence(ell, 125, 25, 10**4, table_1m)


def test_verify_and_progression_share_one_rule():
    table = build_table(10)
    for a, b in [(0, 0), (-1, 0), (3, 3), (3, -1)]:
        message = f"need a >= 1 and 0 <= b < a, got ({a}, {b})"
        for call in (lambda: ArithmeticProgression(a, b), lambda: verify_congruence(5, a, b, 10, table)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message, (a, b)


def test_subprogression_closure(table_1m):
    # a congruence restricts to every arithmetic subprogression
    for ell, a, b in [(5, 125, 25), (11, 512, 192)]:
        for k in range(1, 5):
            for j in range(k):
                ok, _ = verify_congruence(ell, k * a, b + j * a, 2 * 10**5, table_1m)
                assert ok, (ell, k, j)


# ---------------------------
# classification
# ---------------------------


def test_classify_progression_examples():
    assert classify_progression(125, 25) == HolomorphicClass.NONHOLOMORPHIC
    assert classify_progression(27, 9) == HolomorphicClass.HOLOMORPHIC
    assert classify_progression(1, 0) == HolomorphicClass.NONHOLOMORPHIC


# ---------------------------
# search
# ---------------------------


def test_search_finds_known_progressions(table_small):
    certs = search(5, 125, 2 * 10**5, table_small)
    pairs = {(c.progression.a, c.progression.b) for c in certs}
    assert (125, 25) in pairs
    certs7 = search(7, 343, 10**5, table_small)
    assert (343, 147) in {(c.progression.a, c.progression.b) for c in certs7}


def test_search_small_bound_is_empty(table_small):
    assert search(5, 4, 10**4, table_small) == []


def test_search_full_scale_contains_known(table_1m):
    pairs5 = {
        (c.progression.a, c.progression.b) for c in search(5, 125, 10**6, table_1m)
    }
    assert (125, 25) in pairs5
    pairs7 = {
        (c.progression.a, c.progression.b) for c in search(7, 343, 10**6, table_1m)
    }
    assert (343, 147) in pairs7


def test_search_suppresses_subprogressions(table_small):
    certs = search(5, 250, 10**5, table_small)
    pairs = {(c.progression.a, c.progression.b) for c in certs}
    assert (125, 25) in pairs
    assert all(not (a == 250 and b % 125 == 25) for a, b in pairs)


def test_search_requires_confidence_floor(table_small):
    with pytest.raises(ValueError):
        search(5, 125, 12000, table_small)


def test_passing_residues_matches_plain_scan():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 2000)  # also below a and below a * 64 rows
        nz = np.array([rng.random() < rng.random() ** 6 for _ in range(n)])
        a = rng.randrange(1, 80)
        plain = [
            b for b in range(a)
            if not (a % 4 == 0 and b % 4 in (1, 2)) and not nz[b::a].any()
        ]
        assert _passing_residues(nz, a) == plain, (n, a)


def certified(table, ell, a_max, n_max):
    """search's certificates at ell in search_plain_scan's (a, b, nonholomorphic) form."""
    return [
        (c.progression.a, c.progression.b, c.holomorphic_class == HolomorphicClass.NONHOLOMORPHIC)
        for c in search(ell, a_max, n_max, table)
        if c.ell == ell and c.n_max_checked == n_max and c.maximal_up_to_check
    ]


def test_search_mask_across_chunks_matches_plain_scan():
    # the nonzero mask is filled in 2^20-entry chunks; n_max ends 4099 entries into the second
    n_max = 2**20 + 4099
    table = build_table(n_max)
    for ell in (5, 7, 11, 13):
        want = oracles.search_plain_scan(table.values, ell, 130, n_max)
        assert certified(table, ell, 130, n_max) == want, ell
    # a value that breaks (125, 25) only past the first chunk must drop it
    planted = table.values.copy()
    planted[n_max - (n_max - 25) % 125] += 1
    found = certified(HurwitzTable(planted), 5, 130, n_max)
    assert (125, 25, True) in certified(table, 5, 130, n_max) and (125, 25, True) not in found
    assert found == oracles.search_plain_scan(planted, 5, 130, n_max)


def test_search_skips_unsupported_progressions_exactly_on_any_mask():
    # search never reads a progression with 4 | a and b == 1, 2 (mod 4); nonzero values
    # planted at D == 1, 2 (mod 4), where no Hurwitz table has them, must not change its output
    n_max = 2**20 + 4099
    rng = random.Random(7)
    values = np.zeros(n_max + 1, dtype=np.int64)
    for lo, hi in ((0, 2**20), (2**20, n_max + 1)):
        for r in (0, 1, 1, 2, 2, 3):
            D = rng.randrange(lo, hi - 3)
            values[D - D % 4 + r] = rng.choice((1, 5 * 7, 11 * 13))
    assert np.count_nonzero(values[2**20 :]) > 0
    assert {int(D) % 4 for D in np.flatnonzero(values)} == {0, 1, 2, 3}
    table = HurwitzTable(values)
    for ell in (5, 7, 11, 13):
        found = certified(table, ell, 130, n_max)
        assert found == oracles.search_plain_scan(values, ell, 130, n_max), ell
        assert found and all(not (a % 4 == 0 and b % 4 in (1, 2)) for a, b, _ in found)


def test_ell_beyond_int32_divides_only_zero(table_small):
    # the table is int32; a prime ell >= 2^31 still divides exactly the zero values
    ell = 2**31 + 11
    assert verify_congruence(ell, 1, 0, 10**4, table_small) == (False, 0)  # 12H(0) = -1
    assert verify_congruence(ell, 4, 1, 10**4, table_small) == (True, None)
    assert verify_congruence(ell, 12, 3, 10**4, table_small) == (False, 3)
    want = oracles.search_plain_scan(table_small.values.astype(np.int64), ell, 60, 10**4)
    assert certified(table_small, ell, 60, 10**4) == want


def test_search_deterministic(table_small):
    assert search(5, 60, 10**4, table_small) == search(5, 60, 10**4, table_small)


# ---------------------------
# square classes
# ---------------------------


def test_square_class_check_passes_on_known(table_1m):
    ok, failures = square_class_check(5, 125, 25, 10, 10**6, table_1m)
    assert ok and not failures


def test_square_class_u1_is_base_check(table_1m):
    ok, failures = square_class_check(5, 125, 25, 1, 10**5, table_1m)
    assert ok


def test_empty_ranges_are_rejected(table_small):
    # no u or no a to check would make a vacuous verdict
    for u_max in (0, -3):
        with pytest.raises(ValueError, match=r"^u_max must be >= 1$"):
            square_class_check(5, 125, 25, u_max, 10**5, table_small)
    for a_max in (0, -1):
        with pytest.raises(ValueError, match=r"^a_max must be >= 1$"):
            search(5, a_max, 10**4, table_small)


def test_square_class_depends_on_u_mod_a(table_1m):
    # u and u + a produce the same residue b*u^2 mod a
    a, b = 27, 9
    for u in (2, 5):
        assert (b * u * u) % a == (b * (u + a) * (u + a)) % a


def test_square_class_verifies_each_residue_once(table_small, monkeypatch):
    # the verdict on a*Z + b*u^2 depends on u only through b*u^2 mod a, so each
    # distinct residue is verified once, and failures still lists every u
    import hcl.congruence as congruence

    verify = congruence.verify_congruence
    calls = []

    def counting(ell, a, b, n_max, table):
        calls.append(b)
        return verify(ell, a, b, n_max, table)

    monkeypatch.setattr(congruence, "verify_congruence", counting)
    values = table_small.values.tolist()
    for ell, a, b, u_max in [(5, 4, 3, 50), (5, 375, 48, 20), (5, 125, 25, 40), (7, 343, 147, 30)]:
        calls.clear()
        ok, failures = square_class_check(ell, a, b, u_max, 10**5, table_small)
        units = [u for u in range(1, u_max + 1) if gcd(u, a) == 1]
        assert sorted(calls) == sorted({b * u * u % a for u in units}), (a, b)
        expected = []
        for u in units:
            progression = range(b * u * u % a, 10**5 + 1, a)
            witness = next((D for D in progression if values[D] % ell), None)
            if witness is not None:
                expected.append((u, witness))
        assert (ok, failures) == (not expected, expected), (a, b)


def test_square_class_witness_example():
    assert square_class_witness(10, 49, 3, 7) == 6
    assert square_class_witness(3, 49, 3, 7) == 1  # m == b


def test_square_class_witness_properties():
    rng = random.Random(41)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5, 7, 11])
        r = rng.choice([2, 3])
        k = rng.randrange(0, 2)
        a_rest = rng.choice([1, 2, 4, 9, 25, 11])
        if a_rest % p == 0:
            continue
        a = p ** (k + r) * a_rest
        b = p**k * rng.randrange(1, 50)
        if b % (p ** (k + 1)) == 0 or gcd(b // p**k, p) != 1:
            continue
        b %= a
        t = rng.randrange(0, 5)
        m = b + t * (a // p)
        u = square_class_witness(m, a, b, p)
        assert gcd(u, a) == 1
        assert (m - b * u * u) % a == 0
        brute = oracles.square_class_witness_brute(m, a, b)
        assert u == brute, (m, a, b, p)
        checked += 1


def test_square_class_witness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        square_class_witness(10, 49, 3, 2)  # even p
    with pytest.raises(ValueError):
        square_class_witness(10, 35, 3, 7)  # ord_7(35/1) = 1 < 2
    with pytest.raises(ValueError):
        square_class_witness(11, 49, 3, 7)  # 11 != 3 (mod 7)


# ---------------------------
# valuation bounds
# ---------------------------


def test_ord_bound_report_examples():
    r = ord_bound_report(512, 192)
    assert r.orders == {2: 3} and r.within_bounds
    r = ord_bound_report(125, 25)
    assert r.orders == {5: 1} and r.within_bounds
    r = ord_bound_report(1, 0)
    assert r.orders == {} and r.within_bounds


def test_ord_bound_report_flags_violations():
    r = ord_bound_report(3**2 * 4, 4)
    assert r.orders[3] == 2 and 3 in r.violations and not r.within_bounds


# ---------------------------
# serialization
# ---------------------------


def test_certificate_json_schema():
    cert = make_cert(5, 125, 25, 10**6)
    payload = json.loads(certificate_to_json(cert))
    assert payload == {
        "ell": 5,
        "a": 125,
        "b": 25,
        "n_max": 10**6,
        "class": "nonholomorphic",
        "maximal": True,
    }
