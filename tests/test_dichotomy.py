import json
import random

import numpy as np
import pytest

import hcl.dichotomy as dichotomy_module
import oracles
from hcl.congruence import verify_congruence
from hcl.dichotomy import (
    DichotomyCase,
    check_assumptions,
    classify,
    enumerate_representations,
    hecke_condition,
    report_to_json,
)
from hcl.arith import p_part
from hcl.hurwitz import HurwitzTable, hurwitz_via_formula


EXPECTED_WITNESSES = {
    (5, 125, 25): (5, 1, 5),
    (7, 343, 147): (7, 1, 7),
    (11, 1331, 847): (11, 1, 11),
    (5, 27, 9): (3, -1, 3),
    (7, 125, 50): (5, -1, 5),
    (11, 512, 192): (2, -1, 8),
}


# ---------------------------
# assumptions
# ---------------------------


def test_check_assumptions_examples():
    assert check_assumptions(125, 25).ok
    assert check_assumptions(27, 9).ok
    report = check_assumptions(10, 5)
    assert not report.ok
    assert report.per_prime[2] == (1, 2, False)


# ---------------------------
# representation rows
# ---------------------------


def test_enumerate_examples():
    rows = enumerate_representations(125, 25, 300)
    by_n = {r.n: r for r in rows}
    assert 275 in by_n and (by_n[275].D, by_n[275].f) == (11, 5)

    rows = enumerate_representations(343, 147, 200)
    by_n = {r.n: r for r in rows}
    assert 147 in by_n and (by_n[147].D, by_n[147].f) == (3, 7)

    rows = enumerate_representations(27, 9, 100)
    ns = [r.n for r in rows]
    assert 36 in ns and 9 not in ns  # -9 == 3 (mod 4) is not a discriminant
    by_n = {r.n: r for r in rows}
    assert (by_n[36].D, by_n[36].f) == (4, 3)


def as_tuples(rows):
    return [
        (r.n, r.D, r.f, {p: (d.f_p, d.kronecker, d.hecke_residue) for p, d in r.per_prime.items()})
        for r in rows
    ]


def drawn_progressions(count=60, seed=2027):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rng.randrange(1, 3001)
        out.append((a, rng.randrange(a), rng.randrange(3 * 10**4 + 1), rng.choice([None, 5, 7, 11, 13])))
    return out


EDGE_PROGRESSIONS = [
    (12, 0, 5000, 5),  # b = 0: the progression starts at a
    (1, 0, 3000, 7),  # a = 1: every n
    (20, 7, 20000, 11),  # 4 | a, n == 3 (mod 4)
    (16, 12, 20000, 13),  # 4 | a, n == 0 (mod 4)
    (72, 36, 30000, 5),  # 2^2 and 3^2 divide a and b
    (45, 18, 30000, None),  # 3^2 divides a and b
    (2 * 10007, 3, 10**5, 5),  # p = 10007 | a exceeds the row count (3 rows)
    (3 * 100003, 11, 10**5, 7),  # a > n_max with one row; p = 100003 exceeds it
    (5000, 4999, 4999, 5),  # a > n_max, one row
    (5000, 4999, 4000, 5),  # empty: b > n_max
    (27, 9, 0, 5),  # empty: n_max = 0
    (5, -3, 100, 5),  # b < 0: the values -3 and 2 are skipped
    (7, -10, 200, None),  # b < 0: the values -10 and -3 are skipped
]


@pytest.mark.parametrize(
    "a,b,n_max,ell",
    [(a, b, 2 * 10**5, ell) for ell, a, b in EXPECTED_WITNESSES]
    + EDGE_PROGRESSIONS
    + drawn_progressions(),
)
def test_enumerate_matches_row_oracle(a, b, n_max, ell):
    rows = enumerate_representations(a, b, n_max, ell)
    assert as_tuples(rows) == oracles.enumerate_representations_reference(a, b, n_max, ell)


def test_enumerate_rejects_a_nonpositive_discriminant():
    with pytest.raises(ValueError, match="^--8 is not a discriminant$"):
        enumerate_representations(4, -8, 100)


def test_evidence_is_a_lazy_read_only_sequence():
    rows = enumerate_representations(27, 9, 3000, 5)
    oracle = oracles.enumerate_representations_reference(27, 9, 3000, 5)
    size = len(oracle)
    assert len(rows) == size > 20
    assert as_tuples([rows[0], rows[-1], rows[np.int64(5)], rows[-size]]) == [
        oracle[0], oracle[-1], oracle[5], oracle[-size]
    ]
    for sel in (slice(None), slice(3, 17), slice(1, None, 7), slice(None, None, -3), slice(-5, 200, 2), slice(50, 10)):
        assert as_tuples(rows[sel]) == oracle[sel], sel
    assert as_tuples(rows) == oracle  # iteration
    assert list(rows) == list(enumerate_representations(27, 9, 3000, 5))
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            oracle[i]
        with pytest.raises(IndexError):
            rows[i]
    with pytest.raises(IndexError):
        enumerate_representations(27, 9, 5)[0]
    for i in (1.0, "1", None):  # only an integer or a slice indexes
        with pytest.raises(TypeError):
            rows[i]
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    # the sequence class stays private
    name = type(rows).__name__
    exported = {}
    exec("from hcl.dichotomy import *", exported)
    assert name not in dichotomy_module.__all__ and name not in exported


def test_rows_sorted_and_decompose():
    rows = enumerate_representations(27, 9, 3000)
    assert [r.n for r in rows] == sorted(r.n for r in rows)
    for r in rows:
        assert r.D * r.f * r.f == r.n


# ---------------------------
# the local condition
# ---------------------------


def test_hecke_condition_examples():
    assert hecke_condition(11, 5, 5, 5) == 0
    assert hecke_condition(3, 7, 7, 7) == 0
    assert hecke_condition(4, 3, 3, 5) == 0


def test_hecke_condition_neutral_when_p_absent():
    assert hecke_condition(11, 5, 7, 5) == 1
    assert hecke_condition(3, 1, 3, 7) == 1


@pytest.mark.parametrize("ell,a,b", [(5, 125, 25), (5, 27, 9), (7, 125, 50), (11, 512, 192)])
def test_enumerated_residues_match_sigma_formula(ell, a, b):
    for row in enumerate_representations(a, b, 20000, ell):
        for p, local in row.per_prime.items():
            fp = local.f_p
            want = 1 % ell if fp == 1 else (
                oracles.sigma_brute(fp) - local.kronecker * oracles.sigma_brute(fp // p)
            ) % ell
            assert local.hecke_residue == want == hecke_condition(row.D, row.f, p, ell)


# ---------------------------
# classification
# ---------------------------


def test_classify_known_congruences(table_1m):
    for (ell, a, b), (p, kappa, fp) in EXPECTED_WITNESSES.items():
        report = classify(ell, a, b, 2 * 10**5, table_1m)
        assert report.case == DichotomyCase.HECKE_CONDITION, (ell, a, b)
        assert (report.witness.p, report.witness.kronecker, report.witness.f_p) == (
            p,
            kappa,
            fp,
        ), (ell, a, b)
        a_p, b_p, verified = report.prime_power_congruence
        assert verified and a_p == a and b_p == b  # a is already a prime power here


def test_classify_witness_matches_first_row_oracle(table_1m):
    # recompute the expected local data from the first row by hand
    for (ell, a, b), (p, kappa, fp) in EXPECTED_WITNESSES.items():
        rows = enumerate_representations(a, b, 2 * 10**5, ell)
        first = rows[0]
        data = first.per_prime[p]
        assert data.f_p == fp and data.kronecker == kappa and data.hecke_residue == 0


def verified_progressions(table, count=40, seed=11):
    """Seed-drawn (ell, a, b, n_max) with rows on which classify runs: the
    congruence verifies and the valuation assumptions hold."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randrange(1, 400)
        b, ell, n_max = rng.randrange(a), rng.choice([5, 7, 11, 13]), rng.randrange(1, 40 * a)
        if not check_assumptions(a, b).ok or not verify_congruence(ell, a, b, n_max, table)[0]:
            continue
        if oracles.enumerate_representations_reference(a, b, n_max):
            out.append((ell, a, b, n_max))
    return out


def oracle_cases(table):
    """The six congruences, a progression with no rows, then seed-drawn ones."""
    cases = [(ell, a, b, 2 * 10**5) for ell, a, b in EXPECTED_WITNESSES]
    return cases + [(7, 24, 17, 297)] + verified_progressions(table)


def test_classify_matches_row_oracle(table_1m):
    verdicts = set()
    for ell, a, b, n_max in oracle_cases(table_1m):
        report = classify(ell, a, b, n_max, table_1m)
        rows = oracles.enumerate_representations_reference(a, b, n_max, ell)
        case, witness, h_values = oracles.classify_rows_reference(rows, table_1m.values, ell)
        w = report.witness
        assert report.case.value == case, (ell, a, b, n_max)
        assert (None if w is None else (w.p, w.kronecker, w.f_p)) == witness, (ell, a, b, n_max)
        assert report.h_values.dtype == np.int64 and report.h_values.shape == (len(h_values), 2)
        assert list(map(tuple, report.h_values.tolist())) == h_values, (ell, a, b, n_max)
        verdicts.add((case, bool(rows)))
    assert verdicts == {
        ("hecke_condition", True),
        ("fundamental_divisibility", True),
        ("inconclusive", True),
        ("inconclusive", False),
    }


def test_classify_h_values_do_not_wrap_on_int32_tables():
    # 12H * (12^-1 mod ell) reaches 2^31 here: 70000 * 40834 and 140002 * 40834
    ell, a, b, n_max = 70001, 25, 10, 5000
    assert 70000 * pow(12, -1, ell) >= 2**31
    values = np.full(n_max + 1, 70000, dtype=np.int32)
    values[b::a] = 2 * ell
    report = classify(ell, a, b, n_max, HurwitzTable(values))
    rows = oracles.enumerate_representations_reference(a, b, n_max, ell)
    case, witness, h_values = oracles.classify_rows_reference(rows, values, ell)
    assert report.case.value == case and list(map(tuple, report.h_values.tolist())) == h_values
    assert {D % a == b for D, _ in h_values} == {True, False}


def test_prime_power_congruence_reverified_only_below_a(table_1m, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_congruence(*args)

    monkeypatch.setattr(dichotomy_module, "verify_congruence", counting)
    cases = list(EXPECTED_WITNESSES) + [(5, 375, 25), (5, 375, 275), (7, 1029, 490), (5, 135, 36)]
    for ell, a, b in cases:
        calls.clear()
        report = classify(ell, a, b, 10**6, table_1m)
        a_p = p_part(a, report.witness.p)
        want = verify_congruence(ell, a_p, b % a_p, 10**6, table_1m)[0]
        assert report.prime_power_congruence == (a_p, b % a_p, want), (ell, a, b)
        assert len(calls) == (1 if a_p == a else 2), (ell, a, b)


def test_classify_rejects_non_constant_local_data(table_1m, monkeypatch):
    rows = enumerate_representations(125, 25, 10**4, 5)
    fp, kr, residue = rows.local[5]
    fp = fp.copy()
    fp[-1] = 25  # residues stay 0, so p = 5 is a witness with two local data
    forged = type(rows)(rows.n, rows.D, rows.f, {5: (fp, kr, residue)})
    with pytest.raises(ArithmeticError) as oracle_error:
        oracles.classify_rows_reference(as_tuples(forged), table_1m.values, 5)
    monkeypatch.setattr(dichotomy_module, "enumerate_representations", lambda *args: forged)
    with pytest.raises(ArithmeticError) as error:
        classify(5, 125, 25, 10**4, table_1m)
    assert str(error.value) == str(oracle_error.value)
    assert str(error.value).startswith("Hecke witness p=5 has non-constant local data [(5, 1), (25, 1)]; ")


def test_classify_rejects_failing_congruence(table_1m):
    with pytest.raises(ValueError):
        classify(5, 4, 3, 10**4, table_1m)


def test_classify_rejects_failing_assumptions(table_1m):
    # 12n + 9 == 1 (mod 4) carries no discriminants, so the congruence check
    # passes vacuously, but ord_3(12/gcd(12,9)) = 0 violates the hypotheses
    ok, _ = verify_congruence(5, 12, 9, 10**4, table_1m)
    assert ok
    assert not check_assumptions(12, 9).ok
    with pytest.raises(ValueError):
        classify(5, 12, 9, 10**4, table_1m)


def test_classify_formula_consistency(table_1m):
    # every row satisfies 12 H(n) = 12 H(D) * prod_p (sigma1(f_p) - kappa_p sigma1(f_p/p))
    rows = enumerate_representations(125, 25, 10**4)
    assert rows
    for row in rows:
        assert int(table_1m.values[row.n]) == hurwitz_via_formula(row.D, row.f)


def test_classify_monotone_in_evidence(table_1m):
    for (ell, a, b), expected in EXPECTED_WITNESSES.items():
        small = classify(ell, a, b, 10**5, table_1m)
        large = classify(ell, a, b, 2 * 10**5, table_1m)
        assert small.case == large.case == DichotomyCase.HECKE_CONDITION
        assert small.witness == large.witness


def test_uniqueness_of_local_data(table_1m):
    for (ell, a, b), (p, kappa, fp) in EXPECTED_WITNESSES.items():
        rows = enumerate_representations(a, b, 2 * 10**5, ell)
        assert {(r.per_prime[p].f_p, r.per_prime[p].kronecker) for r in rows} == {
            (fp, kappa)
        }


def test_report_json_stable(table_1m):
    r1 = classify(5, 125, 25, 10**5, table_1m)
    r2 = classify(5, 125, 25, 10**5, table_1m)
    assert report_to_json(r1) == report_to_json(r2)
    payload = json.loads(report_to_json(r1, max_rows=3))
    assert list(payload) == [
        "ell", "a", "b", "n_max", "case", "witness", "assumptions",
        "prime_power_congruence", "rows_total", "rows",
        "h_values_nonzero", "h_values_total",
    ]
    assert len(payload["rows"]) == 3
    assert payload["case"] == "hecke_condition"


def test_report_json_counts_h_values(table_1m):
    verdicts = set()
    for ell, a, b, n_max in oracle_cases(table_1m):
        rows = oracles.enumerate_representations_reference(a, b, n_max, ell)
        case, _, h_values = oracles.classify_rows_reference(rows, table_1m.values, ell)
        report = classify(ell, a, b, n_max, table_1m)
        want = (sum(r != 0 for _, r in h_values), len(h_values))
        for max_rows in (None, 0, 20):
            payload = json.loads(report_to_json(report, max_rows=max_rows))
            assert (payload["h_values_nonzero"], payload["h_values_total"]) == want, (ell, a, b, n_max)
        verdicts.add((case, want[0] < want[1]))
    # there every h value is 0 (mod ell), so a count of the D column reads want[1], not 0
    assert ("fundamental_divisibility", True) in verdicts


def test_report_json_rejects_negative_max_rows(table_1m):
    report = classify(5, 125, 25, 10**5, table_1m)
    for max_rows in (-1, -3):
        with pytest.raises(ValueError, match=r"^max_rows must be >= 0$"):
            report_to_json(report, max_rows=max_rows)
    assert json.loads(report_to_json(report, max_rows=0))["rows"] == []
    full = json.loads(report_to_json(report, max_rows=None))
    assert len(full["rows"]) == full["rows_total"] == len(report.evidence)
