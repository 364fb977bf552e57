import json

import pytest

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
from hcl.hurwitz import hurwitz_via_formula


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
        assert table_1m.twelve_h(row.n) == hurwitz_via_formula(row.D, row.f).twelve_h


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
