"""The benchmark's checkers accept hcl's true outputs and reject planted faults:
one wrong table value, one dropped or added certificate, one coefficient off
by one."""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from hcl.congruence import search, verify_congruence  # noqa: E402
from hcl.dichotomy import classify  # noqa: E402
from hcl.holproj import (  # noqa: E402
    exact_projection_coefficient,
    find_distinguished_primes,
    nonhol_coefficient,
    proj_theta_product,
    q_subset_decomposition,
    subprogression_construct,
)
from hcl.hurwitz import build_table  # noqa: E402

N = 40_000


@pytest.fixture(scope="module")
def table():
    return build_table(N)


@pytest.fixture(scope="module")
def probes():
    return checks.draw_table_probes(random.Random(7), N)


def test_true_table_passes(table, probes):
    assert checks.check_table(table.values, probes) == []
    assert [checks.twelve_h(D) for D in range(1200)] == table.values[:1200].tolist()


def test_each_table_checker_rejects_a_planted_value(table, probes):
    ns, Ds, pairs = probes
    D, f = pairs[0]
    planted = [
        (lambda v: checks.check_kronecker_hurwitz(v, ns), 4 * ns[len(ns) // 2]),
        (lambda v: checks.check_spot_values(v, Ds), Ds[1]),
        (lambda v: checks.check_class_number_formula(v, pairs), D * f * f),
        (checks.check_structure, 4 * 1000 + 1),
    ]
    for checker, index in planted:
        bad = table.values.copy()
        bad[index] += 1
        assert checker(table.values) == []
        assert checker(bad), f"planted 12H({index}) + 1 went unnoticed"


def test_search_checker_rejects_dropped_and_extra_certificates(table):
    found = [(c.progression.a, c.progression.b) for c in search(5, 125, N, table)]
    assert (125, 25) in found
    assert checks.check_search(table.values, 5, 125, N, found) == []
    for i in range(len(found)):
        assert checks.check_search(table.values, 5, 125, N, found[:i] + found[i + 1 :])
    assert checks.check_search(table.values, 5, 125, N, found + [(25, 1)])


def test_verify_checker_rejects_a_wrong_verdict(table):
    ok, ce = verify_congruence(7, 60, 11, N, table)
    assert not ok
    assert checks.check_verify(table.values, 7, 60, 11, N, ok, ce) == []
    assert checks.check_verify(table.values, 7, 60, 11, N, ok, ce + 60)
    assert checks.check_verify(table.values, 7, 60, 11, N, True, None)


def test_dichotomy_checker_rejects_a_wrong_row_count(table):
    rep = classify(5, 125, 25, N, table)
    w = (rep.witness.p, rep.witness.kronecker, rep.witness.f_p)
    rows = len(rep.evidence)
    assert checks.check_dichotomy(5, 125, 25, N, rep.case.value, w, rows) == []
    assert checks.check_dichotomy(5, 125, 25, N, rep.case.value, w, rows - 1)
    assert checks.check_dichotomy(5, 125, 25, N, rep.case.value, (5, -1, 5), rows)


def test_projection_checkers_reject_a_coefficient_off_by_one(table):
    for a, b, beta, n in [(55, 54, 1, 167), (12, 8, 2, 30), (7, 5, 3, 40)]:
        got = exact_projection_coefficient(a, b, beta, n, table)
        assert checks.projection_ref(table.values, a, b, beta, n) == got
        assert checks.projection_ref(table.values, a, b, beta, n) != got + 1
    tuples = list(checks.admissible_tuples(12, 30))
    for a, b, beta, roots, n in random.Random(3).sample(tuples, 150):
        value = nonhol_coefficient(a, b, beta, n)
        assert checks.nonhol_ref(a, b, beta, n) == value != value + 1
        for bt in roots:
            value = proj_theta_product(a, bt, beta, n)
            assert checks.proj_theta_ref(a, bt, beta, n) == value != value + 1
        try:
            q_subset_decomposition(a, b, beta, n)
        except ValueError:
            assert not checks.subset_decomposition_defined(a, b, beta)
        else:
            assert checks.subset_decomposition_defined(a, b, beta)


def test_witness_checker_rejects_a_wrong_value_or_prime():
    w = subprogression_construct(5, 4, 1)
    pr = find_distinguished_primes(w)
    value = nonhol_coefficient(w.a, w.b, w.beta, pr.a_prime * pr.p)
    args = [w.a_tilde, w.b_tilde, w.beta, w.a, w.b, w.p_big, pr.a_prime, pr.p, pr.p_prime]
    assert checks.check_witness(*args, value) == []
    assert checks.check_witness(*args, value + 1)
    assert checks.check_witness(*args[:8], pr.p_prime + w.a, value)
    assert checks.check_witness(*args[:4], w.b + 1, *args[5:], value)


def test_truncated_cache_verdict():
    assert not checks.truncated_cache_verdict(0, {"ok": True, "counterexample": None})
    assert checks.truncated_cache_verdict(2, None)
    assert checks.truncated_cache_verdict(1, {"ok": False, "counterexample": 2383})
    assert not checks.truncated_cache_verdict(1, {"ok": False, "counterexample": 2387})


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m
