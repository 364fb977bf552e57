import random
from fractions import Fraction

import pytest

from hcl.hurwitz import build_table
from hcl.qseries import (
    QSeries,
    eisenstein_hol,
    theta_series,
    u_operator,
)


@pytest.fixture(scope="module")
def table():
    return build_table(3000)


def test_theta_series_examples():
    t = theta_series(1, 0, 5)
    assert [t.coefficient(e) for e in range(5)] == [1, 2, 0, 0, 2]
    t = theta_series(4, 1, 1)
    assert t.coefficient(Fraction(1, 4)) == 1
    t = theta_series(4, 1, 3)
    assert t.coefficient(Fraction(9, 4)) == 1
    t = theta_series(4, 2, 3)
    assert t.coefficient(1) == 2


def test_eisenstein_examples(table):
    E = eisenstein_hol(5, table)
    assert [E.coefficient(e) for e in range(5)] == [
        Fraction(-1, 12), 0, 0, Fraction(1, 3), Fraction(1, 2),
    ]
    assert len(eisenstein_hol(1, table).coeffs) == 1
    E = eisenstein_hol(9, table)
    assert E.coefficient(7) == 1
    assert E.coefficient(8) == 1
    with pytest.raises(ValueError, match=r"^table covers D <= 3000, need 4999$"):
        eisenstein_hol(5000, table)


def test_u_operator_on_eisenstein(table):
    UE = u_operator(eisenstein_hol(2000, table), 125, 25)
    for n in range(10):
        exp = n + Fraction(25, 125)
        assert UE.coefficient(exp) == Fraction(int(table.values[125 * n + 25]), 12)


def test_u_operator_on_theta():
    th = theta_series(1, 0, 80)
    assert u_operator(th, 4, 3).is_zero()
    assert u_operator(th, 4, 0).coefficient(1) == 2


def test_u_operator_depends_on_b_mod_a():
    th = theta_series(1, 0, 80)
    assert u_operator(th, 12, 5).agrees_with(u_operator(th, 12, 5 + 12 * 7))


def test_theta_series_and_u_operator_share_the_modulus_rule():
    th = theta_series(1, 0, 10)
    for a in (0, -3):
        for call in (lambda: theta_series(a, 0, 10), lambda: u_operator(th, a, 0)):
            with pytest.raises(ValueError, match="^a must be >= 1$"):
                call()


def test_multiply_identity_and_commutativity():
    rng = random.Random(21)
    one = QSeries(1, 40, {0: Fraction(1)})
    for _ in range(20):
        coeffs = {
            rng.randrange(0, 120): Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(8)
        }
        x = QSeries(3, 40, coeffs)
        y = QSeries(2, 25, {rng.randrange(0, 49): Fraction(rng.randrange(-5, 6)) for _ in range(5)})
        assert (x * one).agrees_with(x)
        assert (x * y).agrees_with(y * x)


def test_multiply_against_direct_convolution():
    rng = random.Random(22)
    for _ in range(30):
        xc = {rng.randrange(0, 30): Fraction(rng.randrange(-9, 10)) for _ in range(6)}
        yc = {rng.randrange(0, 30): Fraction(rng.randrange(-9, 10)) for _ in range(6)}
        x = QSeries(1, 30, xc)
        y = QSeries(1, 30, yc)
        z = x * y
        for e in range(30):
            direct = sum(
                (xc.get(i, Fraction(0)) * yc.get(e - i, Fraction(0)) for i in range(e + 1)),
                Fraction(0),
            )
            assert z.coefficient(e) == direct, e


def test_theta_squared_coefficient():
    th = theta_series(1, 0, 20)
    assert (th * th).coefficient(2) == 4  # r_2(2)


def test_precision_is_min_rule():
    x = QSeries(1, 10, {0: Fraction(1)})
    y = QSeries(1, 4, {0: Fraction(1)})
    z = x * y
    assert z.precision == 4
    with pytest.raises(ValueError):
        z.coefficient(5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        QSeries(1, 5, {7: Fraction(1)})  # index beyond precision
    with pytest.raises(ValueError):
        QSeries(1, 5, {-1: Fraction(1)})  # negative exponent
    s = QSeries(1, 5, {2: Fraction(0)})
    assert s.is_zero()
