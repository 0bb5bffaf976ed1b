import math

import numpy as np
import pytest

from slowtorus.params import idealized_q_sequence
from slowtorus.scaling import (
    OrderingRow,
    ScaleDomainError,
    ScalingFamily,
    eval_log,
    gamma_r_inv_log,
    gamma_r_log,
    ordering_table,
)
from slowtorus import scaling


INT1 = ScalingFamily("int1", 4, 2)
INT2 = ScalingFamily("int2", 4, 2)
POL = ScalingFamily("pol")
LOG = ScalingFamily("log")


def test_gamma_values_on_fourth_powers():
    assert math.exp(gamma_r_log(16, 4)) == pytest.approx(16, rel=1e-12)
    assert math.exp(gamma_r_log(81, 4)) == pytest.approx(1296, rel=1e-12)
    assert math.exp(gamma_r_log(1, 4)) == pytest.approx(1, rel=1e-12)


def test_gamma_domain_error():
    with pytest.raises(ScaleDomainError):
        gamma_r_log(0.5, 4)
    with pytest.raises(ScaleDomainError):
        gamma_r_log(10, 3)


def test_gamma_matches_exact_factorial_products():
    # independent oracle: (n!)**r with exact integer arithmetic
    for r in (4, 5, 8):
        for n in range(1, 13):
            exact = math.factorial(n) ** r
            got = math.exp(scaling.gamma_r_log(float(n**r), r) - math.log(exact))
            assert abs(got - 1.0) < 1e-10, (r, n)


def test_gamma_inverse_examples():
    assert gamma_r_inv_log(math.log(16), 4) == pytest.approx(16, rel=1e-9)
    assert gamma_r_inv_log(math.log(1), 4) == pytest.approx(1, abs=1e-12)
    assert gamma_r_inv_log(math.log(1296), 4) == pytest.approx(81, rel=1e-9)


def test_gamma_inverse_roundtrip_log_grid():
    xs = np.logspace(0, 6, 50)
    for x in xs:
        lx = scaling.gamma_r_log(float(x), 4)
        back = scaling.gamma_r_inv_log(lx, 4)
        assert abs(back - x) <= 1e-9 * max(1.0, x)


def test_gamma_monotone_on_grid():
    xs = np.logspace(0, 6, 200)
    vals = [scaling.gamma_r_log(float(x), 4) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eval_examples():
    assert math.exp(eval_log(INT1, 65536, 1.0)) == pytest.approx(2.0, rel=1e-9)
    assert math.exp(eval_log(POL, 10, 2.0)) == pytest.approx(100.0, rel=1e-12)
    # int2 at 65536: exponent 16/16**0.5 = 4, so 65536**(1/4) = 16
    assert math.exp(eval_log(INT2, 65536, 1.0)) == pytest.approx(16.0, rel=1e-9)


def test_eval_monotone_in_t_and_m():
    for fam in (INT1, INT2, POL, LOG):
        ms = [2**e for e in (20, 40, 80, 160)]
        for t1, t2 in [(0.5, 1.0), (1.0, 2.0)]:
            for m in ms:
                assert eval_log(fam, m, t1) < eval_log(fam, m, t2)
        for t in (0.5, 1.0, 2.0):
            vals = [eval_log(fam, m, t) for m in ms]
            assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eval_domain_errors():
    with pytest.raises(ScaleDomainError):
        eval_log(INT1, 1, 1.0)  # ln m = 0
    with pytest.raises(ScaleDomainError):
        scaling.eval_log(ScalingFamily("int1", 4, 7), 3, 1.0)  # ln3/ln7 < 1


def test_value_identities_at_idealized_sequence():
    qt = idealized_q_sequence(2, 4, 4)  # q~_2 .. q~_5
    for n in (2, 3, 4):
        qn, qn1 = qt[n - 2], qt[n - 1]
        for t in (0.5, 1.0, 2.0):
            assert abs(eval_log(INT1, qn1, t) - t * math.log(qn)) <= 1e-9
            assert abs(eval_log(INT2, qn1, t) - n * n * t * math.log(qn)) <= 1e-9


def test_bracket_identity_at_lq_point():
    # q~_n**((n-1)^r * t / n^r) <= int1(q~_n**(n-1)^r, t) <= q~_n**t
    qt = idealized_q_sequence(2, 4, 3)
    for n in (3, 4):
        qn = qt[n - 2]
        m = qn ** ((n - 1) ** 4)
        for t in (0.5, 1.0, 2.0):
            val = eval_log(INT1, m, t)
            lo = ((n - 1) ** 4) * t * math.log(qn) / n**4
            hi = t * math.log(qn)
            assert lo - 1e-9 <= val <= hi + 1e-9


def test_ordering_table_equal_family_is_one():
    rows = ordering_table(POL, POL, 2.0, 2.0, [10, 100, 1000])
    assert all(r.log_ratio == 0.0 for r in rows)
    assert all(math.exp(r.log_ratio) == 1.0 for r in rows)


def test_ordering_table_requires_increasing_grid():
    with pytest.raises(ValueError):
        ordering_table(POL, POL, 1.0, 1.0, [10, 10])


def test_ordering_monotone_tail_property():
    # final entry is the minimum once the grid extends to the idealized q~_5
    qt = idealized_q_sequence(2, 4, 4)
    grid = [qt[1], qt[1] ** 4, qt[2], qt[2] ** 16, qt[3]]
    pairs = [(LOG, INT1), (INT1, INT2), (INT2, POL)]
    for slow, fast in pairs:
        for t in (0.5, 1.0, 3.0):
            for s in (0.5, 1.0, 3.0):
                vals = [r.log_ratio for r in ordering_table(slow, fast, t, s, grid)]
                assert vals[-1] == min(vals)
                assert vals[-1] < vals[0]


def test_ordering_examples_from_idealized_base():
    # grids starting at q~_2 rise before the crossover; the tail still ends
    # at the global minimum
    qt = idealized_q_sequence(2, 4, 4)
    grid = [qt[0], qt[1], qt[2], qt[3]]
    rows = ordering_table(LOG, INT1, 3.0, 0.5, grid)
    vals = [r.log_ratio for r in rows]
    assert vals[-1] == min(vals)
    assert vals[-1] < vals[-2]
    rows = ordering_table(INT1, INT2, 1.0, 1.0, grid)
    vals = [r.log_ratio for r in rows]
    assert vals[-1] == min(vals)


def ordering_table_csv(rows):
    lines = ["m,log_ratio"]
    for row in rows:
        lines.append(f"{row.m},{row.log_ratio!r}")
    return "\n".join(lines) + "\n"


def test_ordering_csv_format():
    rows = [OrderingRow(10, 0.5), OrderingRow(100, -800.0)]
    text = ordering_table_csv(rows)
    lines = text.splitlines()
    assert lines == ["m,log_ratio", "10,0.5", "100,-800.0"]
