import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from jcas_regions import (
    DomainError,
    EmptyGrid,
    InputDesign,
    closed_form_point,
    closed_form_sweep,
    crosscheck,
    exact_region_degraded_ps,
    make_binary_multiplicative,
    outer_bound_ps,
    separation_baseline,
)
from jcas_regions import channel
from conftest import closed_form_ps


def hb(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_reference_point():
    pt = closed_form_point(0.5, 0.5, 0.5)
    # min(0.25 + 0.375 * Hb(1/3), 0.5) = 0.5; distortions scale with 1 - p
    assert pt.r == pytest.approx(0.5, abs=1e-15)
    assert pt.d1 == pytest.approx(0.25, abs=1e-15)
    assert pt.d2 == pytest.approx(0.125, abs=1e-15)


def test_degenerate_limits():
    for alpha in (0.0, 0.3, 1.0):
        for p in (0.0, 0.4, 1.0):
            pt = closed_form_point(0.0, alpha, p)
            assert pt.r == 0.0 and pt.d1 == 0.0 and pt.d2 == 0.0
    for q in (0.2, 0.8, 1.0):
        assert closed_form_point(q, 1.0, 0.6).r == 0.0
    for q, alpha in ((0.3, 0.4), (0.9, 0.9)):
        assert closed_form_point(q, alpha, 0.0).r == 0.0
        end = closed_form_point(q, alpha, 1.0)
        assert end.r == 0.0 and end.d1 == 0.0 and end.d2 == 0.0


def test_rate_capped_by_sensing_free_rate():
    for q in (0.1, 0.5, 0.9):
        for alpha in (0.0, 0.4, 1.0):
            for p in (0.1, 0.5, 0.9):
                pt = closed_form_point(q, alpha, p)
                assert pt.r <= q * hb(p) + 1e-15


def test_second_argument_symmetric_in_p():
    for q in (0.2, 0.7):
        for p in (0.1, 0.3, 0.45):
            assert q * hb(p) == pytest.approx(q * hb(1 - p), abs=1e-15)


def test_distortion_ordering_conditional():
    for q in (0.2, 0.5, 0.8):
        for alpha in (0.1, 0.5, 0.9):
            for p in (0.0, 0.3, 0.7):
                pt = closed_form_point(q, alpha, p)
                if min(q * alpha, 1 - q * alpha) <= min(q, 1 - q):
                    assert pt.d2 <= pt.d1 + 1e-15


def test_domain_errors():
    with pytest.raises(DomainError):
        closed_form_point(1.1, 0.5, 0.5)
    with pytest.raises(DomainError):
        closed_form_point(0.5, 0.5, -0.2)
    for bad in (float("nan"), float("inf"), float("-inf"), -0.1, 1.1):
        for args in ((bad, 0.5, 0.5), (0.5, bad, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(DomainError):
                closed_form_point(*args)
    for tol in (-1e-9, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            crosscheck(0.5, 0.5, 0.5, tol)


def test_sweep_structure():
    pts = closed_form_sweep(0.4, 0.6, 64)
    assert len(pts) == 65
    assert pts[0].p == 0.0 and pts[-1].p == 1.0
    assert pts[0].r == 0.0 and pts[-1].r == 0.0
    assert all(a.p < b.p for a, b in zip(pts, pts[1:]))
    assert any(pt.p == 0.5 for pt in pts)
    with pytest.raises(EmptyGrid):
        closed_form_sweep(0.4, 0.6, 1)


def test_baseline_endpoints():
    pts = separation_baseline(0.5, 0.5, 8)
    assert pts[0].lam == 0.0
    assert pts[0].r == 0.0 and pts[0].d1 == 0.0 and pts[0].d2 == 0.0
    top = pts[-1]
    assert top.lam == 1.0
    # the max-rate operating point for q = alpha = 0.5 sits at p = 0.5
    assert top.p == 0.5
    assert top.r == pytest.approx(0.5, abs=1e-12)


def test_baseline_strictly_dominated_at_half():
    base = [pt for pt in separation_baseline(0.5, 0.5, 8) if pt.lam == 0.5][0]
    sweep = closed_form_sweep(0.5, 0.5, 256)
    margins = [pt.r - base.r for pt in sweep
               if pt.d1 <= base.d1 + 1e-15 and pt.d2 <= base.d2 + 1e-15]
    best = max(margins)
    assert best > 0.0
    print(f"separation gap at lambda=0.5: {best:.6f} bits")


def test_crosscheck_reference_and_degenerate():
    assert crosscheck(0.5, 0.5, 0.5, 1e-9).passed
    rep = crosscheck(0.0, 0.3, 0.6, 1e-9)
    assert rep.passed
    assert rep.closed_form == (0.0, 0.0, 0.0)
    assert rep.region == (0.0, 0.0, 0.0)


def test_crosscheck_zero_tolerance_is_honest():
    # tol=0 is a negative control: agreement is only up to rounding, so we
    # require tiny deviation but do not insist the strict comparison passes
    rep = crosscheck(0.3, 0.7, 0.4, 0.0)
    assert rep.max_abs_dev <= 1e-12


def test_crosscheck_lattice_17():
    for i in range(17):
        for k in range(17):
            for m in range(17):
                rep = crosscheck(i / 16, k / 16, m / 16, 1e-9)
                assert rep.passed, (i / 16, k / 16, m / 16, rep.max_abs_dev)


def test_crosscheck_reports_do_not_depend_on_call_order():
    # the spec cache and the residuals kept on each spec must not change a
    # bit: a sorted lattice from a cold cache on every call against the
    # same lattice shuffled on a warm cache (repr tells -0.0 from 0.0)
    lattice = list(itertools.product([k / 8 for k in range(9)], repeat=3))
    cold = {}
    for q, alpha, p in lattice:
        channel._binary_multiplicative.cache_clear()
        cold[q, alpha, p] = repr(crosscheck(q, alpha, p, 1e-9))
    random.Random(3).shuffle(lattice)
    warm = {(q, alpha, p): repr(crosscheck(q, alpha, p, 1e-9))
            for q, alpha, p in lattice}
    assert warm == cold


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(*[st.floats(0.0, 1.0)] * 3)
@example(0.5, 0.5, 0.5)
@example(1.0, 1.0, 0.5)
@example(0.5, 0.0, 1.0)
def test_ps_rows_at_v_equal_x_fill_the_closed_form_polytope(q, alpha, p):
    # every row lies in {r1 <= A, r2 <= C, r1 + r2 <= A}, and the rows reach
    # r1 = A and r2 = min(C, A)
    a, c = closed_form_ps(q, alpha, p)
    spec = make_binary_multiplicative(q, alpha)
    for evaluate in (exact_region_degraded_ps, outer_bound_ps):
        rows = evaluate(spec, InputDesign(p_x=[1.0 - p, p]))
        for pt in rows:
            assert pt.r1 <= a + 1e-12 and pt.r2 <= c + 1e-12, (evaluate, pt)
            assert pt.r1 + pt.r2 <= a + 1e-12, (evaluate, pt)
        assert max(pt.r1 for pt in rows) == pytest.approx(a, abs=1e-12)
        assert max(pt.r2 for pt in rows) == pytest.approx(min(c, a), abs=1e-12)
