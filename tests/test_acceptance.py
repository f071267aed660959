"""Acceptance gate: eleven numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete; a plain pytest run reports them as ordinary test
outcomes.  All tolerances are pinned here as constants.
"""
import numpy as np
import pytest

from carnotreach import (
    adjoint,
    attainability,
    boundary_atlas,
    group,
    probability,
    second_order,
    words,
)
from carnotreach.words import PqrPoint, Word, pair_axis

from test_adjoint import random_triangle_covector
from test_second_order import six_arc_extremal

EXACT_TOL = 1e-12
ROUNDTRIP_TOL = 1e-8
RATIO_TOL = 1e-8
SWITCH_REL_TOL = 1e-10
MAXMIN_TOL = 1e-4
PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} {label} failed"


def _random_element(rng) -> group.GroupElement:
    return group.GroupElement.of(rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3))


def _close(a, b, tol):
    return all(abs(u - v) <= tol for u, v in zip(a.x + a.y, b.x + b.y))


def test_criterion_01_group_axioms():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(10_000):
        a, b, c = (_random_element(rng) for _ in range(3))
        ok &= _close(
            group.multiply(group.multiply(a, b), c),
            group.multiply(a, group.multiply(b, c)),
            EXACT_TOL,
        )
        ok &= group.multiply(a, group.identity()) == a
        ok &= group.multiply(group.identity(), a) == a
        ok &= _close(group.multiply(a, group.inverse(a)), group.identity(), EXACT_TOL)
    _report(1, "group axioms", ok)


def test_criterion_02_word_calculus():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(10_000):
        w = words.random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        v = words.random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        lhs = words.endpoint(words.concat(w, v))
        rhs = group.multiply(words.endpoint(w), words.endpoint(v))
        ok &= _close(lhs, rhs, EXACT_TOL)
        total = words.pqr(w).as_array() + words.pqr(words.reverse(w)).as_array()
        ok &= np.abs(total - 1.0).max() <= EXACT_TOL
        ok &= abs(sum(words.endpoint(w).x) - w.total_duration) <= EXACT_TOL
    _report(2, "word calculus", ok)


def test_criterion_03_vertices_and_diagonals():
    expected = {
        "A1": (1, 0, 0),
        "B2": (0, 1, 0),
        "C1": (0, 0, 1),
        "A2": (1, 0, 1),
        "C2": (0, 1, 1),
        "D1": (1, 1, 0),
    }
    got = {
        v.id: (v.point().p, v.point().q, v.point().r) for v in boundary_atlas.vertices()
    }
    ok = got == expected

    diagonals = [
        p for p in boundary_atlas.edge_families() if p.kind == "diagonal-edge"
    ]
    for patch in diagonals:
        i, j = (int(c) for c in patch.id.split("-")[1])
        axis, sign = pair_axis(i, j)  # the family lies on the facet P(i before j) = 1
        value = 1.0 if sign > 0 else 0.0
        for a in np.linspace(0.0, 1.0, 1000 // len(diagonals) + 1):
            x = patch.point(a).as_array()
            others = [x[d] for d in range(3) if d != axis]
            ok &= abs(x[axis] - value) <= EXACT_TOL
            ok &= abs(sum(others) - 1.0) <= EXACT_TOL
    _report(3, "vertices and diagonals", ok)


def test_criterion_04_quadric_identities():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(10_000):
        a, b = rng.uniform(0.0, 1.0, 2)
        even = Word.of([(1, a), (2, b), (3, 1), (1, 1 - a), (2, 1 - b)])
        pt = words.pqr(words.canonicalize(even))
        ok &= abs(pt.p + pt.q * pt.r - 1.0) <= EXACT_TOL
        odd = Word.of([(2, a), (1, b), (3, 1), (2, 1 - a), (1, 1 - b)])
        pt = words.pqr(words.canonicalize(odd))
        ok &= abs((1 - pt.p) + (1 - pt.q) * (1 - pt.r) - 1.0) <= EXACT_TOL
    _report(4, "quadric identities", ok)


def test_criterion_05_golden_point():
    a = (3.0 - np.sqrt(5.0)) / 2.0
    w = Word.of([(1, a), (2, 1 - a), (3, 1), (1, 1 - a), (2, a)])
    pt = words.pqr(w)
    ok = max(abs(pt.p - PHI), abs(pt.q - PHI), abs(pt.r - PHI)) <= EXACT_TOL

    val, _ = attainability.max_min_coordinate(max_arcs=8)
    ok &= abs(val - 0.6180340) <= MAXMIN_TOL

    # the point 1e-3 outward along the diagonal is certified unattainable
    outward = attainability.fit(PqrPoint(*(PHI + 1e-3 / np.sqrt(3.0) * np.ones(3))))
    ok &= outward.status == "not-found" and outward.certificate == "golden-bound"
    _report(5, "golden ratio point", ok)


def test_criterion_06_casimir_and_switching_times():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(1000):
        a = adjoint.AdjointCovector.of(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        letters = rng.integers(1, 4, 6)
        b = adjoint.adjoint_flow(a, Word.of(zip(letters, rng.uniform(0, 2, 6))))
        c0, c1 = adjoint.casimir(a), adjoint.casimir(b)
        ok &= abs(c1 - c0) <= EXACT_TOL * max(1.0, abs(c0))

    for _ in range(1000):
        a = random_triangle_covector(rng)
        taus = adjoint.switching_times(a)
        word, _ = adjoint.synthesize(a, 3.0 * sum(taus))
        for letter, dur in word.arcs[1:-1]:
            tau = taus[letter - 1]
            ok &= abs(dur - tau) <= SWITCH_REL_TOL * max(1.0, tau)
    _report(6, "Casimir and switching times", ok)


def test_criterion_07_second_order_test():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(1000):
        a, word = six_arc_extremal(rng)
        report = second_order.ag_test(word, a)
        ok &= report.verdict == "not-optimal"
        ok &= report.W_basis.shape[1] == 1
        if not ok:
            break
        alpha = report.W_basis[:, 0]
        durs = [t for _, t in word.arcs]
        tau2, tau3, tau4 = durs[1], durs[2], durs[3]
        expected = np.array(
            [-tau4 / tau3, -tau2 / tau3, -1.0, tau4 / tau3, tau2 / tau3, 1.0]
        )
        expected = expected * (alpha[5] / expected[5])
        ok &= np.abs(alpha - expected).max() <= RATIO_TOL
    _report(7, "second-order non-optimality", ok)


def test_criterion_08_facet_slice_laws():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100_000):
        arcs = [
            (3, rng.uniform(0.05, 1.0)),
            (2, rng.uniform(0.0, 1.0)),
            (3, rng.uniform(0.0, 1.0)),
            (2, rng.uniform(0.0, 1.0)),
            (1, 1.0),
            (2, rng.uniform(0.0, 1.0)),
        ]
        w = words.to_section(words.canonicalize(Word.of(arcs)))
        pt = words.pqr(w)
        ok &= abs(pt.r - 1.0) <= EXACT_TOL
        ok &= pt.p + pt.q <= 1.0 + EXACT_TOL
        rev = words.pqr(words.reverse(w))
        ok &= abs(rev.r) <= EXACT_TOL
        ok &= rev.p + rev.q >= 1.0 - EXACT_TOL
    _report(8, "facet slice laws", ok)


def test_criterion_09_solver_round_trip_and_dice():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(1000):
        w = words.random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        result = attainability.fit(
            words.pqr(w), tol=ROUNDTRIP_TOL, n_starts=8, seed=int(rng.integers(2**31))
        )
        ok &= result.status == "attained" and result.residual <= ROUNDTRIP_TOL

    rng = np.random.default_rng(109)
    for _ in range(1000):
        dice = probability.random_dice_triple(4, rng)
        result = attainability.fit(probability.dice_pqr(*dice), n_starts=8, seed=0)
        ok &= result.status == "attained"
    _report(9, "solver round trip and dice", ok)


def test_criterion_10_counterexample_regression():
    # (1, 1/2, 1/2): p + qr = 1.25 > 1, yet attained by a diagonal word
    w1 = Word.of([(3, 0.5), (1, 1), (2, 1), (3, 0.5)])
    pt1 = words.pqr(w1)
    ok = (pt1.p, pt1.q, pt1.r) == (1.0, 0.5, 0.5)
    ok &= pt1.p + pt1.q * pt1.r > 1.0
    r1 = attainability.fit(PqrPoint(1.0, 0.5, 0.5), seed=10)
    ok &= r1.status == "attained" and r1.residual <= ROUNDTRIP_TOL

    # (0.3, 0.3, 1): r + pq = 1.09 > 1, yet attained by a facet word
    w2 = Word.of([(3, 0.4), (2, 0.5), (3, 0.6), (2, 0.2), (1, 1), (2, 0.3)])
    pt2 = words.pqr(w2)
    ok &= max(abs(pt2.p - 0.3), abs(pt2.q - 0.3), abs(pt2.r - 1.0)) <= EXACT_TOL
    ok &= pt2.r + pt2.p * pt2.q > 1.0
    r2 = attainability.fit(PqrPoint(0.3, 0.3, 1.0), seed=10)
    ok &= r2.status == "attained" and r2.residual <= ROUNDTRIP_TOL
    _report(10, "counterexample regression", ok)


def _is_cyclic(letters) -> bool:
    # i j k i j ...: three distinct letters, repeated with period 3
    return len(set(letters[:3])) == 3 and all(l == m for l, m in zip(letters, letters[3:]))


def test_criterion_11_switching_census():
    # Finding G: cut the word of a cyclic-regime covector (h12, h23, h31 of
    # one sign) inside arc n; cuts of 6+ arcs are not optimal, cuts of 3-5
    # arcs are inconclusive, and every cut of 4+ arcs is cyclic
    rng = np.random.default_rng(2026)
    ok, lengths = True, set()
    for _ in range(600):
        h = rng.uniform(-1.0, 1.0, 3)
        h[rng.integers(3)] = 1.0
        h12, h23, h31 = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0, 3)
        a = adjoint.AdjointCovector.of(h, (h12, -h31, h23))
        n = int(rng.integers(3, 13))
        long_word, _ = adjoint.synthesize(a, 50.0)
        if len(long_word.arcs) < n:
            continue
        durs = [t for _, t in long_word.arcs]
        word, regime = adjoint.synthesize(a, sum(durs[: n - 1]) + 0.5 * durs[n - 1])
        ok &= regime.kind == "bang-bang" and len(word.arcs) == n
        verdict = second_order.ag_test(word, a).verdict
        ok &= verdict == ("not-optimal" if n >= 6 else "inconclusive")
        ok &= n < 4 or _is_cyclic([l for l, _ in word.arcs])
        lengths.add(n)
    ok &= lengths == set(range(3, 13))
    _report(11, "switching census", ok)
