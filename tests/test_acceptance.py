"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here (bit-exact where the backend is
rational, stated float tolerances otherwise).
"""

import json
import random
import time
from fractions import Fraction as F

from kahlercone import (Complex, Membership, cone_contains, cone_sample,
                        curvature_lhs, curvature_rhs, inertia, kahler_metric,
                        norm_identity_check, parse_text,
                        tilde_christoffel_check, tilde_inverse_check,
                        verify_identity, affine_curvature_check,
                        build_tilde_metric)

from _reference import (dense_sides, fd_curvature_lhs, float_oracle_errors,
                        hermitian_inertia, invert_rows)
from _util import (mat_vec, random_cubic, random_cubic_with_cone,
                   random_fraction, random_invertible, run_cli, suite_forms)

POINTS_PER_FORM = 25
SEED = 20240811


def _suite_with_points():
    """Fixed named forms plus seeded random cubics with nonempty cones, n <= 4."""
    rng = random.Random(SEED)
    out = []
    for form, hint in suite_forms():
        pts = cone_sample(form, POINTS_PER_FORM, seed=SEED, hint=hint)
        out.append((form, pts))
    for n in (2, 3, 4):
        form, pts = random_cubic_with_cone(rng, n,
                                           points_needed=POINTS_PER_FORM)
        out.append((form, pts))
    return out


def test_criterion_1_main_identity_exact():
    started = time.perf_counter()
    suite = _suite_with_points()
    checked = 0
    for form, pts in suite:
        assert len(pts) == POINTS_PER_FORM
        for y in pts:
            residual = curvature_lhs(form, y) - curvature_rhs(form, y)
            assert residual.max_abs() == 0, (form.to_text(), y)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1: PASS - curvature identity bit-exact at {checked} "
          f"points across {len(suite)} forms (n<=4) in {elapsed:.1f}s")


def test_criterion_2_univariate_closed_forms():
    form = parse_text("y1^3", 1)
    for y in (F(1), F(2), F(1, 3)):
        assert kahler_metric(form, [y]).g[0, 0] == F(3, 4) / y**2
        assert curvature_lhs(form, [y])[0, 0, 0, 0] == F(3, 8) / y**4
    print("\nACCEPTANCE 2: PASS - n=1 closed forms g=3/(4y^2), R=3/(8y^4) "
          "exact at y in {1, 2, 1/3}")


FD_POINTS = {
    "y1^3": (F(1),),
    "5*y1^3": (F(1),),
    "y1*y2^2": (F(1), F(1)),
    "y1*y2*y3": (F(1), F(1), F(1)),
    # balanced interior point: every coordinate of comparable size
    "y1*y2*y3 + y4^3": (F(3, 2), F(3, 2), F(3, 2), F(-1)),
}


def test_criterion_3_float_and_fd_oracle():
    worst_fd = 0.0
    worst_residual = worst_distance = 0.0
    for form, _ in suite_forms():
        y0 = FD_POINTS[form.to_text()]
        assert cone_contains(form, y0) is Membership.INTERIOR
        norm = float(sum(float(v) ** 2 for v in y0)) ** 0.5
        y = tuple(float(v) / norm for v in y0)  # well-scaled, |y| = 1
        closed = curvature_lhs(form, [F(v).limit_denominator(10**9)
                                      for v in y])
        fd = fd_curvature_lhs(form, y, 1e-4)
        scale = max(abs(float(v)) for v in closed.entries()) or 1.0
        n = form.n
        err = max(abs(fd[i, j, k, l] - float(closed[i, j, k, l])) / scale
                  for i in range(n) for j in range(n)
                  for k in range(n) for l in range(n))
        worst_fd = max(worst_fd, err)
        assert err < 1e-6, form.to_text()
        # the float oracle: its identity residual, and its distance from the
        # exact sides rounded to floats, relative to the larger side
        residual, distance = float_oracle_errors(form, y)
        worst_residual = max(worst_residual, residual)
        worst_distance = max(worst_distance, distance)
        assert residual < 1e-9 and distance < 1e-9, form.to_text()
        # float mode decides exactly and rounds the exact zero residual
        summary = verify_identity(form, [y], mode="float")
        assert summary.overall == "PASS"
        assert summary.points[0].max_rel_residual == 0.0
    print(f"\nACCEPTANCE 3: PASS - FD oracle matches closed form "
          f"(worst rel {worst_fd:.2e} < 1e-6); float oracle identity "
          f"residual (worst rel {worst_residual:.2e} < 1e-9) and distance "
          f"from the exact sides (worst rel {worst_distance:.2e} < 1e-9)")


def test_criterion_4_metric_positive_definite():
    count = 0
    for form, pts in _suite_with_points():
        for y in pts:
            assert inertia(kahler_metric(form, y).g) == (form.n, 0, 0)
            count += 1
    print(f"\nACCEPTANCE 4: PASS - metric inertia (n,0,0) exact at {count} "
          f"interior points")


def test_criterion_5_norm_identity_symbolic():
    rng = random.Random(SEED + 5)
    checked = 0
    for form, _ in suite_forms():
        assert norm_identity_check(form).holds
        checked += 1
    for _ in range(50):
        form = random_cubic(rng, rng.randint(1, 4))
        assert norm_identity_check(form).holds, form.to_text()
        checked += 1
    print(f"\nACCEPTANCE 5: PASS - norm-function identity N = 8f holds "
          f"symbolically for {checked} forms (bit-exact expansion)")


def test_criterion_6_affine_identity_and_kappa():
    kappas = set()
    checked = 0
    for form, pts in _suite_with_points():
        for y in pts[:10]:
            res = affine_curvature_check(form, y)
            assert res.passed and res.max_abs_residual == 0
            kappas.add(res.kappa)
            checked += 1
    assert kappas == {F(-4)}
    print(f"\nACCEPTANCE 6: PASS - affine curvature identity exact at "
          f"{checked} points; calibration kappa = -4 across all forms")


def test_criterion_7_tilde_metric_checks():
    # worked n=1 values
    form1 = parse_text("y1^3", 1)
    tm1 = build_tilde_metric(form1, [Complex(F(0), F(1))], F(1))
    assert tm1.gtilde == [[Complex(F(8)), Complex(F(0), F(-12))],
                          [Complex(F(0), F(12)), Complex(F(12))]]
    assert tm1.gtilde_inv_stated[0][0] == F(-1, 4)
    assert tm1.gtilde_inv_stated[1][1] == F(-1, 6)
    assert hermitian_inertia(tm1.gtilde) == (1, 1, 0)

    rng = random.Random(SEED + 7)
    checked = 0
    for form, hint in suite_forms():
        for y in cone_sample(form, 4, seed=SEED, hint=hint):
            lam = random_fraction(rng, nonzero=True)
            x = [random_fraction(rng) for _ in range(form.n)]
            t = [Complex(a, b) for a, b in zip(x, y)]
            tm = build_tilde_metric(form, t, lam)
            # stated inverse is the exact inverse (product check + oracle)
            assert tilde_inverse_check(tm).passed
            assert tm.gtilde_inv_stated == invert_rows(tm.gtilde)
            # signature: one positive, n negative directions ((n,1,0) as
            # written holds only at n=1, where it reads (1,1,0); see ledger)
            assert hermitian_inertia(tm.gtilde) == (1, form.n, 0)
            # published connection formulas, each reproduced exactly by a
            # documented direct differentiation (dual-scaling report)
            chris = tilde_christoffel_check(tm)
            assert chris.passed
            assert chris.recovery_relation["corrected"]
            checked += 1
    print(f"\nACCEPTANCE 7: PASS - fibre-metric inverse exact, worked n=1 "
          f"values reproduced, connection formulas matched at {checked} "
          f"(point, lambda) pairs; computed signature (1,n,0) [stated "
          f"(n,1,0) holds at the n=1 calibration only - see ledger]")


def test_criterion_8_invariance_suite():
    rng = random.Random(SEED + 8)
    cases = 0

    # parser round trips
    for _ in range(80):
        n = rng.randint(1, 4)
        form = random_cubic(rng, n)
        assert parse_text(form.to_text(), n) == form
        cases += 1

    # homogeneity scalings of g and both curvature sides
    for n in (1, 2, 3):
        form, pts = random_cubic_with_cone(rng, n, points_needed=8)
        for y in pts:
            c = F(rng.randint(1, 9), rng.randint(1, 5))
            cy = [c * v for v in y]
            g, gc = kahler_metric(form, y).g, kahler_metric(form, cy).g
            assert all(gc[i, j] * c**2 == g[i, j]
                       for i in range(n) for j in range(n))
            lhs, lhs_c = curvature_lhs(form, y), curvature_lhs(form, cy)
            rhs, rhs_c = curvature_rhs(form, y), curvature_rhs(form, cy)
            assert all(a * c**4 == b
                       for a, b in zip(lhs_c.entries(), lhs.entries()))
            assert all(a * c**4 == b
                       for a, b in zip(rhs_c.entries(), rhs.entries()))
            cases += 2

    # tensor pair symmetries of each side independently: the packed sides
    # agree at every index with sums that assume no symmetry
    for n in (2, 3):
        form, pts = random_cubic_with_cone(rng, n, points_needed=10)
        for y in pts:
            lhs, rhs = curvature_lhs(form, y), curvature_rhs(form, y)
            want_lhs, want_rhs = dense_sides(form, y)
            assert all(lhs[idx] == want_lhs[idx] for idx in want_lhs)
            assert all(rhs[idx] == want_rhs[idx] for idx in want_rhs)
            cases += 2

    # GL(n, Q) covariance: zero residual is preserved under pullback
    done = 0
    while done < 35:
        n = rng.randint(2, 3)
        form, pts = random_cubic_with_cone(rng, n, points_needed=2)
        a = random_invertible(rng, n)
        pulled = form.pullback(a)
        for y in pts:
            ay = mat_vec(a, y)
            if cone_contains(form, ay) is not Membership.INTERIOR:
                continue
            pre = [F(v) for v in mat_vec(invert_rows(a), ay)]
            res = curvature_lhs(form, ay) - curvature_rhs(form, ay)
            res_p = curvature_lhs(pulled, pre) - curvature_rhs(pulled, pre)
            assert res.max_abs() == 0 and res_p.max_abs() == 0
            done += 1
            cases += 1

    assert cases >= 200
    print(f"\nACCEPTANCE 8: PASS - invariance suite over {cases} random "
          f"cases (round trip, homogeneity, pair symmetries, GL covariance),"
          f" all exact")


def test_criterion_9_cli_determinism_and_exit_codes():
    argv = ["verify", "--form", "y1*y2^2", "--samples", "6", "--seed", "21"]
    code_a, out_a = run_cli(*argv)
    code_b, out_b = run_cli(*argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc["overall"] == "PASS"
    assert all(p["maxAbsResidual"] == "0" for p in doc["points"])

    code_fail, _ = run_cli("verify", "--form", "y1^3", "--points", "1",
                            "--convention", "negated")
    assert code_fail == 1
    code_err, _ = run_cli("validate", "--form", "y1^2")
    assert code_err == 2
    print("\nACCEPTANCE 9: PASS - byte-identical JSON for fixed argv+seed; "
          "exit codes 0/1/2 as specified")
