"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with -s; under plain -v the
test name itself is the criterion line).  Oracle constants were computed
before the build by independent scripts: high-order Gauss-Legendre (400
nodes), a 2000^2 dense grid, a 1e7-sample Monte-Carlo run, and closed-form
series; see the constants at the top.
"""

import json
import math

import numpy as np

import expsys as es
import expsys.cli as cli
from expsys._oscillatory import _digit_moments
from expsys.analysis import FAIL, PASS, periodic_test_battery
from expsys.repdisc import WindowSystem, verify_system_on_window
from expsys.tiling import NOT_TILING

TRIANGULAR_EXP_G10 = 0.1001356804  # pre-build high-order quadrature oracle
FRESNEL_G10 = 0.2984651222  # |int_0^1 e^{2 pi i x^2} dx|, high-order oracle
EXP_OVERLAP_GRID = 0.36788  # 2000^2 dense-grid overlap oracle, k = (1, 0)


def _report(n, ok, msg):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {n}: {msg}"


def unit_box(d=1):
    return es.LebesgueBox([0.0] * d, [1.0] * d)


def sin_unipotent():
    return es.Unipotent(
        shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),),
        dim=2,
    )


def exp_triangular():
    return es.Triangular2D(
        z=lambda t: np.exp(t),
        f=lambda t: np.zeros_like(t),
        K=1.0 - np.exp(-1.0),  # second component vanishes at x2 = 0
    )


def test_criterion_01_classical_onb():
    rep = es.gram(unit_box(), es.Identity(1), es.integer_lattice(1, 32), es.gauss(64))
    _report(
        1,
        rep.max_offdiag <= 1e-12 and rep.diag_dev <= 1e-12,
        f"classical Gram: offdiag {rep.max_offdiag:.2e}, diag {rep.diag_dev:.2e}",
    )


def test_criterion_02_digit_transport_of_unit_interval():
    spectrum = es.lambda4(6)
    rep = es.gram(
        unit_box(), es.binary_to_quaternary(depth=30), spectrum, es.digit(depth=40)
    )
    ok = rep.path == "product-formula" and rep.max_offdiag <= 1e-6

    # digit-enumeration oracle on 20 random entries: the depth-30 digit
    # enumeration on the Cantor-4 measure, which neither samples nor runs the
    # product formula (the digit rule would take the transfer, whose
    # unit-weight recursion is the product formula, at more than 16
    # frequencies); each entry must agree within both error estimates
    rng = np.random.default_rng(1729)
    m = spectrum.size
    i, j = rng.integers(0, m, size=(20, 2)).T
    pts = spectrum.points[:, 0]
    vals, errs = _digit_moments(
        es.middle_fourth_cantor(), None, es.Identity(1), (pts[i] - pts[j])[:, None],
        es.digit(30), [(None, None)],
    )
    k = rep.inverse[i, j]
    dev = np.abs(rep.values[k] - vals[:, 0])
    bound = errs[:, 0] + rep.errors[k] + 1e-12
    ok = ok and bool(np.all(dev <= bound))
    _report(
        2,
        ok,
        f"product-formula Gram offdiag {rep.max_offdiag:.2e}; worst digit-rule "
        f"deviation {dev.max():.2e} on 20 entries, bounds from {bound.min():.2e}",
    )


def test_criterion_03_cantor_measure_transport_agrees():
    spectrum = es.lambda4(6)
    rep4 = es.gram(
        unit_box(), es.binary_to_quaternary(depth=30), spectrum, es.digit(depth=40)
    )
    rep3 = es.gram(
        es.middle_third_cantor(),
        es.ternary_to_quaternary(depth=30),
        spectrum,
        es.digit(depth=40),
    )
    dev = float(np.max(np.abs(rep4.entries - rep3.entries)))
    _report(3, dev <= 1e-6, f"both transports push to the same measure: max dev {dev:.2e}")


def test_criterion_04_unipotent_onb():
    mu = unit_box(2)
    rep = es.verify_onb(
        mu,
        sin_unipotent(),
        es.integer_lattice(2, 8),
        es.gauss(64),
        tol_orth=1e-8,
        tol_complete=0.02,
        test_functions=periodic_test_battery(mu),
    )
    ratios_ok = all(r >= 0.98 for r in rep.parseval_ratios.values())
    _report(
        4,
        rep.verdict == PASS and ratios_ok,
        f"verdict {rep.verdict}; min ratio {min(rep.parseval_ratios.values()):.5f}",
    )


def test_criterion_05_triangular_counterexample():
    mu = unit_box(2)
    phi = exp_triangular()
    spectrum = es.integer_lattice(2, 2)
    onb = es.verify_onb(mu, phi, spectrum, es.gauss(48), tol_orth=1e-8)
    pts = spectrum.points
    i = int(np.where((pts == [1.0, 0.0]).all(axis=1))[0][0])
    j = int(np.where((pts == [0.0, 0.0]).all(axis=1))[0][0])
    entry = abs(onb.gram_report.entries[i, j])

    verdict = es.tiling_verdict(
        phi, ([0.0, 0.0], [1.0, 1.0]), np.eye(2), n=100_000, bins=16, seed=5
    )
    overlap = es.overlap_volume(phi, ([0.0, 0.0], [1.0, 1.0]), [1.0, 0.0], n=200_000, seed=6)
    ok = (
        onb.verdict == FAIL
        and entry >= 0.5 * TRIANGULAR_EXP_G10
        and verdict.tiling == NOT_TILING
        and overlap.volume_est > 5 * overlap.std_err
    )
    _report(
        5,
        ok,
        f"ONB {onb.verdict}; |G_(1,0)| = {entry:.4f} >= {0.5 * TRIANGULAR_EXP_G10:.4f}; "
        f"tiling {verdict.tiling}; overlap {overlap.volume_est:.4f} "
        f"({overlap.volume_est / max(overlap.std_err, 1e-300):.0f} sigma)",
    )


def test_criterion_06_disc_to_square_system():
    pres = es.measure_preservation_check(
        es.Holhos(),
        es.LebesgueDisc([0.0, 0.0], 1.0),
        n=10_000,
        tol=1e-6,
        seed=3,
        exclusion=es.axis_band_exclusion(0.05),
    )
    th = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
    bd = es.Holhos()(np.stack([np.cos(th), np.sin(th)], axis=-1))
    boundary_resid = float(
        np.max(np.abs(np.abs(bd[:, 0]) + np.abs(bd[:, 1]) - math.sqrt(math.pi / 2)))
    )
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    A = np.array([[c, -s], [s, c]]) / math.sqrt(math.pi)
    rep = es.gram(
        es.LebesgueDisc([0.0, 0.0], 1.0),
        es.Holhos(),
        es.lattice(A, 1.2),
        es.adaptive(abs_tol=2e-5, max_subdivisions=600, order=16),
    )
    ok = pres.passed and boundary_resid <= 1e-9 and rep.max_offdiag <= 1e-3
    _report(
        6,
        ok,
        f"preservation dev {pres.max_dev:.2e}; boundary {boundary_resid:.2e}; "
        f"disc Gram offdiag {rep.max_offdiag:.2e}",
    )


def test_criterion_07_frame_bounds_half_interval():
    mu = es.LebesgueBox([0.0], [0.5])
    basis = es.dyadic_indicator_basis(mu, 64)
    rep = es.frame_bounds(
        mu, es.Identity(1), es.integer_lattice(1, 256), basis, es.gauss(24)
    )
    ok = 0.9 <= rep.a_est <= 1.01 and 0.9 <= rep.b_est <= 1.01
    _report(7, ok, f"A = {rep.a_est:.4f}, B = {rep.b_est:.4f} (tight frame bound 1)")


def test_criterion_08_square_phase_negative_instance():
    phi = es.CustomPhase(lambda p: p[:, 0] ** 2, 1, 1)
    spectrum = es.integer_lattice(1, 8)
    rep = es.verify_onb(unit_box(), phi, spectrum, es.gauss(64), tol_orth=1e-8)
    pts = spectrum.points[:, 0]
    i = int(np.where(pts == 1.0)[0][0])
    j = int(np.where(pts == 0.0)[0][0])
    entry = abs(rep.gram_report.entries[i, j])
    ok = rep.verdict == FAIL and entry >= FRESNEL_G10 - 1e-8
    _report(8, ok, f"ONB {rep.verdict}; |G_(1,0)| = {entry:.10f} vs oracle {FRESNEL_G10}")


def test_criterion_09_group_discretizations():
    # nilpotent 1-parameter family: all blocks identity within 1e-10
    heis = WindowSystem(
        omega_lo=[0.0],
        omega_hi=[1.0],
        gamma_set=[[float(g)] for g in range(-2, 3)],
        spectrum=es.explicit([[0.0, float(k)] for k in range(-8, 9)]),
        phase=es.phase_from_group(es.heisenberg_group()),
    )
    heis_rep = verify_system_on_window(
        heis, ([-2.0], [3.0]), mode="onb", quad=es.gauss(48), tol=1e-10
    )

    # polynomial-phase family: windowed ONB PASS
    poly = WindowSystem(
        omega_lo=[0.0, 0.0],
        omega_hi=[1.0, 1.0],
        gamma_set=[[float(a), float(b)] for a in range(-2, 3) for b in range(-2, 3)],
        spectrum=es.explicit(
            [
                [0.0, float(k1), float(k2)]
                for k1 in range(-4, 5)
                for k2 in range(-4, 5)
            ]
        ),
        phase=es.phase_from_group(es.poly2d_group()),
    )
    poly_rep = verify_system_on_window(
        poly, ([-2.0, -2.0], [3.0, 3.0]), mode="onb", quad=es.gauss(48), tol=1e-10
    )

    # affine family: pushforward of Lebesgue[-1, 1] follows the dx/x law
    mu = es.LebesgueBox([-1.0], [1.0])
    pf = es.pushforward(mu, es.phase_from_group(es.axb_group()))
    pts = np.sort(es.sample(pf, 10**5, seed=17)[:, 0])
    cdf = (np.log(pts) + 1.0) / 2.0
    emp = np.arange(1, pts.size + 1) / pts.size
    ks = max(
        float(np.max(np.abs(emp - cdf))),
        float(np.max(np.abs(emp - 1.0 / pts.size - cdf))),
    )
    ok = (
        heis_rep.verdict == PASS
        and heis_rep.block.max_offdiag <= 1e-10
        and poly_rep.verdict == PASS
        and ks <= 0.01
    )
    _report(
        9,
        ok,
        f"nilpotent blocks offdiag {heis_rep.block.max_offdiag:.2e}; polynomial ONB "
        f"{poly_rep.verdict}; affine pushforward KS {ks:.4f}",
    )


def test_criterion_10_beurling_densities():
    spec2 = es.lattice(np.eye(2), 48)
    rep = es.beurling_density(
        spec2, [10.0, 20.0, 40.0], centers_box=([-3.0, -3.0], [3.0, 3.0]),
        n_centers=300, seed=4,
    )
    ok = all(
        abs(dp - 1.0) <= 2.0 / R and abs(dm - 1.0) <= 2.0 / R
        for R, dp, dm in zip(rep.windows, rep.d_plus, rep.d_minus)
    )
    counts_ok = all(
        es.window_count(es.lambda4(8), [0.0], [float(4**n)]) == 2**n
        for n in range(1, 9)
    )
    _report(
        10,
        ok and counts_ok,
        f"lattice densities {[round(v, 3) for v in rep.d_plus]}; "
        "four-adic window counts exact for n <= 8",
    )


def test_criterion_11_cross_cutting_properties():
    # pushforward equivalence of the Gram
    ok = True
    for mu, phi, spectrum, quad in (
        (unit_box(), es.binary_to_quaternary(30), es.lambda4(4), es.digit(40)),
        (unit_box(2), sin_unipotent(), es.integer_lattice(2, 2), es.gauss(48)),
    ):
        direct = es.gram(mu, phi, spectrum, quad)
        pushed = es.gram(
            es.pushforward(mu, phi), es.Identity(phi.out_dim), spectrum, quad
        )
        dev = float(np.max(np.abs(direct.entries - pushed.entries)))
        ok = ok and dev <= direct.quad_error + pushed.quad_error + 1e-12

    # unimodular conjugation identity
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    base = es.gram(unit_box(2), sin_unipotent(), es.integer_lattice(2, 4), es.gauss(64))
    dev_conj = es.unimodular_conjugation_check(
        unit_box(2), sin_unipotent(), M, 4, es.gauss(64)
    )
    ok = ok and dev_conj <= 2 * max(base.quad_error, 1e-13)

    # Gram hermiticity across paths
    for rep in (
        base,
        es.gram(es.middle_fourth_cantor(), es.Identity(1), es.lambda4(4), es.digit(40)),
    ):
        ok = ok and rep.hermiticity_residual <= 10 * max(rep.quad_error, 1e-15)

    # Bessel sanity on truncations of a verified spectrum
    from expsys.analysis import TestFunction as TFn

    for radius in (8, 16):
        rep = es.verify_onb(
            unit_box(),
            es.Identity(1),
            es.integer_lattice(1, radius),
            es.gauss(64),
            test_functions=[TFn("x", lambda p: p[:, 0], norm_sq=1.0 / 3.0)],
        )
        bound = 1.0 + 10 * max(rep.gram_report.quad_error, 1e-14)
        ok = ok and all(r <= bound for r in rep.parseval_ratios.values())

    # determinism under fixed seeds, CLI report level
    code1 = cli.run(["tiling-check", "--preset", "unipotent-tiling", "--out", "/tmp/acc_a.json"])
    code2 = cli.run(["tiling-check", "--preset", "unipotent-tiling", "--out", "/tmp/acc_b.json"])
    rep_a = json.loads(open("/tmp/acc_a.json").read())
    rep_b = json.loads(open("/tmp/acc_b.json").read())
    ok = (
        ok
        and code1 == code2
        and cli.serialize_report(rep_a) == cli.serialize_report(rep_b)
    )
    _report(
        11,
        ok,
        "pushforward-equivalence, unimodular conjugation, hermiticity, "
        "Bessel sanity, determinism",
    )
