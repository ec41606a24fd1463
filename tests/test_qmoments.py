"""Contour-integral moment formulas against enumeration, MC, and each other."""

import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexflow import qmoments
from vertexflow.contours import build_contours, build_contours_beta
from vertexflow.errors import ParameterRangeError, UnsupportedRegimeError, ValidationError
from vertexflow.hecke import Permutation, PointFunction, apply_T_pi
from vertexflow.lattice import ModelParams, SkewDomain, UpLeftPath, rectangle_domain
from vertexflow.qmoments import (
    MomentQuery,
    PairingIntegrand,
    _contract,
    _cross_approx,
    _ranked,
    beta_moment,
    iterated_integral,
    pairing_values,
    qmoment_higher_spin,
    qmoment_higher_spin_kappa,
    qmoment_higher_spin_multi,
    qmoment_qhahn,
    qmoment_skew,
    qmoment_skew_multi,
    ratio_product,
    shifted_observable,
)
from vertexflow.sampler import (
    beta_first_moment,
    enumerate_higher_spin,
    enumerate_sc6v,
    sample_higher_spin,
    simulate_beta_polymer,
)

NODES = 64


def ramp(a):
    return max(a, 0)


def ramp_values(zetas, fs, ls, pis, q, nodes=NODES):
    """Prop 4.2 iterated integral for every pi, via the pairing engine."""
    k = len(fs)
    phi = [ratio_product(zetas[:l], [q * t for t in zetas[:l]]) for l in ls]
    psi = [ratio_product([q * t for t in zetas[:f]], zetas[:f]) for f in fs]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], k, q)
    integrand = PairingIntegrand([(1.0, phi)], psi, [(1.0, pi) for pi in pis], "q")
    raw = pairing_values(fam, integrand, q, nodes_per_circle=nodes, tol=1e-11)
    return {pi.images: q ** (k * (k - 1) / 2 - pi.length()) * raw[pi.images].value
            for pi in pis}


# ---------------------------------------------------------------------------
# pairing basics and the base case
# ---------------------------------------------------------------------------


def test_residue_of_constant_is_one():
    q = 0.4
    fam = build_contours([1.0], [1 / q], 1, q)
    res = iterated_integral(PointFunction(1, lambda w: np.ones_like(w[0])), fam,
                            nodes_per_circle=32, q=q)
    assert abs(res.value - 1) < 1e-12  # only the measure pole at 0 contributes


def test_base_case_spec_example():
    # k=1, f=2, l=1, zeta=(1,2): value q^{R(2-1)} = q (q away from zeta_i = q zeta_j)
    q = 0.37
    vals = ramp_values([1.0, 2.0], [2], [1], [Permutation.identity(1)], q)
    assert abs(vals[(1,)] - q) < 1e-9


def test_base_case_random_ramp_oracle():
    rng = random.Random(42)
    for _ in range(8):
        k = rng.choice([1, 2, 3])
        q = rng.uniform(0.2, 0.42)
        fs = sorted((rng.randint(0, 4) for _ in range(k)), reverse=True)
        ls = sorted(rng.randint(0, 4) for _ in range(k))
        zetas = [rng.uniform(1.0, 1.3) for _ in range(max([1] + fs + ls))]
        vals = ramp_values(zetas, fs, ls, Permutation.all(k), q, nodes=96)
        for pi in Permutation.all(k):
            want = q ** sum(ramp(fs[pi(a + 1) - 1] - ls[a]) for a in range(k))
            assert abs(vals[pi.images] - want) < 1e-9


def test_mesh_route_agrees_with_factored_engine():
    q = 0.4
    zetas = [1.1, 1.4]
    fs, ls = [2, 1], [0, 1]
    phi = [ratio_product(zetas[:l], [q * t for t in zetas[:l]]) for l in ls]
    psi = [ratio_product([q * t for t in zetas[:f]], zetas[:f]) for f in fs]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], 2, q)
    pi = Permutation((2, 1))
    tphi = apply_T_pi(pi, PointFunction.from_per_variable(phi), q=q)
    full = PointFunction(2, lambda w: tphi(w) * psi[0](w[0]) * psi[1](w[1]))
    mesh = iterated_integral(full, fam, nodes_per_circle=64, q=q)
    fast = ramp_values(zetas, fs, ls, [pi], q)[pi.images]
    assert abs(q ** (1 - pi.length()) * mesh.value - fast) < 1e-9


def test_self_adjointness_of_T_under_pairing():
    # <T_pi Phi, Psi> = <Phi, T_{pi^{-1}} Psi> (pairing symmetric in Phi*Psi)
    q = 0.35
    zetas = [1.08, 1.14, 1.2]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], 3, q)
    phi_fs = [ratio_product([0.4], [q * 0.4]), ratio_product([0.55], [q * 0.55]),
              ratio_product([0.3], [q * 0.3])]
    psi_fs = [ratio_product([q * z], [z]) for z in zetas]
    for pi in Permutation.all(3):
        lhs = pairing_values(fam, PairingIntegrand([(1.0, phi_fs)], psi_fs, [(1.0, pi)], "q"),
                             q, nodes_per_circle=48, tol=1e-11)[pi.images].value
        inv = pi.inverse()
        rhs = pairing_values(fam, PairingIntegrand([(1.0, psi_fs)], phi_fs, [(1.0, inv)], "q"),
                             q, nodes_per_circle=48, tol=1e-11)[inv.images].value
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# Theorem: skew-domain moments
# ---------------------------------------------------------------------------


def compare_skew(domain, params, points, colors, nodes=NODES, tol=1e-8):
    ens = enumerate_sc6v(domain, params)
    pis = Permutation.all(len(points))
    vals = qmoment_skew_multi(domain, params, points, colors, pis, nodes_per_circle=nodes)
    worst = 0.0
    for pi in pis:
        exact = ens.moment(points, pi.act(colors), params.q)
        worst = max(worst, abs(vals[pi.images].value - exact))
    assert worst < tol, worst
    return worst


def test_skew_trivial_color_gives_one():
    params = ModelParams(q=0.35, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom = rectangle_domain(1, 1, (0, 1))
    res = qmoment_skew(dom, params, MomentQuery([(1.5, 1.5)], [5]), nodes_per_circle=32)
    assert abs(res.value - 1) < 1e-10


def test_skew_one_by_one_example():
    q, z = 0.35, 2.0
    params = ModelParams(q=q, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom = rectangle_domain(1, 1, (0, 1))
    res = qmoment_skew(dom, params, MomentQuery([(1.5, 1.5)], [0]), nodes_per_circle=32)
    want = q * (z - 1) / (z - q) + (1 - q) / (z - q)
    assert abs(res.value - want) < 1e-9


def test_skew_matches_enumeration_2x2():
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    compare_skew(dom, params, [(1.5, 2.5), (2.5, 1.5)], [0, 1])
    compare_skew(dom, params, [(1.5, 2.5), (2.5, 1.5), (2.5, 1.5)], [0, 0, 1])


def test_skew_matches_enumeration_staircase():
    qp = UpLeftPath.from_floats((3.5, 0.5), "HVHHVV")
    pp = UpLeftPath.from_floats((3.5, 0.5), "VVHVHH")
    dom = SkewDomain(qp, pp, (0, 1, 1, 2, 3, 3))
    params = ModelParams(q=0.33, row_rapidities=(2.0, 2.1, 2.25),
                         col_rapidities=(1.0, 1.05, 1.1))
    compare_skew(dom, params, [(2.5, 2.5), (3.5, 1.5)], [1, 2])


def test_skew_query_validation():
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    with pytest.raises(ValidationError):  # point off P
        qmoment_skew(dom, params, MomentQuery([(1.5, 1.5)], [0]))
    with pytest.raises(ValidationError):  # colors not monotone
        MomentQuery([(1.5, 2.5), (2.5, 1.5)], [1, 0])
    with pytest.raises(ValidationError):  # alphas not nondecreasing
        qmoment_skew(dom, params, MomentQuery([(2.5, 1.5), (1.5, 2.5)], [0, 1]))


def test_local_relation_propagation_prop_5_2():
    # corner removal on the 2x2 rectangle: three-term relation among moments
    q = 0.3
    params = ModelParams(q=q, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    dom_p = SkewDomain(dom.q_path, UpLeftPath((5, 1), "VHVH"), dom.coloring)
    z = 2.2 / 1.12
    iden, s1 = Permutation.identity(2), Permutation((2, 1))

    def mom(domain, pts, cols, pi):
        return qmoment_skew(domain, params, MomentQuery(pts, cols, pi),
                            nodes_per_circle=NODES).value

    for cols in ([0, 1], [1, 2]):
        lhs = mom(dom, [(2.5, 2.5), (2.5, 2.5)], cols, iden)
        rhs = (q - q**2 * z) / (q - z) * mom(dom_p, [(2.5, 1.5), (2.5, 1.5)], cols, iden)
        for i, pi in ((0, iden), (1, s1)):
            rhs += (q * z - 1) / (q - z) * q**i * mom(dom_p, [(1.5, 1.5), (2.5, 1.5)], cols, pi)
            rhs += (1 - z) / (q - z) * q**i * mom(dom_p, [(1.5, 2.5), (2.5, 1.5)], cols, pi)
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# higher-spin moments
# ---------------------------------------------------------------------------


HS = ModelParams(q=0.5, row_rapidities=(5.0, 6.0), col_rapidities=(1.0, 1.1),
                 col_spins=(4.0, 4.0), boundary_levels=(1, 2))


def test_higher_spin_matches_enumeration():
    ens = enumerate_higher_spin(HS, (2, 2))
    cases = [([(1.5, 2.5)], [0]), ([(2.5, 1.5)], [1]),
             ([(1.5, 2.5), (2.5, 1.5)], [0, 1])]
    for pts, cols in cases:
        for pi in Permutation.all(len(pts)):
            got = qmoment_higher_spin(HS, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
            want = ens.moment(pts, pi.act(cols), HS.q)
            assert abs(got.value - want) < 1e-8


def test_higher_spin_unfused_equals_skew():
    q = 0.36
    par_hs = ModelParams(q=q, row_rapidities=(3.0, 3.4), col_rapidities=(1.0, 1.2),
                         col_spins=(q**-0.5, q**-0.5), boundary_levels=(1, 2))
    par_6v = ModelParams(q=q, row_rapidities=(3.0, 3.4),
                         col_rapidities=(q**-0.5, q**-0.5 * 1.2), boundary_levels=(1, 2))
    from vertexflow.sampler import sc6v_quadrant_domain

    dom = sc6v_quadrant_domain(2, 2, par_6v)
    for pts, cols in [([(1.5, 2.5)], [0]), ([(1.5, 2.5), (2.5, 1.5)], [0, 1])]:
        for pi in Permutation.all(len(pts)):
            a = qmoment_higher_spin(par_hs, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
            b = qmoment_skew(dom, par_6v, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
            assert abs(a.value - b.value) < 1e-8


def test_higher_spin_kappa_route_agrees():
    pts, cols = [(1.5, 2.5), (2.5, 1.5)], [0, 1]
    for pi in Permutation.all(2):
        a = qmoment_higher_spin(HS, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
        b = qmoment_higher_spin_kappa(HS, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
        assert abs(a.value - b.value) < 1e-9


def test_higher_spin_kappa_route_agrees_at_k3():
    # the k = 3 mesh path of the kappa route, against Theorem 8.1's factored engine
    query = MomentQuery([(1.5, 2.5), (2.5, 2.5), (2.5, 1.5)], [0, 1, 2], Permutation((3, 2, 1)))
    a = qmoment_higher_spin(HS3, query)
    b = qmoment_higher_spin_kappa(HS3, query)
    assert abs(a.value - b.value) < 1e-9


def test_higher_spin_permutation_consistency():
    # equal multiset {(alpha_pi(i), beta_pi(i), c_i)} -> equal expectations
    pts = [(1.5, 2.5), (2.5, 1.5)]
    v1 = qmoment_higher_spin(HS, MomentQuery(pts, [1, 1], Permutation((1, 2))),
                             nodes_per_circle=NODES).value
    v2 = qmoment_higher_spin(HS, MomentQuery(pts, [1, 1], Permutation((2, 1))),
                             nodes_per_circle=NODES).value
    assert abs(v1 - v2) < 1e-9


def test_colorless_moment_needs_no_T_factor():
    # c = 0 everywhere: T_pi(1) = q^{l(pi)} cancels the prefactor, so every pi
    # yields the colorless formula value
    pts = [(1.5, 2.5), (2.5, 2.5)]
    vals = qmoment_higher_spin_multi(HS, pts, [0, 0], Permutation.all(2),
                                     nodes_per_circle=NODES)
    v = list(vals.values())
    assert abs(v[0].value - v[1].value) < 1e-9


# ---------------------------------------------------------------------------
# shifted observables
# ---------------------------------------------------------------------------


def test_shifted_observable_k1_is_difference():
    pt = [(2.5, 2.5)]
    o = shifted_observable(HS, pt, [1], Permutation.identity(1), nodes_per_circle=NODES)
    m_gt = qmoment_higher_spin(HS, MomentQuery(pt, [1]), nodes_per_circle=NODES).value
    m_ge = qmoment_higher_spin(HS, MomentQuery(pt, [0]), nodes_per_circle=NODES).value
    assert abs(o.value - (m_gt - m_ge)) < 1e-9


def test_shifted_observable_coset_invariance():
    # pi and pi*sigma with sigma in the stabilizer of c give the same observable
    pts = [(1.5, 2.5), (2.5, 1.5)]
    o1 = shifted_observable(HS, pts, [1, 1], Permutation((1, 2)), nodes_per_circle=NODES)
    o2 = shifted_observable(HS, pts, [1, 1], Permutation((2, 1)), nodes_per_circle=NODES)
    assert abs(o1.value - o2.value) < 1e-10


def test_shifted_observable_empirical_matches_exact():
    batch = sample_higher_spin(HS, (2, 2), seed=17, count=120000)
    pts = [(1.5, 2.5), (2.5, 1.5)]
    for pi in Permutation.all(2):
        exact = shifted_observable(HS, pts, [1, 2], pi, nodes_per_circle=NODES)
        emp, se = shifted_observable(HS, pts, [1, 2], pi, exact=False, batch=batch)
        assert abs(emp - exact.value.real) <= 4 * se + 2e-4


def test_shifted_empirical_matches_the_float_power_formula():
    # the q ** (h - r) table read with take and the product formed in place give the
    # bits of one float power per sample and a fresh product per factor
    batch = sample_higher_spin(HS3, (3, 3), seed=19, count=20000)
    pts, q = [(2.5, 3.5), (3.5, 2.5)], HS3.q
    for colors, pi in (([1, 2], Permutation((2, 1))), ([1, 2], Permutation.identity(2)),
                       ([2, 3], Permutation((2, 1)))):
        pc = pi.act(colors)
        prod = np.ones(batch.count)
        for i in range(2):
            r_gt = sum(pc[j] > pc[i] for j in range(i + 1, 2))
            r_ge = sum(pc[j] >= pc[i] for j in range(i + 1, 2))
            h_gt = batch.heights(pts[i], pc[i]).astype(float)
            h_ge = batch.heights(pts[i], pc[i] - 1).astype(float)
            prod = prod * (q ** (h_gt - r_gt) - q ** (h_ge - r_ge))
        assert prod.std() > 0
        emp, se = shifted_observable(HS3, pts, colors, pi, exact=False, batch=batch)
        assert (emp, se) == (prod.mean(), prod.std(ddof=1) / np.sqrt(batch.count))


# ---------------------------------------------------------------------------
# q-Hahn moments
# ---------------------------------------------------------------------------


def test_qhahn_boundary_row_is_trivial():
    res = qmoment_qhahn(0.4, 0.4, 0.7, (1, 2), MomentQuery([(1.5, 0.5)], [0]),
                        nodes_per_circle=NODES)
    assert abs(res.value - 1) < 1e-9


def test_qhahn_unsupported_regime():
    with pytest.raises(UnsupportedRegimeError):
        qmoment_qhahn(0.4, 0.4, 0.7, (1, 2), MomentQuery([(1.5, 1.5)], [2]))


def test_qhahn_fusion_specialization_finite_L():
    # z^2 = q^{-L} at L = 2: the fused formula equals the unfused higher-spin
    # integrand with row groups (s, qs), all spins s, unit column rapidities,
    # and the first-column limit s/(s - w).  z^2 > 1 lies outside the q-Hahn
    # regime, where ``qmoment_qhahn`` raises, so the identity is checked on the
    # fused integral that it runs inside the regime
    from vertexflow.contours import build_contours_qhahn

    q, s, L = 0.45, 0.5, 2
    zq = (q**-L) ** 0.5
    levels = (1, 2)
    for (alpha, beta, c) in [(1.5, 2.5, 0), (1.5, 3.5, 1)]:
        pts, colors = qmoments._read_query([(alpha, beta)], [c])
        val_f = qmoments._qhahn_fused(q, s, zq, levels, pts, colors, Permutation.identity(1),
                                      96, qmoments.DEFAULT_TOL, qmoments.NODE_CAP)
        n_rows = int(beta - 0.5)
        us = []
        for _ in range(n_rows):
            us += [s, q * s]
        lc = L * (levels[c - 1] if c >= 1 else 0)
        phi = [ratio_product(us[:lc], [q * u for u in us[:lc]])]

        def psi(w, n_rows=n_rows, alpha=alpha):
            w = np.asarray(w, dtype=complex)
            out = np.ones_like(w)
            for u in us[: L * n_rows]:
                out = out * (1 - q * u * w) / (1 - u * w)
            for _ in range(int(alpha - 0.5)):
                out = out * s * (w * s - 1) / (w - s)
            return out * s / (s - w)

        fam = build_contours_qhahn(s, zq, q, 1)
        integrand = PairingIntegrand([(1.0, phi)], [psi], [(1.0, Permutation.identity(1))], "q")
        val_u = pairing_values(fam, integrand, q, nodes_per_circle=96, tol=1e-11)[(1,)].value
        assert abs(val_f.value - val_u) < 1e-9


# ---------------------------------------------------------------------------
# Beta polymer moments
# ---------------------------------------------------------------------------


def test_beta_moment_boundary_and_products():
    sig, rho = 6.0, 1.5
    mu = (sig - rho) / sig
    assert abs(beta_moment(sig, rho, [(3, 3)], [0], nodes_per_circle=NODES).value - 1) < 1e-9
    assert abs(beta_moment(sig, rho, [(1, 3)], [0], nodes_per_circle=NODES).value - mu**2) < 1e-9
    got = beta_moment(sig, rho, [(2, 4)], [0], nodes_per_circle=NODES).value
    assert abs(got - beta_first_moment(sig, rho, 0, 2, 4)) < 1e-9
    got = beta_moment(sig, rho, [(2, 5)], [1], nodes_per_circle=NODES).value
    assert abs(got - beta_first_moment(sig, rho, 1, 2, 5)) < 1e-9


@pytest.mark.parametrize("sigma, rho, m, t, delay", [
    (4.78, 2.33, 5, 6, 1),  # 4.2e-11 off at 128 nodes per circle on a circle of 0.12
    (10.0, 0.3, 6, 9, 2),  # 1.1e-8 off at 4096 nodes per circle on a circle of 0.25
])
def test_beta_first_moment_on_a_wide_circle(sigma, rho, m, t, delay):
    # at k = 1 the circle around the order-m pole -sigma/2 has radius (sigma - rho)/4
    got = beta_moment(sigma, rho, [(m, t)], [delay])
    assert got.converged
    assert abs(got.value - beta_first_moment(sigma, rho, delay, m, t)) < 1e-12


def test_beta_moment_second_moment_vs_mc():
    sig, rho = 6.0, 1.5
    bb = simulate_beta_polymer(sig, rho, 4, {0}, seed=31, count=150000,
                               keep_points=[(0, 2, 4)])
    z24 = bb.value(0, 2, 4)
    exact = beta_moment(sig, rho, [(2, 4), (2, 4)], [0, 0], nodes_per_circle=NODES).value.real
    se = (z24**2).std() / np.sqrt(len(z24))
    assert abs((z24**2).mean() - exact) <= 4 * se


def test_beta_moment_constraint_validation():
    with pytest.raises(ValidationError):
        beta_moment(6.0, 1.5, [(3, 4)], [2])  # alpha + c > beta
    with pytest.raises(ParameterRangeError):
        beta_moment(1.0, 1.5, [(1, 3)], [0])  # sigma <= rho


@pytest.mark.parametrize("delays, wording", [([-1], "delays must be nonnegative"),
                                             ([3], "need c_k < beta_k")])
def test_beta_moment_delay_out_of_range_raises_at_colors(delays, wording):
    # the delays are the query's colors: below 0, or at or past the last point's t
    with pytest.raises(ValidationError, match=wording) as info:
        beta_moment(6.0, 1.5, [(1, 3)], delays)
    assert info.value.field == "colors"


@pytest.mark.parametrize("sigma, rho", [(np.inf, 1.5), (6.0, np.nan), (np.nan, 1.5), (1.5, 1.5)])
def test_beta_regime_is_one_check_for_sampler_and_moment(sigma, rho):
    # sigma and rho finite with sigma > rho > 0, else ParameterRangeError at params, from
    # the simulation and the moment formula alike
    for call in (lambda: simulate_beta_polymer(sigma, rho, 4, {0}, seed=0, count=2),
                 lambda: beta_moment(sigma, rho, [(1, 3)], [0])):
        with pytest.raises(ParameterRangeError, match="finite sigma > rho > 0") as info:
            call()
        assert info.value.field == "params"


# ---------------------------------------------------------------------------
# query reading: every formula checks its points, ranks and order alike
# ---------------------------------------------------------------------------

HS3 = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1, 1.2),
                  col_spins=(4.0, 4.0, 4.0), boundary_levels=(1, 2, 3))
SKEW_DOMAIN = rectangle_domain(2, 2, (0, 1, 1, 2))
SKEW_PARAMS = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
QHAHN_LEVELS = (1, 2, 3, 4)
ID1 = Permutation.identity(1)

# formula -> call(points, colors, pi)
FORMULAS = {
    "6.1": lambda pts, cols, pi: qmoment_skew_multi(SKEW_DOMAIN, SKEW_PARAMS, pts, cols, [pi]),
    "8.1": lambda pts, cols, pi: qmoment_higher_spin_multi(HS3, pts, cols, [pi]),
    "8.1 kappa": lambda pts, cols, pi: qmoment_higher_spin_kappa(HS3, MomentQuery(pts, cols, pi)),
    "8.4": lambda pts, cols, pi: shifted_observable(HS3, pts, cols, pi),
    "8.5": lambda pts, cols, pi: qmoment_qhahn(0.4, 0.4, 0.7, QHAHN_LEVELS,
                                               MomentQuery(pts, cols, pi)),
    "9.2": lambda pts, cols, pi: beta_moment(6.0, 1.5, pts, cols, pi),
}


@pytest.mark.parametrize("formula, point, color", [
    ("6.1", (2.0, 2.5), 0),
    ("8.1", (2.0, 2.5), 0),
    ("8.1", (1.9, 2.5), 0),
    ("8.1 kappa", (2.0, 2.5), 0),
    ("8.4", (2.0, 2.5), 1),
    ("8.5", (1.9, 3.5), 0),
    ("9.2", (2.5, 5), 0),  # (m, t) pairs are integers
    ("9.2", (2.9, 5.7), 0),
])
def test_point_off_the_lattice_raises_at_points(formula, point, color):
    # never the value at the truncated point, (1.5, 2.5), (1.5, 3.5) or (2, 5)
    with pytest.raises(ValidationError) as info:
        FORMULAS[formula]([point], [color], ID1)
    assert info.value.field == "points"


@pytest.mark.parametrize("formula, points, colors, pi, field", [
    ("6.1", [(1.5, 2.5)], [0, 1], ID1, "colors"),
    ("6.1", [(1.5, 2.5), (2.5, 1.5)], [0], Permutation.identity(2), "colors"),
    ("8.1", [(1.5, 2.5), (2.5, 1.5)], [0, 1], ID1, "pi"),
    ("8.1", [(1.5, 2.5), (2.5, 1.5)], [0], Permutation.identity(2), "colors"),
    ("8.4", [(1.5, 2.5), (2.5, 1.5)], [1], Permutation.identity(2), "colors"),
    ("8.4", [(1.5, 2.5)], [1], Permutation.identity(2), "pi"),
    ("9.2", [(2, 5)], [0, 1], ID1, "colors"),
    ("9.2", [(2, 5), (3, 5)], [0], Permutation.identity(2), "colors"),
    ("9.2", [(2, 5), (3, 5)], [0, 1], ID1, "pi"),
])
def test_rank_mismatch_raises_at_its_field(formula, points, colors, pi, field):
    # never a value for a query of another rank
    with pytest.raises(ValidationError) as info:
        FORMULAS[formula](points, colors, pi)
    assert info.value.field == field


@pytest.mark.parametrize("formula, points, colors", [
    ("8.1", [(1.5, 1.5), (2.5, 2.5)], [0, 1]),  # betas increase
    ("8.1 kappa", [(-0.5, 1.5)], [0]),  # outside the quadrant
    ("8.5", [(2.5, 3.5), (1.5, 3.5)], [0, 1]),  # alphas decrease
    ("9.2", [(0, 5)], [0]),  # m < 1
])
def test_point_order_raises_at_points(formula, points, colors):
    with pytest.raises(ValidationError) as info:
        FORMULAS[formula](points, colors, Permutation.identity(len(points)))
    assert info.value.field == "points"


@pytest.mark.parametrize("formula, point, color", [
    ("6.1", (1.5, 2.5), 0.5),
    ("8.1", (1.5, 2.5), 0.5),
    ("8.1 kappa", (1.5, 2.5), 1.5),
    ("8.4", (1.5, 2.5), 1.5),
    ("8.5", (1.5, 3.5), 0.5),
    ("9.2", (2, 5), 0.5),  # a delay: never a value between delays 0 and 1
    ("9.2", (2, 5), "1"),
])
def test_non_integer_color_raises_at_colors(formula, point, color):
    with pytest.raises(ValidationError) as info:
        FORMULAS[formula]([point], [color], ID1)
    assert info.value.field == "colors"


@pytest.mark.parametrize("formula, point, color", [
    ("8.1", (2.5, 2.5), 1),
    ("8.5", (1.5, 3.5), 1),
    ("9.2", (2, 5), 1),
])
def test_whole_float_colors_read_as_ints(formula, point, color):
    want = FORMULAS[formula]([point], [color], ID1)
    got = FORMULAS[formula]([point], [float(color)], ID1)
    if isinstance(want, dict):
        want, got = want[ID1.images], got[ID1.images]
    assert got.value == want.value


# a query of k = 2 on the lattice of each formula
K2_POINTS = {"6.1": [(1.5, 2.5), (2.5, 1.5)], "8.1": [(1.5, 2.5), (2.5, 1.5)],
             "8.1 kappa": [(1.5, 2.5), (2.5, 1.5)], "8.4": [(1.5, 2.5), (2.5, 1.5)],
             "8.5": [(1.5, 3.5), (2.5, 3.5)], "9.2": [(2, 5), (3, 5)]}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_decreasing_colors_raise_at_colors(formula):
    with pytest.raises(ValidationError) as info:
        FORMULAS[formula](K2_POINTS[formula], [1, 0], Permutation.identity(2))
    assert info.value.field == "colors"


# HS3 with u_2 = q u_1: the poles 1/u_2 and 1/(q u_1) meet once a query reads row 2
HS3_COINCIDENT_ROWS = ModelParams(q=0.5, row_rapidities=(5.0, 2.5, 7.0),
                                  col_rapidities=(1.0, 1.1, 1.2), col_spins=(4.0, 4.0, 4.0),
                                  boundary_levels=(1, 2, 3))


def test_higher_spin_pole_check_reads_only_the_rows_the_query_uses():
    # the query reads row 1 only: the formula is the one at a separated row 2
    query = MomentQuery([(1.5, 1.5)], [0])
    got = qmoment_higher_spin(HS3_COINCIDENT_ROWS, query)
    assert abs(got.value - qmoment_higher_spin_kappa(HS3_COINCIDENT_ROWS, query).value) < 1e-14
    assert abs(got.value - qmoment_higher_spin(HS3, query).value) < 1e-14


@pytest.mark.parametrize("route", [
    lambda params, pts: qmoment_higher_spin(params, MomentQuery(pts, [0])),
    lambda params, pts: qmoment_higher_spin_kappa(params, MomentQuery(pts, [0])),
    lambda params, pts: shifted_observable(params, pts, [1], ID1),
], ids=["8.1", "8.1 kappa", "8.4"])
def test_higher_spin_pole_separation_raises_at_params(route):
    # (1.5, 3.5) reads rows 1-3; every route reports the rows, never a contour failure
    with pytest.raises(ValidationError) as info:
        route(HS3_COINCIDENT_ROWS, [(1.5, 3.5)])
    assert info.value.field == "params"


def test_qhahn_unsupported_regime_names_points():
    with pytest.raises(UnsupportedRegimeError) as info:
        qmoment_qhahn(0.4, 0.4, 0.7, QHAHN_LEVELS, MomentQuery([(1.5, 1.5)], [3]))
    assert info.value.field == "points"


QHAHN_CLI_QUERY = MomentQuery([(1.5, 3.5), (2.5, 3.5)], [0, 1], Permutation((2, 1)))


@pytest.mark.parametrize("s, z", [(0.7, 0.4), (1.5, 0.7), (0.4, 0.4), (0.7, 0.7), (0.4, 1.2)])
def test_qhahn_outside_its_regime_raises_at_params(s, z):
    # E[q^{sum h}] lies in (0, 1]; outside 0 < s^2 < z^2 < 1 the integral is no
    # expectation (3112.54 at (0.7, 0.4), -19.01 at (1.5, 0.7)), so it is not returned
    with pytest.raises(ParameterRangeError) as info:
        qmoment_qhahn(0.4, s, z, QHAHN_LEVELS, QHAHN_CLI_QUERY)
    assert info.value.field == "params"
    assert str(info.value) == "q-Hahn boundary needs 0 < s^2 < z^2 < 1"


def test_qhahn_moment_reads_only_s_squared():
    plus = qmoment_qhahn(0.4, 0.4, 0.7, QHAHN_LEVELS, QHAHN_CLI_QUERY)
    minus = qmoment_qhahn(0.4, -0.4, 0.7, QHAHN_LEVELS, QHAHN_CLI_QUERY)
    assert plus.converged and minus.converged
    assert abs(plus.value - minus.value) < 1e-12


# ---------------------------------------------------------------------------
# numerical robustness
# ---------------------------------------------------------------------------


def test_contour_deformation_and_node_doubling_invariance(scaled_contours):
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    query = MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation((2, 1)))
    base = qmoment_skew(dom, params, query, nodes_per_circle=NODES)
    assert base.error_estimate < 1e-9  # the adaptive run certifies doubling
    for scale in (1.1, 0.9):
        with scaled_contours(scale):
            pert = qmoment_skew(dom, params, query, nodes_per_circle=NODES)
        assert abs(pert.value - base.value) < 1e-9
    doubled = qmoment_skew(dom, params, query, nodes_per_circle=2 * NODES)
    assert abs(doubled.value - base.value) < 1e-9


def test_colorless_formula_matches_mc_cor_8_3():
    # k=1 colorless moment on a 3x3 quadrant window: no T factor; 3 sigma at 10^6
    par = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0),
                      col_rapidities=(1.0, 1.1, 1.2), col_spins=(4.0, 4.0, 4.0),
                      boundary_levels=(3,))
    batch = sample_higher_spin(par, (3, 3), seed=43, count=10**6)
    q = par.q
    for pt in [(2.5, 3.5), (3.5, 2.5)]:
        vals = q ** batch.heights(pt, 0).astype(float)
        exact = qmoment_higher_spin(par, MomentQuery([pt], [0]), nodes_per_circle=96)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - exact.real_checked(1e-8)) <= 3 * se + 1e-12


def test_mc_vs_exact_bridge_sc6v_window():
    from vertexflow.sampler import sample_sc6v, sc6v_quadrant_domain
    from vertexflow.verify import mc_vs_exact

    par = ModelParams(q=0.3, row_rapidities=(1.9, 2.2, 2.5),
                      col_rapidities=(1.0, 1.06, 1.12), boundary_levels=(1, 2, 3))
    dom = sc6v_quadrant_domain(3, 3, par)
    batch = sample_sc6v(dom, par, seed=51, count=10**6)
    pts, cols = [(1.5, 3.5), (3.5, 1.5)], [0, 1]
    pi = Permutation((2, 1))
    expo = batch.heights(pts[0], pi.act(cols)[0]) + batch.heights(pts[1], pi.act(cols)[1])
    vals = par.q ** expo.astype(float)
    exact = qmoment_skew(dom, par, MomentQuery(pts, cols, pi), nodes_per_circle=96)
    rep = mc_vs_exact(vals, exact.real_checked(), "sc6v window k=2")
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# the adaptive loop: nested levels, stopping rule, convergence flag
# ---------------------------------------------------------------------------


def test_k4_skew_identity_query_converges_at_requested_count():
    from vertexflow.verify import _cut_moment_query, random_shift_pair

    params = ModelParams(q=0.3, row_rapidities=(2.0, 2.11, 2.22),
                         col_rapidities=(1.0, 1.05, 1.1))
    col = random_shift_pair(random.Random(1), 3, 3, 2)[0]
    pts, cols, pi = _cut_moment_query(col, [2, 2])
    assert len(pts) == 4 and pi == Permutation.identity(4)
    res = qmoment_skew(col.domain, params, MomentQuery(pts, cols, pi), nodes_per_circle=NODES)
    want = enumerate_sc6v(col.domain, params).moment(pts, pi.act(cols), params.q)
    assert res.converged and res.error_estimate < 1e-10
    assert abs(res.value - want) < 1e-12


def test_cap_at_start_count_reports_unconverged():
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    query = MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation((2, 1)))
    # tol below the three-level estimate's roundoff floor: no estimate can certify it
    res = qmoment_skew(dom, params, query, nodes_per_circle=NODES, tol=1e-17, cap=NODES)
    assert not res.converged and res.error_estimate >= 1e-12
    assert res.nodes_per_circle == NODES
    res = qmoment_skew(dom, params, query, nodes_per_circle=NODES, tol=1e-12)
    assert res.converged and res.error_estimate < 1e-12


def test_odd_start_count_is_doubled_first():
    # the requested grid is the stride-2 subset of the first level, so an odd start
    # count n runs the levels of 2n: the same result, bit for bit
    query = MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation((2, 1)))
    odd = qmoment_skew(SKEW_DOMAIN, SKEW_PARAMS, query, nodes_per_circle=65)
    assert odd == qmoment_skew(SKEW_DOMAIN, SKEW_PARAMS, query, nodes_per_circle=130)
    assert odd.nodes_per_circle == 130 and odd.converged


def test_error_estimate_is_in_returned_units():
    # a pi_terms coefficient (the moment prefactor) scales what the loop prices:
    # |I(32) - I(16)| is 1.4e-8 (the error of I(16); I(32) is off by 4e-16), so
    # 10^-3 times the integral stops at 32 nodes at tol 1e-10.  The unscaled runs
    # ask for 1e-14, which the three-level estimate at 32 (5.6e-12) misses too
    q = 0.3
    zetas = [1.05, 1.2]
    phi = [ratio_product([], []), ratio_product(zetas[:1], [q * zetas[0]])]
    psi = [ratio_product([q * t for t in zetas], zetas), ratio_product([q * zetas[0]], zetas[:1])]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], 2, q)
    pi = Permutation((2, 1))

    def run(coef, tol, **cap):
        integrand = PairingIntegrand([(1.0, phi)], psi, [(coef, pi)], "q")
        return pairing_values(fam, integrand, q, nodes_per_circle=32, tol=tol,
                              **cap)[pi.images]

    raw = run(1.0, 1e-14, cap=32)
    assert not raw.converged and raw.error_estimate > 1e-10
    assert run(1.0, 1e-14).nodes_per_circle == 64
    scaled = run(1e-3, 1e-10)
    assert scaled.converged and scaled.nodes_per_circle == 32
    assert abs(scaled.error_estimate - 1e-3 * raw.error_estimate) < 1e-6 * scaled.error_estimate
    assert abs(scaled.value - 1e-3 * raw.value) < 1e-15


def test_quarter_and_turned_levels_only_for_missed_keys_change_no_result():
    # k = 3, all six pi: at 64 nodes three pi miss tol on |I(n) - I(n/2)|, so I(n/4)
    # and the turned grid are evaluated for those keys only
    qp = UpLeftPath.from_floats((3.5, 0.5), "HVHHVV")
    pp = UpLeftPath.from_floats((3.5, 0.5), "VVHVHH")
    dom = SkewDomain(qp, pp, (0, 1, 1, 2, 3, 3))
    params = ModelParams(q=0.33, row_rapidities=(2.0, 2.1, 2.25), col_rapidities=(1.0, 1.05, 1.1))
    pts, cols, pis = [(2.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 3], Permutation.all(3)
    pairing_on_grid, asked = qmoments._pairing_on_grid, []

    def every_key(grid, integrand, keys=None):
        asked.append(keys)
        return pairing_on_grid(grid, integrand)

    got = qmoment_skew_multi(dom, params, pts, cols, pis, nodes_per_circle=NODES)
    with mock.patch.object(qmoments, "_pairing_on_grid", every_key):
        want = qmoment_skew_multi(dom, params, pts, cols, pis, nodes_per_circle=NODES)
    assert any(keys is not None and 0 < len(keys) < len(pis) for keys in asked)
    for pi in pis:  # value, estimate, node count and converged, bit for bit
        assert got[pi.images] == want[pi.images]


def test_table_budget_stops_unconverged(monkeypatch):
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    query = MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation((2, 1)))
    adaptive, fams = qmoments._adaptive, []

    def spy(fam, *args):
        fams.append(fam)
        return adaptive(fam, *args)

    monkeypatch.setattr(qmoments, "_adaptive", spy)
    first = qmoment_skew(dom, params, query, nodes_per_circle=NODES, tol=1e-17, cap=NODES)
    second = qmoment_skew(dom, params, query, nodes_per_circle=2 * NODES, tol=1e-17, cap=2 * NODES)
    monkeypatch.setattr(qmoments, "TABLE_BUDGET", qmoments._table_bytes(fams[0], 2 * NODES))
    # tol 1e-17 is below roundoff: only the budget (or the cap, 4096) can stop the loop
    res = qmoment_skew(dom, params, query, nodes_per_circle=NODES, tol=1e-17)
    assert not res.converged and res.nodes_per_circle == 2 * NODES
    assert abs(res.error_estimate - abs(second.value - first.value)) < 1e-15
    assert res.value == second.value


def test_summed_integrals_vouch_for_their_sum():
    # shifted observables sum over a coset; converged means the sum's estimate < tol
    pts = [(1.5, 2.5), (2.5, 1.5)]
    for tol in (1e-10, 1e-13):
        res = shifted_observable(HS, pts, [1, 1], Permutation((2, 1)),
                                 nodes_per_circle=NODES, tol=tol)
        assert res.converged and res.error_estimate < tol
    res = shifted_observable(HS, pts, [1, 1], Permutation((2, 1)), nodes_per_circle=NODES,
                             tol=1e-300, cap=NODES)
    assert not res.converged


# ---------------------------------------------------------------------------
# one T_pi expansion for every pi of a grid
# ---------------------------------------------------------------------------


CORPUS_K3 = (SkewDomain(UpLeftPath.from_floats((3.5, 0.5), "HVHHVV"),
                        UpLeftPath.from_floats((3.5, 0.5), "VVHVHH"), (0, 1, 1, 2, 3, 3)),
             ModelParams(q=0.33, row_rapidities=(2.0, 2.1, 2.25), col_rapidities=(1.0, 1.05, 1.1)),
             [(2.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 3])
K4_PIS = [Permutation((2, 1, 4, 3)), Permutation((3, 1, 2, 4))]  # both of length 2


def captured_integrand(monkeypatch, formula):
    """(contour family, integrand, q) of the one ``pairing_values`` call of ``formula()``."""
    captured = []
    monkeypatch.setattr(qmoments, "pairing_values",
                        lambda fam, integrand, q, *args: captured.append((fam, integrand, q)) or {})
    formula()
    ((fam, integrand, q),) = captured
    return fam, integrand, q


def top_level_graphs(monkeypatch) -> list:
    """The edge sets of the top-level ``_contract`` calls made from here on."""
    contract, graphs = qmoments._contract, []

    def recorded(us, mats, factors, cached=None, memo=None):
        if cached is None:
            graphs.append(set(mats))
        return contract(us, mats, factors, cached, memo)

    monkeypatch.setattr(qmoments, "_contract", recorded)
    return graphs


SHARED_CASES = {
    "corpus k = 3": (lambda: qmoment_skew_multi(*CORPUS_K3, Permutation.all(3)), NODES),
    "HS k = 3": (lambda: qmoment_higher_spin_multi(
        HS3, [(1.5, 2.5), (2.5, 2.5), (2.5, 1.5)], [0, 1, 2], Permutation.all(3)), NODES),
    "skew k = 4": (lambda: qmoment_skew_multi(
        SKEW_DOMAIN, SKEW_PARAMS, [(1.5, 2.5), (1.5, 2.5), (2.5, 1.5), (2.5, 1.5)],
        [0, 0, 1, 1], K4_PIS), 8),
}


@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_expansion_equals_each_pi_alone(monkeypatch, case):
    # the DL terms of all pi share their products and eliminations; each pi's value is
    # the one it has evaluated alone, bit for bit
    formula, nodes = SHARED_CASES[case]
    fam, integrand, q = captured_integrand(monkeypatch, formula)
    grid = qmoments._Grid.build(fam, nodes, "q", q)
    graphs = top_level_graphs(monkeypatch)
    shared = qmoments._pairing_on_grid(grid, integrand)
    assert len(shared) == len(integrand.pi_terms) > 1
    if grid.k == 4:  # b-steps leave degree-two variables at top level
        assert any(min(sum(v in e for e in g) for v in range(4)) == 2 for g in graphs)
    for _, pi in integrand.pi_terms:
        assert qmoments._pairing_on_grid(grid, integrand, keys={pi.images}) == {
            pi.images: shared[pi.images]}


class _Squares(np.ndarray):
    """Node weights that pass their ufuncs on as plain arrays and keep a weak reference
    to each product of two matrices made from them."""

    made = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _Squares) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        out = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if not isinstance(out, np.ndarray) or out.ndim == 0:
            return out
        out = out.view(_Squares)
        if ufunc is np.matmul and all(np.ndim(x) == 2 for x in inputs):
            _Squares.made.append(weakref.ref(out))
        return out


def test_all_pi_share_their_degree_two_products(monkeypatch):
    # at 64 nodes per circle each level of a k = 3 all-pi corpus query contracts 9
    # triangles through 3 distinct M_av diag(u_v) M_vb, each built once, and none of
    # them outlives the call
    fam, integrand, q = captured_integrand(
        monkeypatch, lambda: qmoment_skew_multi(*CORPUS_K3, Permutation.all(3)))
    fine = qmoments._Grid.build(fam, NODES, "q", q)
    fine.dws = [dw.view(_Squares) for dw in fine.dws]  # every node vector is a _Squares
    graphs = top_level_graphs(monkeypatch)
    for grid in (fine, fine.coarse()):
        graphs.clear()
        monkeypatch.setattr(_Squares, "made", [])
        qmoments._pairing_on_grid(grid, integrand)
        assert sum(len(g) == 3 for g in graphs) == 9
        assert len(_Squares.made) == 3
        gc.collect()
        assert all(ref() is None for ref in _Squares.made)


# ---------------------------------------------------------------------------
# the pair-graph contraction against the full product-grid sum
# ---------------------------------------------------------------------------


def brute_force_contract(us, mats):
    """Oracle: sum over the full product grid of every vector and edge factor."""
    k = len(us)
    total = np.ones(())
    for a, u in us.items():
        total = total * u.reshape([-1 if c == a else 1 for c in range(k)])
    for (a, b), m in mats.items():
        total = total * m.reshape([m.shape[0] if c == a else m.shape[1] if c == b else 1
                                   for c in range(k)])
    return total.sum()


@st.composite
def pair_graphs(draw):
    """Vectors near 1 on k = 1..5 variables of 6..10 nodes; each pair's edge is
    absent, of rank 1 or 2 (split), or dense (conditioned on).  A random subset
    of the low-rank edges comes with its ``_cross_approx`` factors, as a split
    passes them down to its terms."""
    k = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(6, 10), min_size=k, max_size=k))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    palette = draw(st.sampled_from([[None, 1, 2, "dense"], ["dense"], [2, "dense"]]))
    kinds = draw(st.lists(st.sampled_from(palette), min_size=len(pairs), max_size=len(pairs)))
    with_factors = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def near_one(*shape):
        return 1 + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    mats, cached = {}, {}
    for (a, b), kind, cache in zip(pairs, kinds, with_factors):
        if kind == "dense":
            mats[(a, b)] = near_one(sizes[a], sizes[b])
        elif kind is not None:
            mats[(a, b)] = near_one(sizes[a], kind) @ near_one(kind, sizes[b]) / kind
            if cache:
                cached[(a, b)] = _cross_approx(mats[(a, b)])
    return {a: near_one(n) for a, n in enumerate(sizes)}, mats, cached


@settings(max_examples=150, deadline=None)
@given(pair_graphs())
def test_contraction_matches_brute_force_sum(graph):
    # a degree-two variable is summed out through cached factors on either side of
    # it, whether it is the row or the column variable of the stored pair
    us, mats, cached = graph
    want = brute_force_contract(us, mats)
    got = _contract(us, mats, lambda key, mat: _cross_approx(mat), cached)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=150, deadline=None)
@given(pair_graphs())
def test_contraction_through_ranked_edges_matches_brute_force_sum(graph):
    # as a grid contracts: each edge ranked on its stride-2 submatrix (whole, at an odd
    # size) and factored at full size, from those pivots, only once a step chooses it
    us, mats, cached = graph
    want = brute_force_contract(us, mats)
    got = _contract(us, mats, lambda key, mat: _ranked(mat),
                    {key: _ranked(mats[key]) for key in cached})
    assert abs(got - want) <= 1e-13 * abs(want)


def test_split_ranks_an_adjacent_pair_only_for_a_step_that_needs_it(monkeypatch):
    # a K4 of 16 nodes per variable split at (0, 2), the least rank among the pairs at
    # distance >= 2; each term then sums out variable 2 between 1 and 3, whose edges are
    # both adjacent pairs.  The split ranks those two once for both of its terms, each
    # term sums out through the thinner, (1, 2), and the dense pair (0, 1) is never ranked
    rng = np.random.default_rng(7)

    def near_one(*shape):
        return 1 + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    ranks = {(0, 1): None, (0, 2): 2, (0, 3): 6, (1, 2): 2, (1, 3): 6, (2, 3): 3}
    mats = {key: near_one(16, 16) if r is None else near_one(16, r) @ near_one(r, 16) / r
            for key, r in ranks.items()}
    us = {a: near_one(16) for a in range(4)}
    ranked, thin = [], []
    least_rank = qmoments._least_rank

    def recorded(records, mats, keys, n=None):
        got = least_rank(records, mats, keys, n)
        if n is not None and got is not None:
            thin.append(got[0])
        return got

    monkeypatch.setattr(qmoments, "_least_rank", recorded)
    got = _contract(us, mats, lambda key, mat: ranked.append(key) or _cross_approx(mat))
    assert ranked == [(0, 2), (0, 3), (1, 3), (1, 2), (2, 3)]
    # the split's look-ahead finds (0, 3) ranked for v = 3; then each term takes (1, 2)
    # for v = 2 and (0, 3) for v = 3
    assert thin == [(0, 3)] + [(1, 2), (0, 3)] * 2
    want = brute_force_contract(us, mats)
    assert abs(got - want) <= 1e-13 * abs(want)


@st.composite
def seeded_low_rank(draw):
    """A complex matrix of rank 0..5 and 6..24 rows and columns, with noise at roundoff
    (1e-17 of its largest entry, or none), and seed pivots: random indices and repeats."""
    n, m, r = draw(st.integers(6, 24)), draw(st.integers(6, 24)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mat = cplx(n, r) @ cplx(r, m)
    mat = mat + draw(st.sampled_from([0.0, 1e-17])) * np.abs(mat).max() * cplx(n, m)
    seed = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=8))
    return mat, seed + (draw(st.lists(st.sampled_from(seed), max_size=4)) if seed else [])


@settings(max_examples=200, deadline=None)
@given(seeded_low_rank())
def test_seeded_cross_approx_stops_at_roundoff(case):
    mat, seed = case
    bound = 1e-15 * np.abs(mat).max()
    f = _cross_approx(mat, seed=seed)
    if f is not None:
        x, y = f
        assert x.shape[1] == len(f.pivots) <= (min(mat.shape) - 1) // 2
        assert np.abs(mat - x @ y).max() <= bound
    # seeded with its own complete-pivot pivots, it gives back its rank: the residual
    # of every further seed is then at roundoff, so the seed is skipped.  Refactored
    # from the same pivots, the residual moves by up to 3e-16 of max|mat|, so this
    # holds once the residual is at most half the bound
    own = _cross_approx(mat)
    if own is not None and np.abs(mat - own[0] @ own[1]).max() <= bound / 2:
        assert _cross_approx(mat, seed=own.pivots + seed)[0].shape[1] == own[0].shape[1]


def test_cross_approx_stops_at_roundoff():
    rng = np.random.default_rng(5)
    low = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
    x, y = _cross_approx(low)
    assert x.shape == (40, 3) and y.shape == (3, 30)
    assert np.abs(low - x @ y).max() <= 1e-15 * np.abs(low).max()
    assert _cross_approx(rng.standard_normal((40, 30))) is None  # rank >= 15: not split


# ---------------------------------------------------------------------------
# closed-form cross products and lazy cross tables
# ---------------------------------------------------------------------------


CLOSED_FORM_FAMILIES = {
    "corpus k = 3": lambda mp: captured_integrand(
        mp, lambda: qmoment_skew_multi(*CORPUS_K3, Permutation.all(3)))[0],
    "Beta k = 3": lambda mp: build_contours_beta(6.0, 1.5, 3),
}


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
@pytest.mark.parametrize("variant", ["q", "polymer"])
def test_cross_times_is_the_cross_table_times_the_dl_table(monkeypatch, family, variant):
    # a_(x,y), a_(y,x) and b_(y,x) on every pair x < y: the closed form, whose factor
    # denominator w_y - w_x has cancelled, is the product entry by entry to roundoff;
    # the coarse level reads a stride-2 view of it
    fine = qmoments._Grid.build(CLOSED_FORM_FAMILIES[family](monkeypatch), 32, variant, 0.33)
    coarse = fine.coarse()
    for x in range(3):
        for y in range(x + 1, 3):
            for tag, u, v in (("a", x, y), ("a", y, x), ("b", y, x)):
                table = fine.pair_matrix(tag, u, v)
                want = fine.cross(x, y) * table
                got = fine.cross_times(tag, u, v)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want)), (tag, u, v)
                assert coarse.cross_times(tag, u, v).base is got


def pair_tables(monkeypatch, formula) -> list:
    """The tables of every grid that ``formula()`` evaluates its pairing on."""
    pairing, grids = qmoments._pairing_on_grid, []

    def recorded(grid, integrand, keys=None):
        grids.append(grid)
        return pairing(grid, integrand, keys)

    monkeypatch.setattr(qmoments, "_pairing_on_grid", recorded)
    formula()
    return [grid._tables for grid in grids]


README_QUERY = [(1.5, 2.5), (2.5, 1.5)], [0, 1]


@pytest.mark.parametrize("formula", [
    lambda: qmoment_skew(SKEW_DOMAIN, SKEW_PARAMS, MomentQuery(*README_QUERY, Permutation((2, 1)))),
    lambda: qmoment_qhahn(0.4, 0.4, 0.7, QHAHN_LEVELS, QHAHN_CLI_QUERY),
], ids=["6.1", "8.5"])
def test_pi_21_builds_one_pair_table_and_no_cross_table(monkeypatch, formula):
    # T_(2,1) gives a_(1,2), which reads the closed form of cross(0, 1) * a, and b_(1,2),
    # which drops the edge: the plain cross table is never read, so never built
    tables = pair_tables(monkeypatch, formula)
    assert tables
    for grid_tables in tables:
        assert len(grid_tables) == 1 and ("cross", 0, 1) not in grid_tables


def test_identity_pi_builds_the_cross_table_once_per_grid(monkeypatch):
    # with no DL factor every edge is untouched when contracted: each grid holds the
    # cross table alone, and a coarse level reads its finer's
    tables = pair_tables(monkeypatch, lambda: qmoment_skew(
        SKEW_DOMAIN, SKEW_PARAMS, MomentQuery(*README_QUERY), nodes_per_circle=NODES))
    assert len(tables) >= 2
    for grid_tables in tables:
        assert list(grid_tables) == [("cross", 0, 1)]
    fine, coarse = tables[0][("cross", 0, 1)], tables[1][("cross", 0, 1)]
    assert coarse.base is fine
