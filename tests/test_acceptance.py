"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every stated tolerance is pinned here.  Monte Carlo comparisons use 10^6
samples and 4-sigma bands (batched standard errors); integral routes record
their Richardson estimates, which double as the node-doubling stability
certificate used by criterion 9.
"""

import random
import time

import numpy as np

from vertexflow.contours import build_contours
from vertexflow.hecke import Permutation, PointFunction, apply_T_pi, kappa, z_partition
from vertexflow.lattice import Cut, ModelParams, SkewDomain, UpLeftPath, dbl, rectangle_domain
from vertexflow.qmoments import (
    MomentQuery,
    PairingIntegrand,
    beta_moment,
    pairing_values,
    qmoment_higher_spin,
    qmoment_higher_spin_kappa,
    qmoment_qhahn,
    qmoment_skew,
    qmoment_skew_multi,
    ratio_product,
    shifted_observable,
)
from vertexflow.sampler import (
    enumerate_sc6v,
    sample_higher_spin,
    sample_qhahn,
    sc6v_quadrant_domain,
    simulate_beta_polymer,
)
from vertexflow.verify import (
    CutCollection,
    check_local_relation,
    check_local_relation_fused,
    check_shift_invariance,
    mc_vs_exact,
    random_shift_pair,
    validate_shift_isomorphism,
)
from vertexflow.weights import qhahn_weight

MC_SAMPLES = 10**6
RICHARDSON_LOG = []  # (criterion, description, error_estimate)


def _log(criterion, desc, result):
    RICHARDSON_LOG.append((criterion, desc, result.error_estimate))
    return result


def _pass(criterion, detail, t0):
    print(f"PASS criterion {criterion}: {detail} ({time.time() - t0:.1f} s)")


def batched_sigma(vals, n_batches=20):
    means = np.array([b.mean() for b in np.array_split(np.asarray(vals, float), n_batches)])
    return means.std(ddof=1) / np.sqrt(n_batches)


# ---------------------------------------------------------------------------
# criterion 1: local relation, unfused and fused
# ---------------------------------------------------------------------------


def test_criterion_1_local_relation():
    t0 = time.time()
    worst = 0.0
    for r in range(5):
        rep = check_local_relation(r, trials=1000, seed=100 + r)
        assert rep.passed, rep
        worst = max(worst, rep.max_abs_error)
        rep = check_local_relation_fused(r, trials=1000, seed=200 + r)
        assert rep.passed, rep
        worst = max(worst, rep.max_abs_error)
    elapsed = time.time() - t0
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"
    _pass(1, f"local relation r=0..4 (both variants), max|err| = {worst:.2e} < 1e-12", t0)


# ---------------------------------------------------------------------------
# criterion 2: base case (ramp formula)
# ---------------------------------------------------------------------------


def ramp_case(zetas, fs, ls, pis, q, nodes=96, contour_scale=1.0):
    k = len(fs)
    phi = [ratio_product(zetas[:l], [q * t for t in zetas[:l]]) for l in ls]
    psi = [ratio_product([q * t for t in zetas[:f]], zetas[:f]) for f in fs]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], k, q)
    if contour_scale != 1.0:
        fam = fam.scaled(contour_scale)
    integrand = PairingIntegrand([(1.0, phi)], psi, [(1.0, pi) for pi in pis], "q")
    return pairing_values(fam, integrand, q, nodes_per_circle=nodes, tol=1e-11)


def draw_ramp_tuple(rng):
    k = rng.choice([1, 2, 2, 3, 3])
    q = rng.uniform(0.2, 0.42)
    fs = sorted((rng.randint(0, 4) for _ in range(k)), reverse=True)
    ls = sorted(rng.randint(0, 4) for _ in range(k))
    zetas = [rng.uniform(1.0, 1.3) for _ in range(max([1] + fs + ls))]
    return k, q, fs, ls, zetas


def test_criterion_2_base_case():
    t0 = time.time()
    rng = random.Random(7)
    worst = 0.0
    for case in range(50):
        k, q, fs, ls, zetas = draw_ramp_tuple(rng)
        pis = Permutation.all(k)
        raw = ramp_case(zetas, fs, ls, pis, q)
        for pi in pis:
            res = _log(2, f"ramp case {case} pi={pi.images}", raw[pi.images])
            got = q ** (k * (k - 1) / 2 - pi.length()) * res.value
            want = q ** sum(max(fs[pi(a + 1) - 1] - ls[a], 0) for a in range(k))
            err = abs(got - want)
            worst = max(worst, err)
            assert err < 1e-9, (case, pi, err)
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    _pass(2, f"50 ramp tuples, all pi in S_k, max|err| = {worst:.2e} < 1e-9", t0)


# ---------------------------------------------------------------------------
# criterion 3: main integral formula vs exhaustive enumeration
# ---------------------------------------------------------------------------


def corpus_domains():
    """Skew domains with <= 9 interior vertices, with query points on P."""
    out = []
    p1 = ModelParams(q=0.35, row_rapidities=(2.0,), col_rapidities=(1.0,))
    out.append((rectangle_domain(1, 1, (0, 1)), p1,
                [([(1.5, 1.5)], [0]), ([(1.5, 1.5), (1.5, 1.5)], [0, 1])]))
    p2 = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    out.append((rectangle_domain(2, 2, (0, 1, 1, 2)), p2,
                [([(1.5, 2.5), (2.5, 1.5)], [0, 1]),
                 ([(1.5, 2.5), (2.5, 1.5), (2.5, 1.5)], [0, 0, 1])]))
    p3 = ModelParams(q=0.3, row_rapidities=(2.0, 2.2), col_rapidities=(1.0, 1.06, 1.13))
    out.append((rectangle_domain(2, 3, (0, 0, 1, 2, 2)), p3,
                [([(2.5, 2.5), (3.5, 1.5)], [0, 1]),
                 ([(1.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 2])]))
    qp = UpLeftPath.from_floats((3.5, 0.5), "HVHHVV")
    pp = UpLeftPath.from_floats((3.5, 0.5), "VVHVHH")
    p4 = ModelParams(q=0.33, row_rapidities=(2.0, 2.1, 2.25),
                     col_rapidities=(1.0, 1.05, 1.1))
    out.append((SkewDomain(qp, pp, (0, 1, 1, 2, 3, 3)), p4,
                [([(2.5, 2.5), (3.5, 1.5)], [1, 2]),
                 ([(2.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 3])]))
    p5 = ModelParams(q=0.3, row_rapidities=(2.0, 2.1, 2.2),
                     col_rapidities=(1.0, 1.05, 1.1))
    out.append((rectangle_domain(3, 3, (0, 1, 1, 2, 3, 3)), p5,
                [([(1.5, 3.5), (3.5, 1.5)], [1, 2]),
                 ([(1.5, 3.5), (2.5, 3.5), (3.5, 1.5)], [0, 1, 2])]))
    return out


def test_criterion_3_main_formula():
    t0 = time.time()
    worst = 0.0
    n_checked = 0
    for dom, params, queries in corpus_domains():
        assert len(dom.vertices()) <= 9
        ens = enumerate_sc6v(dom, params)
        for pts, cols in queries:
            pis = Permutation.all(len(pts))
            vals = qmoment_skew_multi(dom, params, pts, cols, pis, nodes_per_circle=64)
            for pi in pis:
                res = _log(3, f"skew {dom.n_rows}x{dom.m_cols} pi={pi.images}", vals[pi.images])
                exact = ens.moment(pts, pi.act(cols), params.q)
                err = abs(res.value - exact)
                worst = max(worst, err)
                n_checked += 1
                assert err < 1e-8, (dom.n_rows, dom.m_cols, pts, cols, pi, err)
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    _pass(3, f"{n_checked} (domain, query, pi) cases vs enumeration, "
             f"max|err| = {worst:.2e} < 1e-8", t0)


# ---------------------------------------------------------------------------
# criterion 4: Hecke layer
# ---------------------------------------------------------------------------


def test_criterion_4_hecke_layer():
    t0 = time.time()
    rng = random.Random(13)
    q = 0.41

    def rnd():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    worst = 0.0
    # Bruhat support at 100 random points
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        pi = rng.choice(Permutation.all(k))
        rho = rng.choice(Permutation.all(k))
        if rho.bruhat_leq(pi):
            continue
        val = abs(kappa(pi, rho, [rnd() for _ in range(k)], q=q))
        worst = max(worst, val)
        assert val < 1e-10
    # Prop 3.4(2)
    checked = 0
    while checked < 100:
        k = rng.choice([3, 4])
        pi = rng.choice(Permutation.all(k))
        rho = rng.choice(Permutation.all(k))
        rinv = rho.inverse()
        pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)
                 if rinv(a) > rinv(b)]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        z0 = rnd()
        w = [rnd() for _ in range(k)]
        w[a - 1], w[b - 1] = z0, q * z0
        val = abs(kappa(pi, rho, w, q=q))
        worst = max(worst, val)
        assert val < 1e-10
        checked += 1
    # Prop 3.4(3) with scaled tolerance at |w_a| = 1e-6 and 1e6
    checked = 0
    while checked < 100:
        k = rng.choice([2, 3])
        pi = rng.choice(Permutation.all(k))
        rho = rng.choice(Permutation.all(k))
        a = rng.randint(1, k)
        target = pi(rho.inverse()(a))
        if target == a:
            continue
        w = [rnd() for _ in range(k)]
        w[a - 1] = 1e-6 if target < a else 1e6
        assert abs(kappa(pi, rho, w, q=q)) < 1e-4
        checked += 1
    # kappa <-> Z at 100 random points, k <= 4
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        w = [rnd() for _ in range(k)]
        pi = rng.choice(Permutation.all(k))
        rho = rng.choice(Permutation.all(k))
        cross = 1.0
        for x in range(k):
            for y in range(x + 1, k):
                cross *= (w[y] - q * w[x]) / (w[y] - w[x])
        pred = (-1) ** (pi.length() - rho.length()) * cross * z_partition(pi, rho, w, q)
        err = abs(kappa(pi, rho, w, q=q) - pred)
        worst = max(worst, err)
        assert err < 1e-10
    # reduced-word independence and the quadratic relation, 100 points each
    for _ in range(100):
        k = rng.choice([3, 4])
        pi = rng.choice(Permutation.all(k))
        words = pi.all_reduced_words()[:2]
        cs = [rnd() for _ in range(k)]
        f = PointFunction(k, lambda w, cs=cs: sum(c * v for c, v in zip(cs, w))
                          / (1 + 0.1 * w[0] * w[-1]))
        pt = [rnd() for _ in range(k)]
        vals = []
        for word in words:
            g = f
            for i in reversed(word):
                g = apply_T_pi(Permutation.transposition(k, i), g, q=q)
            vals.append(g(pt))
        if len(vals) == 2:
            err = abs(vals[0] - vals[1])
            worst = max(worst, err)
            assert err < 1e-10
        i = rng.randint(1, k - 1)
        s_i = Permutation.transposition(k, i)
        tf = apply_T_pi(s_i, f, q=q)
        g = PointFunction(k, lambda w: tf(w) + f(w))
        err = abs(apply_T_pi(s_i, g, q=q)(pt) - q * g(pt))
        worst = max(worst, err)
        assert err < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 min"
    _pass(4, f"Bruhat support, vanishing, kappa<->Z, word independence, quadratic; "
             f"max|err| = {worst:.2e} < 1e-10", t0)


# ---------------------------------------------------------------------------
# criterion 5: shift invariance
# ---------------------------------------------------------------------------


def figure_pair():
    qa = UpLeftPath.from_floats((6.5, 0.5), "HHVHHVVHHVVV")
    pa = UpLeftPath.from_floats((6.5, 0.5), "VVHVVVHVHHHH")
    dom_a = SkewDomain(qa, pa, tuple(range(1, 13)))
    cuts_a = [Cut(dbl(5.5, 0.5), dbl(6.5, 1.5)), Cut(dbl(2.5, 1.5), dbl(4.5, 6.5)),
              Cut(dbl(2.5, 1.5), dbl(6.5, 2.5)), Cut(dbl(0.5, 4.5), dbl(5.5, 5.5))]
    qb = UpLeftPath.from_floats((6.5, 0.5), "HVHHVHHVHVVV")
    pb = UpLeftPath.from_floats((6.5, 0.5), "VVVVHVVHHHHH")
    dom_b = SkewDomain(qb, pb, tuple(range(1, 13)))
    cuts_b = [Cut(dbl(5.5, 0.5), dbl(6.5, 1.5)), Cut(dbl(3.5, 1.5), dbl(5.5, 6.5)),
              Cut(dbl(2.5, 2.5), dbl(6.5, 3.5)), Cut(dbl(0.5, 3.5), dbl(5.5, 4.5))]
    # the figure's stated row/column relabelings
    phi = Permutation((1, 3, 6, 2, 4, 5))
    psi = Permutation((2, 1, 4, 5, 3, 6))
    return CutCollection(dom_a, cuts_a), CutCollection(dom_b, cuts_b), phi, psi


def criterion_5_pairs():
    """The random exact pairs of criterion 5: (col_a, col_b, phi, psi, powers, params)."""
    rng = random.Random(23)
    sizes = [(3, 3)] * 12 + [(3, 4)] * 5 + [(4, 4)] * 3
    for (n, m) in sizes:
        k = rng.choice([1, 2])
        col_a, col_b, phi, psi = random_shift_pair(rng, n, m, k)
        params = ModelParams(
            q=0.3,
            row_rapidities=tuple(2.0 + 0.11 * i for i in range(n)),
            col_rapidities=tuple(1.0 + 0.05 * i for i in range(m)),
        )
        powers = [rng.choice([1, 2]) for _ in range(k)]
        yield col_a, col_b, phi, psi, powers, params


def test_criterion_5_shift_invariance():
    t0 = time.time()
    worst = 0.0
    n_pairs = 0
    for col_a, col_b, phi, psi, powers, params in criterion_5_pairs():
        rep = check_shift_invariance(col_a, col_b, phi, psi, powers, params,
                                     method="enumerate", nodes_per_circle=64)
        worst = max(worst, rep.max_abs_error)
        assert rep.passed and rep.max_abs_error < 1e-10, rep
        n_pairs += 1
    assert n_pairs >= 20
    # figure-derived 6x6 pair, first moments, MC at 10^6 samples within 4 sigma
    col_a, col_b, phi, psi = figure_pair()
    validate_shift_isomorphism(col_a, col_b, phi, psi)
    params6 = ModelParams(q=0.4, row_rapidities=tuple(2.0 + 0.1 * i for i in range(6)),
                          col_rapidities=tuple(1.0 + 0.04 * i for i in range(6)))
    rep = check_shift_invariance(col_a, col_b, phi, psi, [1, 1, 1, 1], params6,
                                 method="mc", samples=MC_SAMPLES, seed=17)
    assert rep.passed, rep
    elapsed = time.time() - t0
    assert elapsed < 900, f"runtime {elapsed:.1f}s exceeds 15 min"
    _pass(5, f"{n_pairs} random exact pairs (max|err| = {worst:.2e} < 1e-10) "
             f"+ 6x6 figure pair MC ({rep.details})", t0)


def _dense_k4(us, mats):
    """Reference for a K4 pair graph: condition on variable 0, one GEMM per node."""
    total = 0j
    for i in range(len(us[0])):
        u1, u2, u3 = (us[a] * mats[(0, a)][i] for a in (1, 2, 3))
        inner = (mats[(1, 3)] * u3) @ mats[(2, 3)].T
        total += us[0][i] * (u1 @ (mats[(1, 2)] * inner) @ u2)
    return total


def test_criterion_5_k4_integrals_match_dense_contraction(monkeypatch):
    # the split of the lowest-rank edge stops at roundoff: on both levels of every
    # k = 4 integral of criterion 5 it agrees with the dense outer-variable loop
    from vertexflow import qmoments
    from vertexflow.verify import _cut_moment_query, _shifted_params

    captured = []
    monkeypatch.setattr(qmoments, "pairing_values",
                        lambda fam, integrand, q, *args: captured.append((fam, integrand, q))
                        or {integrand.pi_terms[0][1].images: None})
    for col_a, col_b, phi, psi, powers, params in criterion_5_pairs():
        for col, par in ((col_a, params), (col_b, _shifted_params(params, phi, psi))):
            pts, cols, pi = _cut_moment_query(col, powers)
            if len(pts) == 4:
                qmoment_skew(col.domain, par, MomentQuery(pts, cols, pi), nodes_per_circle=64)
    assert len(captured) == 12
    for fam, integrand, q in captured:
        ((picoef, pi),) = integrand.pi_terms
        ((phi_coef, phis),) = integrand.phi_terms
        assert pi == Permutation.identity(4)  # one DL term: every edge is a cross factor
        fine = qmoments._Grid.build(fam, 64, "q", q)
        for grid in (fine, fine.coarse()):
            us = [grid.dws[a] / grid.nodes[a] * integrand.psi_factors[a](grid.nodes[a])
                  * phis[a](grid.nodes[a]) for a in range(4)]
            mats = {(a, b): grid.cross(a, b) for a in range(4) for b in range(a + 1, 4)}
            want = picoef * phi_coef * _dense_k4(us, mats)
            got = qmoments._pairing_on_grid(grid, integrand)[pi.images]
            assert abs(got - want) <= 1e-14 * abs(want), (got, want)


def test_criterion_5_k4_sums_out_through_the_split_factors(monkeypatch):
    # after the split, both degree-two steps of every rank-1 term take the thin GEMMs
    # through the factors x @ y the split passes down: doubling every x doubles both
    # edges so built and quadruples the integral; the square GEMM would ignore them
    from vertexflow import qmoments
    from vertexflow.verify import _cut_moment_query

    captured = []
    monkeypatch.setattr(qmoments, "pairing_values",
                        lambda fam, integrand, q, *args: captured.append((fam, integrand, q))
                        or {integrand.pi_terms[0][1].images: None})
    col_a, _, _, _, powers, params = next(
        c for c in criterion_5_pairs() if len(_cut_moment_query(c[0], c[4])[0]) == 4)
    pts, cols, pi = _cut_moment_query(col_a, powers)
    qmoment_skew(col_a.domain, params, MomentQuery(pts, cols, pi), nodes_per_circle=64)
    ((fam, integrand, q),) = captured
    ((picoef, _),) = integrand.pi_terms
    ((phi_coef, phis),) = integrand.phi_terms
    grid = qmoments._Grid.build(fam, 64, "q", q)
    us = [grid.dws[a] / grid.nodes[a] * integrand.psi_factors[a](grid.nodes[a])
          * phis[a](grid.nodes[a]) for a in range(4)]
    want = picoef * phi_coef * _dense_k4(
        us, {(a, b): grid.cross(a, b) for a in range(4) for b in range(a + 1, 4)})

    contract = qmoments._contract

    def doubled(us, mats, factors, cached=None, memo=None):
        cached = {key: (2 * x, y) for key, f in (cached or {}).items()
                  for x, y in [qmoments._factored(f, mats[key])]}
        return contract(us, mats, factors, cached, memo)

    monkeypatch.setattr(qmoments, "_contract", doubled)
    got = qmoments._pairing_on_grid(grid, integrand)[pi.images]
    assert abs(got - 4 * want) <= 4e-14 * abs(want), (got, want)


def test_criterion_5_k4_factors_only_the_edges_it_uses(monkeypatch):
    # every edge is ranked on its stride-2 submatrix (N = 96); only the split edge (the
    # far pair (0, 3), of least rank) and the distance-2 pairs of the two thin steps
    # are factored at full size (N = 192); the coarse level reads the rankings as its
    # factors, so it factors nothing
    from vertexflow import qmoments
    from vertexflow.verify import _cut_moment_query

    captured = []
    monkeypatch.setattr(qmoments, "pairing_values",
                        lambda fam, integrand, q, *args: captured.append((fam, integrand, q))
                        or {integrand.pi_terms[0][1].images: None})
    col_a, _, _, _, powers, params = next(
        c for c in criterion_5_pairs() if len(_cut_moment_query(c[0], c[4])[0]) == 4)
    pts, cols, pi = _cut_moment_query(col_a, powers)
    qmoment_skew(col_a.domain, params, MomentQuery(pts, cols, pi), nodes_per_circle=64)
    ((fam, integrand, q),) = captured
    grid = qmoments._Grid.build(fam, 64, "q", q)
    assert [len(w) for w in grid.nodes] == [192] * 4

    shapes, full = [], []
    cross_approx = qmoments._cross_approx

    def counted(mat, *args, **kwargs):
        shapes.append(mat.shape)
        full.extend((a, b) for a in range(4) for b in range(a + 1, 4) if mat is grid.cross(a, b))
        return cross_approx(mat, *args, **kwargs)

    monkeypatch.setattr(qmoments, "_cross_approx", counted)
    qmoments._pairing_on_grid(grid, integrand)
    assert sorted(shapes) == [(96, 96)] * 6 + [(192, 192)] * 3
    assert sorted(full) == [(0, 2), (0, 3), (1, 3)]
    qmoments._pairing_on_grid(grid.coarse(), integrand)
    assert len(shapes) == 9


def _criterion_5_k4_pair():
    from vertexflow.verify import _cut_moment_query

    return next(c for c in criterion_5_pairs() if len(_cut_moment_query(c[0], c[4])[0]) == 4)


def test_criterion_5_k4_shift_check_builds_one_grid(monkeypatch):
    # both sides of the pair have the same poles, so the check ranks the six edges and
    # factors the three it uses once, for both integrals (12 + 6 with a grid per side);
    # the grid dies with the check: a later integral ranks and factors its own
    from vertexflow import qmoments
    from vertexflow.verify import _cut_moment_query

    col_a, col_b, phi, psi, powers, params = _criterion_5_k4_pair()
    shapes = []
    cross_approx = qmoments._cross_approx

    def counted(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return cross_approx(mat, *args, **kwargs)

    monkeypatch.setattr(qmoments, "_cross_approx", counted)
    rep = check_shift_invariance(col_a, col_b, phi, psi, powers, params, method="enumerate",
                                 nodes_per_circle=64)
    assert rep.passed, rep
    assert sorted(shapes) == [(96, 96)] * 6 + [(192, 192)] * 3
    assert qmoments._SHARED.get() is None
    shapes.clear()
    qmoment_skew(col_a.domain, params, MomentQuery(*_cut_moment_query(col_a, powers)),
                 nodes_per_circle=64)
    assert sorted(shapes) == [(96, 96)] * 6 + [(192, 192)] * 3


def test_criterion_5_k4_shared_grid_gives_the_same_bits(monkeypatch):
    # each side's integral on the shared grid equals, bit for bit, its value from a call
    # made on its own
    from vertexflow import verify
    from vertexflow.verify import _cut_moment_query

    col_a, col_b, phi, psi, powers, params = _criterion_5_k4_pair()
    shared = []
    own = verify.qmoment_skew
    monkeypatch.setattr(verify, "qmoment_skew", lambda *args, **kwargs:
                        shared.append(own(*args, **kwargs)) or shared[-1])
    check_shift_invariance(col_a, col_b, phi, psi, powers, params, method="enumerate",
                           nodes_per_circle=64)
    alone = [own(col.domain, par, MomentQuery(*_cut_moment_query(col, powers)), nodes_per_circle=64)
             for col, par in ((col_a, params), (col_b, verify._shifted_params(params, phi, psi)))]
    assert [(r.value, r.error_estimate, r.nodes_per_circle) for r in shared] == \
        [(r.value, r.error_estimate, r.nodes_per_circle) for r in alone]


# ---------------------------------------------------------------------------
# criterion 6: fusion consistency
# ---------------------------------------------------------------------------


HS3 = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1, 1.2),
                  col_spins=(4.0, 4.0, 4.0), boundary_levels=(1, 2, 3))


def test_criterion_6_fusion():
    t0 = time.time()
    # (a) higher-spin integral at s_j = q^{-1/2} equals the Theorem 6.1 value
    q = 0.36
    par_hs = ModelParams(q=q, row_rapidities=(3.0, 3.4), col_rapidities=(1.0, 1.2),
                         col_spins=(q**-0.5, q**-0.5), boundary_levels=(1, 2))
    par_6v = ModelParams(q=q, row_rapidities=(3.0, 3.4),
                         col_rapidities=(q**-0.5, q**-0.5 * 1.2), boundary_levels=(1, 2))
    dom = sc6v_quadrant_domain(2, 2, par_6v)
    worst_a = 0.0
    for pts, cols in [([(1.5, 2.5)], [0]), ([(2.5, 1.5)], [1]),
                      ([(1.5, 2.5), (2.5, 1.5)], [0, 1])]:
        for pi in Permutation.all(len(pts)):
            a = _log(6, "hs unfused", qmoment_higher_spin(
                par_hs, MomentQuery(pts, cols, pi), nodes_per_circle=64))
            b = _log(6, "skew ref", qmoment_skew(
                dom, par_6v, MomentQuery(pts, cols, pi), nodes_per_circle=64))
            err = abs(a.value - b.value)
            worst_a = max(worst_a, err)
            assert err < 1e-8
    # (b) kappa-expansion route equals the direct T_pi evaluation
    worst_b = 0.0
    pts, cols = [(1.5, 2.5), (2.5, 1.5)], [0, 1]
    for pi in Permutation.all(2):
        a = qmoment_higher_spin(HS3, MomentQuery(pts, cols, pi), nodes_per_circle=96)
        b = qmoment_higher_spin_kappa(HS3, MomentQuery(pts, cols, pi), nodes_per_circle=96)
        err = abs(a.value - b.value)
        worst_b = max(worst_b, err)
        assert err < 1e-9
    # (c) shifted observable: exact vs MC at 10^6 samples on a 3x3 window, k=2
    batch = sample_higher_spin(HS3, (3, 3), seed=29, count=MC_SAMPLES)
    pts = [(2.5, 3.5), (3.5, 2.5)]
    for cols, pi in [([1, 2], Permutation((2, 1))), ([1, 1], Permutation.identity(2))]:
        exact = shifted_observable(HS3, pts, cols, pi, nodes_per_circle=96)
        emp, se = shifted_observable(HS3, pts, cols, pi, exact=False, batch=batch)
        sigma = max(se, batched_sigma(np.zeros(20) + se))  # se from the full sample
        err = abs(emp - exact.value.real)
        assert err <= 4 * se + 1e-12, (cols, pi, emp, exact.value, se)
    elapsed = time.time() - t0
    _pass(6, f"unfused reduction (max|err| = {worst_a:.2e} < 1e-8), kappa route "
             f"(max|err| = {worst_b:.2e} < 1e-9), observable MC within 4 sigma", t0)


# ---------------------------------------------------------------------------
# criterion 7: q-Hahn
# ---------------------------------------------------------------------------


def test_criterion_7_qhahn():
    t0 = time.time()
    q, s, z = 0.4, 0.4, 0.7
    # weight stochasticity for |A| <= 6 to 1e-12
    import itertools

    worst_w = 0.0
    for n_colors, amax in ((2, 3), (3, 2)):
        for A in itertools.product(range(amax + 1), repeat=n_colors):
            if sum(A) > 6:
                continue
            B = tuple([1] + [0] * (n_colors - 1))
            tot = 0.0
            for D in itertools.product(*(range(a + 1) for a in A)):
                C = tuple(a + b - d for a, b, d in zip(A, B, D))
                tot += qhahn_weight(A, B, C, D, s, z, q)
            worst_w = max(worst_w, abs(tot - 1))
            assert abs(tot - 1) < 1e-12, A
    # MC vs integral on a 4x4 window, k <= 2, 10^6 samples, 4 sigma
    levels = (1, 2, 3, 4)
    track = [(1.5, 3.5, 0), (2.5, 3.5, 1), (3.5, 4.5, 0)]
    batch = sample_qhahn(q, s, z, (4, 4), levels, seed=31, count=MC_SAMPLES,
                         track=track, keep_edges=False)
    for (a, b, c) in track:
        vals = q ** batch.tracked_heights[(a, b, c)].astype(float)
        exact = _log(7, f"qhahn ({a},{b},{c})", qmoment_qhahn(
            q, s, z, levels, MomentQuery([(a, b)], [c]), nodes_per_circle=96))
        rep = mc_vs_exact(vals, exact.value.real, f"qhahn k=1 ({a},{b},{c})")
        assert rep.passed, rep
    pair = q ** (batch.tracked_heights[(1.5, 3.5, 0)]
                 + batch.tracked_heights[(2.5, 3.5, 1)]).astype(float)
    exact2 = _log(7, "qhahn k=2", qmoment_qhahn(
        q, s, z, levels, MomentQuery([(1.5, 3.5), (2.5, 3.5)], [0, 1]),
        nodes_per_circle=96))
    rep = mc_vs_exact(pair, exact2.value.real, "qhahn k=2")
    assert rep.passed, rep
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    _pass(7, f"stochasticity |A|<=6 (max|err| = {worst_w:.2e} < 1e-12) and "
             f"MC vs integral at 10^6 within 4 sigma", t0)


# ---------------------------------------------------------------------------
# criterion 8: Beta polymer
# ---------------------------------------------------------------------------


def test_criterion_8_beta_polymer():
    t0 = time.time()
    sig, rho = 6.0, 1.5
    mu = (sig - rho) / sig
    t_pt = 4
    analytic = mu ** (t_pt - 1)
    bb = simulate_beta_polymer(sig, rho, 5, {0, 1}, seed=37, count=MC_SAMPLES,
                               keep_points=[(0, 1, t_pt), (0, 3, 5), (1, 2, 5)])
    z1t = bb.value(0, 1, t_pt)
    rep = mc_vs_exact(z1t, analytic, "beta E[Z^(1,t)] MC")
    assert rep.passed, rep
    res = _log(8, "beta (1,t)", beta_moment(sig, rho, [(1, t_pt)], [0], nodes_per_circle=64))
    assert abs(res.value - analytic) < 1e-6
    # k = 2 mixed-delay joint moment vs MC
    prod = bb.value(1, 2, 5) * bb.value(0, 3, 5)
    res2 = _log(8, "beta mixed k=2", beta_moment(
        sig, rho, [(2, 5), (3, 5)], [0, 1], Permutation((2, 1)), nodes_per_circle=64))
    rep = mc_vs_exact(prod, res2.value.real, "beta mixed-delay k=2")
    assert rep.passed, rep
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    _pass(8, f"E[Z^(1,{t_pt})] = mu^{t_pt-1} by MC and integral (|err| = "
             f"{abs(res.value - analytic):.2e} < 1e-6); mixed-delay k=2 within 4 sigma", t0)


# ---------------------------------------------------------------------------
# criterion 9: numerical robustness
# ---------------------------------------------------------------------------


def test_criterion_9_robustness(scaled_contours):
    t0 = time.time()
    # every adaptive run above certified node-doubling stability; re-assert it
    if RICHARDSON_LOG:
        worst = max(err for _, _, err in RICHARDSON_LOG)
        assert worst < 1e-9, f"recorded Richardson estimate {worst:.2e} >= 1e-9"
    # representative queries per integral criterion under +-10% radius scaling
    drifts = []
    # criterion 2 representative
    q = 0.3
    zetas = [1.05, 1.2]
    base = ramp_case(zetas, [2, 1], [0, 1], [Permutation((2, 1))], q)[(2, 1)].value
    for scale in (1.1, 0.9):
        pert = ramp_case(zetas, [2, 1], [0, 1], [Permutation((2, 1))], q,
                         contour_scale=scale)[(2, 1)].value
        drifts.append(abs(pert - base))
    # criterion 3 representative
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    query = MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation((2, 1)))
    base = qmoment_skew(dom, params, query, nodes_per_circle=64).value
    for scale in (1.1, 0.9):
        with scaled_contours(scale):
            pert = qmoment_skew(dom, params, query, nodes_per_circle=64).value
        drifts.append(abs(pert - base))
    # criterion 6 representative (higher spin)
    base = qmoment_higher_spin(HS3, query, nodes_per_circle=96).value
    for scale in (1.1, 0.9):
        with scaled_contours(scale):
            pert = qmoment_higher_spin(HS3, query, nodes_per_circle=96).value
        drifts.append(abs(pert - base))
    # criterion 7 representative (q-Hahn)
    qq = MomentQuery([(1.5, 3.5)], [0])
    base = qmoment_qhahn(0.4, 0.4, 0.7, (1, 2, 3, 4), qq, nodes_per_circle=96).value
    for scale in (1.1, 0.9):
        with scaled_contours(scale):
            pert = qmoment_qhahn(0.4, 0.4, 0.7, (1, 2, 3, 4), qq, nodes_per_circle=96).value
        drifts.append(abs(pert - base))
    # criterion 8 representative (Beta polymer)
    base = beta_moment(6.0, 1.5, [(2, 4)], [0], nodes_per_circle=64).value
    for scale in (1.05, 0.95):
        with scaled_contours(scale):
            pert = beta_moment(6.0, 1.5, [(2, 4)], [0], nodes_per_circle=64).value
        drifts.append(abs(pert - base))
    worst = max(drifts)
    assert worst < 1e-9, f"radius perturbation drift {worst:.2e} >= 1e-9"
    _pass(9, f"node-doubling estimates < 1e-9 on {len(RICHARDSON_LOG)} runs; "
             f"+-10% radius drift max = {worst:.2e} < 1e-9", t0)
