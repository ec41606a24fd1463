"""The adaptive loop's error estimates against exact values.

A fixed-seed corpus of small integrals whose values are known exactly:
skew-domain moments by enumeration, higher-spin 2x2 windows by enumeration and
first Beta-polymer moments by their linear recursion.  Each integral is
evaluated at n = 4, 8, ..., 128 nodes per circle on one set of nested grids,
and the stopping rule of ``qmoments._adaptive`` is replayed on those levels.
"""

import random
from unittest import mock

from vertexflow import qmoments
from vertexflow.hecke import Permutation
from vertexflow.lattice import ModelParams
from vertexflow.qmoments import (
    MomentQuery,
    MomentResult,
    _estimate,
    _Grid,
    _reads_quarter,
    _three_level,
    beta_moment,
    qmoment_higher_spin_multi,
    qmoment_skew,
    qmoment_skew_multi,
)
from vertexflow.sampler import beta_first_moment, enumerate_higher_spin, enumerate_sc6v
from vertexflow.verify import _cut_moment_query, random_shift_pair, random_skew_domain

TOP = 128
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)
# A true error counts as truncation, which an estimate must see, above 1e-13 and above
# ten times the integral's error at TOP nodes: these integrals have no truncation left
# there, only their roundoff (up to ~1e-10 for a Beta circle of radius 0.05 (sigma - rho))
ROUNDOFF_ERR = 1e-13


def nested_levels(call, top=TOP):
    """{n: {key: I(n)}} for n = top, top/2, ..., 4, for the integral that ``call()``
    passes to the adaptive loop; each level is the stride-2 subset of the one above.
    {-n: {key: I~(n)}} holds the n-grid turned by half a spacing where the loop reads it."""
    levels = {}

    def replay(fam, variant, q, evaluate, nodes_per_circle, tol, cap):
        grid, n = _Grid.build(fam, top, variant, q), top
        while n >= 4:
            levels[n] = evaluate(grid)
            if _reads_quarter(n):
                levels[-n] = evaluate(_Grid.build(fam, n, variant, q, turn=0.5))
            grid, n = grid.coarse(), n // 2
        return {key: MomentResult(v, 0.0, top) for key, v in levels[top].items()}

    with mock.patch.object(qmoments, "_adaptive", replay):
        call()
    return levels


def skew_cases(rng, sizes, count):
    """(levels, {key: exact}) for random skew domains with random queries, all pi."""
    for _ in range(count):
        n_rows, m_cols = rng.choice(sizes)
        dom = random_skew_domain(rng, n_rows, m_cols)
        params = ModelParams(q=rng.uniform(0.25, 0.45),
                             row_rapidities=tuple(2.0 + 0.1 * i + rng.uniform(0, 0.05)
                                                  for i in range(n_rows)),
                             col_rapidities=tuple(1.0 + 0.05 * j + rng.uniform(0, 0.03)
                                                  for j in range(m_cols)))
        path = dom.p_path.points()
        k = rng.randint(1, 3)
        idx = sorted((rng.randrange(len(path)) for _ in range(k)), reverse=True)
        pts = [(path[i][0] / 2, path[i][1] / 2) for i in idx]  # alphas up, betas down
        cols = sorted(rng.randint(0, n_rows + m_cols) for _ in range(k))
        pis = Permutation.all(k)
        ens = enumerate_sc6v(dom, params)
        levels = nested_levels(lambda: qmoment_skew_multi(dom, params, pts, cols, pis))
        yield levels, {pi.images: ens.moment(pts, pi.act(cols), params.q) for pi in pis}


def hs_cases(rng, count):
    """Higher-spin 2x2 windows with random parameters and queries, all pi."""
    spots = [(1.5, 2.5), (1.5, 1.5), (2.5, 2.5), (2.5, 1.5)]  # alphas up, betas down
    for _ in range(count):
        params = ModelParams(q=rng.uniform(0.3, 0.6),
                             row_rapidities=(rng.uniform(4, 5), rng.uniform(5.5, 6.5)),
                             col_rapidities=(1.0, rng.uniform(1.05, 1.2)),
                             col_spins=(rng.uniform(3, 5), rng.uniform(3, 5)),
                             boundary_levels=(1, 2))
        k = rng.randint(1, 2)
        pts = [spots[i] for i in sorted(rng.randrange(4) for _ in range(k))]
        if any(b1 < b2 for (_, b1), (_, b2) in zip(pts, pts[1:])):
            continue
        cols = sorted(rng.randint(0, 2) for _ in range(k))
        pis = Permutation.all(k)
        ens = enumerate_higher_spin(params, (2, 2))
        levels = nested_levels(lambda: qmoment_higher_spin_multi(params, pts, cols, pis))
        yield levels, {pi.images: ens.moment(pts, pi.act(cols), params.q) for pi in pis}


def beta_cases(rng, count):
    """First moments E[Z_(c)^(m, t)] of the delayed Beta polymer."""
    for _ in range(count):
        sigma = rng.uniform(3, 8)
        rho = rng.uniform(0.5, 0.6 * sigma)
        t = rng.randint(2, 6)
        delay = rng.randint(0, t - 1)
        m = rng.randint(1, t - delay)
        levels = nested_levels(lambda: beta_moment(sigma, rho, [(m, t)], [delay]))
        yield levels, {(1,): beta_first_moment(sigma, rho, delay, m, t)}


def corpus(seed=2026, skew=14, hs=6, beta=8,
           sizes=((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))):
    rng = random.Random(seed)
    yield from skew_cases(rng, sizes, skew)
    yield from hs_cases(rng, hs)
    yield from beta_cases(rng, beta)


def audit(levels, exact):
    """Failures of the stopping rule on one integral: (kind, key, n, tol, estimate, error)
    for each level n = 16..128 where the rule stops with true error >= tol, or where its
    sharp estimate falls short of a truncation error (see ROUNDOFF_ERR)."""
    bad = []
    for key, want in exact.items():
        roundoff = max(ROUNDOFF_ERR, 10 * abs(levels[TOP][key] - want))
        for n, fine, coarse, coarser, turned in replayed(levels, key):
            err = abs(fine - want)
            if coarser is not None:
                sharp = max(_three_level(fine, coarse, coarser), abs(fine - turned))
                if err > roundoff and sharp < err:
                    bad.append(("short", key, n, None, sharp, err))
            for tol in TOLS:
                est = _estimate(fine, coarse, coarser, turned, tol)
                if est < tol and not err < tol:
                    bad.append(("stop", key, n, tol, est, err))
    return bad


def replayed(levels, key):
    """(n, I(n), I(n/2), I(n/4), I~(n)) for n = 16..128 as the loop reads them:
    I(n/4) and I~(n) are None where ``_reads_quarter(n)`` is false."""
    for n in (16, 32, 64, 128):
        quarter = _reads_quarter(n)
        yield (n, levels[n][key], levels[n // 2][key],
               levels[n // 4][key] if quarter else None, levels[-n][key] if quarter else None)


def test_stopping_rule_holds_on_the_enumeration_corpus():
    cases = list(corpus())
    assert len(cases) >= 24
    stops = sharp_stops = 0
    for levels, exact in cases:
        assert audit(levels, exact) == []
        for key in exact:
            for n, fine, coarse, coarser, turned in replayed(levels, key):
                for tol in TOLS:
                    est = _estimate(fine, coarse, coarser, turned, tol)
                    stops += est < tol
                    sharp_stops += est < tol <= abs(fine - coarse)
    # the corpus exercises the sharp rule, not only the two-level one
    assert sharp_stops >= 20 and stops > sharp_stops


def k4_query():
    params = ModelParams(q=0.3, row_rapidities=(2.0, 2.11, 2.22),
                         col_rapidities=(1.0, 1.05, 1.1))
    col = random_shift_pair(random.Random(1), 3, 3, 2)[0]
    pts, cols, pi = _cut_moment_query(col, [2, 2])
    return col.domain, params, MomentQuery(pts, cols, pi)


def test_k4_below_roundoff_stays_unconverged():
    # without its roundoff floor the three-level estimate reads ~1e-22 here
    dom, params, query = k4_query()
    res = qmoment_skew(dom, params, query, nodes_per_circle=64, tol=1e-17, cap=64)
    assert not res.converged and res.error_estimate >= 1e-17
    assert res.nodes_per_circle == 64


def test_k4_quarter_level_matches_dense_contraction():
    # n/4 is two levels below the finest grid: its edges must not take the n/2
    # level's rankings, which have twice its size
    captured = []
    with mock.patch.object(qmoments, "pairing_values",
                           lambda fam, integrand, q, *args: captured.append((fam, integrand, q))
                           or {integrand.pi_terms[0][1].images: None}):
        qmoment_skew(*k4_query())
    ((fam, integrand, q),) = captured
    ((picoef, pi),), ((phi_coef, phis),) = integrand.pi_terms, integrand.phi_terms
    assert pi == Permutation.identity(4)
    quarter = _Grid.build(fam, 64, "q", q).coarse().coarse()
    us = [quarter.dws[a] / quarter.nodes[a] * integrand.psi_factors[a](quarter.nodes[a])
          * phis[a](quarter.nodes[a]) for a in range(4)]
    mats = {(a, b): quarter.cross(a, b) for a in range(4) for b in range(a + 1, 4)}
    want = 0j  # condition on variable 0, one GEMM per node
    for i in range(len(us[0])):
        u1, u2, u3 = (us[a] * mats[(0, a)][i] for a in (1, 2, 3))
        want += us[0][i] * (u1 @ (mats[(1, 2)] * ((mats[(1, 3)] * u3) @ mats[(2, 3)].T)) @ u2)
    got = qmoments._pairing_on_grid(quarter, integrand)[pi.images]
    assert abs(got - picoef * phi_coef * want) <= 1e-14 * abs(want)
