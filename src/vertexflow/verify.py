"""Executable verification of the paper-level identities; the acceptance engine.

Every check returns a CheckReport carrying the worst error, the case count,
and enough seed/context detail to reproduce a failure exactly; ``_report`` builds
each one from its verdict: ``err < tol`` for exact checks, ``_within`` (4 sigma)
for Monte Carlo ones.  The randomized identity checks share one trial loop,
``_trials``, over a ``case(rng)`` that draws one trial and returns its error; a NaN
error is the worst one and fails the check.  ``SUITES`` holds the suites that
``vertexflow verify --suite`` runs, keyed by their names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import PathOrderError, ValidationError
from .hecke import Permutation, PointFunction, apply_T_pi, row_operator
from .lattice import Cut, ModelParams, SkewDomain, UpLeftPath, rectangle_domain
from .qmoments import MomentQuery, qmoment_skew, qmoment_skew_multi, shared_grids
from .sampler import enumerate_sc6v, sample_sc6v
from .weights import _hs_transitions, _sc6v_transitions, qidentity_coef, tensor_sweep, vertex_tensor

Z_FACTOR = 4.0  # Monte Carlo checks pass within this many standard errors
LOCAL_TOL = 1e-12  # the local relations hold to this absolute error


def _within(err, sigma, z_factor: float = Z_FACTOR) -> bool:
    """The one Monte Carlo rule: |mean - target| = ``err`` is within ``z_factor`` sigma."""
    return err <= z_factor * sigma + 1e-12


@dataclass
class CheckReport:
    name: str
    status: str  # "pass" | "fail"
    max_abs_error: float
    samples_or_cases: int
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _report(name, err, cases, passed: bool, details="") -> CheckReport:
    """The one report builder; ``passed`` is the check's verdict on ``err``."""
    return CheckReport(name, "pass" if passed else "fail", float(err), cases, details)


def _trials(name, case, trials: int, seed: int, tol, details="") -> CheckReport:
    """The one trial loop: ``trials`` errors ``case(rng)`` from one ``random.Random(seed)``,
    reported at their largest, which is NaN if any of them is."""
    if trials < 1:
        raise ValidationError(f"a check needs at least one trial, got trials={trials}")
    rng = random.Random(seed)
    err = float(np.max([case(rng) for _ in range(trials)]))
    return _report(name, err, trials, err < tol, f"seed={seed}{details}")


# ---------------------------------------------------------------------------
# local relation
# ---------------------------------------------------------------------------


def local_relation_error(q, z, i: int, j: int, colors) -> float:
    """|LHS - RHS| of the single-vertex local relation in reduced form.

    i is the incoming vertical color, j the incoming horizontal color; the
    expectation runs over the outgoing right color l of the R_z vertex.
    """
    r = len(colors)
    lhs = 0j
    for (_, l_out), w in zip(*_sc6v_transitions(z, q, (i, j))):
        lhs += w * q ** sum(1 for c in colors if l_out > c)
    rhs = (q - q**r * z) / (q - z)
    for t, c in enumerate(colors, start=1):
        rhs += (q * z - 1) / (q - z) * q ** (t - 1 + (1 if i > c else 0))
        rhs += (1 - z) / (q - z) * q ** (t - 1 + (1 if i > c else 0) + (1 if j > c else 0))
    return abs(lhs - rhs)


def local_relation_fused_error(q, s, u, comp_i, j: int, colors) -> float:
    """Fused variant: vertex with weights L_u^(s), vertical composition comp_i."""
    r = len(colors)
    n = len(comp_i)
    lhs = 0j
    for (*_, l_out), w in zip(*_hs_transitions(u, s, q, (*comp_i, j))):
        lhs += w * q ** sum(1 for c in colors if l_out > c)
    su = s * u
    rhs = (1 - q**r * su) / (1 - su)
    for t, c in enumerate(colors, start=1):
        tail = sum(comp_i[c:]) if c < n else 0
        rhs += (q * su - s * s) / (1 - su) * q ** (t - 1 + tail)
        rhs += (s * s - su) / (1 - su) * q ** (t - 1 + tail + (1 if j > c else 0))
    return abs(lhs - rhs)


def check_local_relation(r: int, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Prop-style local relation at fixed r, random (q, z, colors, incomings), colors 0..5."""

    def case(rng, n_colors=5):
        q = rng.uniform(0.05, 0.95)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z - q) < 1e-3:
            z += 0.1
        colors = sorted(rng.randint(0, n_colors) for _ in range(r))
        i = rng.randint(0, n_colors)
        j = rng.randint(0, n_colors)
        return local_relation_error(q, z, i, j, colors)

    return _trials(f"local_relation_r{r}", case, trials, seed, LOCAL_TOL)


def check_local_relation_fused(r: int, trials: int = 1000, seed: int = 0) -> CheckReport:
    def case(rng, n_colors=3):
        q = rng.uniform(0.05, 0.95)
        s = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        if abs(1 - s * u) < 1e-2:
            u += 0.2
        comp = [rng.randint(0, 3) for _ in range(n_colors)]
        colors = sorted(rng.randint(0, n_colors) for _ in range(r))
        j = rng.randint(0, n_colors)
        return local_relation_fused_error(q, s, u, comp, j, colors)

    return _trials(f"local_relation_fused_r{r}", case, trials, seed, LOCAL_TOL)


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------


@dataclass
class CutCollection:
    """Cuts on one named skew domain with the standard coloring (1..N+M)."""

    domain: SkewDomain
    cuts: list  # list[Cut]


def _se(a, b):  # a searrow b: a weakly above-left of b
    return a[0] <= b[0] and a[1] >= b[1]


def _nw(a, b):  # a nwarrow b: a weakly below-right of b
    return a[0] >= b[0] and a[1] <= b[1]


def cut_crossing(c1: Cut, c2: Cut) -> bool:
    return (_nw(c1.q_point, c2.q_point) and _se(c1.p_point, c2.p_point)) or (
        _se(c1.q_point, c2.q_point) and _nw(c1.p_point, c2.p_point)
    )


def cut_greater(c1: Cut, c2: Cut) -> bool:
    """c1 > c2: c1 up-left of c2; defined only for non-crossing cut pairs."""
    if c1 == c2 or cut_crossing(c1, c2):
        return False
    return _se(c1.q_point, c2.q_point) and _se(c1.p_point, c2.p_point)


def _interval_bijection(sets_a, sets_b, size: int):
    """Bijection phi on {1..size} with phi(sets_a[i]) = sets_b[i], or None.

    Exists iff every signature atom (cell of the Venn partition) has equal
    cardinality on both sides; built by matching atoms in sorted order.
    """
    sig_a, sig_b = {}, {}
    for r in range(1, size + 1):
        key_a = frozenset(i for i, s in enumerate(sets_a) if r in s)
        key_b = frozenset(i for i, s in enumerate(sets_b) if r in s)
        sig_a.setdefault(key_a, []).append(r)
        sig_b.setdefault(key_b, []).append(r)
    if set(sig_a) != set(sig_b):
        return None
    phi = [0] * size
    for key, rows_a in sig_a.items():
        rows_b = sig_b[key]
        if len(rows_a) != len(rows_b):
            return None
        for ra, rb in zip(sorted(rows_a), sorted(rows_b)):
            phi[ra - 1] = rb
    return Permutation(tuple(phi))


def find_shift_isomorphism(col_a: CutCollection, col_b: CutCollection):
    """(phi, psi) realizing a shift-isomorphism, or None if none exists."""
    n, m = col_a.domain.n_rows, col_a.domain.m_cols
    if (n, m) != (col_b.domain.n_rows, col_b.domain.m_cols):
        return None
    if len(col_a.cuts) != len(col_b.cuts):
        return None
    phi = _interval_bijection([c.rows() for c in col_a.cuts],
                              [c.rows() for c in col_b.cuts], n)
    psi = _interval_bijection([c.cols() for c in col_a.cuts],
                              [c.cols() for c in col_b.cuts], m)
    if phi is None or psi is None:
        return None
    try:
        validate_shift_isomorphism(col_a, col_b, phi, psi)
    except ValidationError:
        return None
    return phi, psi


def validate_shift_isomorphism(col_a: CutCollection, col_b: CutCollection,
                               phi: Permutation, psi: Permutation) -> None:
    """Raise with the violated condition named; silent when valid."""
    for i, ca in enumerate(col_a.cuts):
        for j, cb in enumerate(col_a.cuts):
            if cut_greater(ca, cb) != cut_greater(col_b.cuts[i], col_b.cuts[j]):
                raise ValidationError(
                    f"cut order violated: ({i}, {j}) ordering differs between collections"
                )
    for i, (ca, cb) in enumerate(zip(col_a.cuts, col_b.cuts)):
        if frozenset(phi(r) for r in ca.rows()) != cb.rows():
            raise ValidationError(f"phi(Row[C_{i+1}]) != Row[C~_{i+1}]")
        if frozenset(psi(c) for c in ca.cols()) != cb.cols():
            raise ValidationError(f"psi(Col[C_{i+1}]) != Col[C~_{i+1}]")


def _cut_moment_query(col: CutCollection, powers):
    """Sorted (points, colors, pi) encoding E[q^{sum a_i h[C_i]}]."""
    pts, cols = [], []
    for cut, a in zip(col.cuts, powers):
        color = col.domain.q_path.index_of(cut.q_point)
        for _ in range(int(a)):
            pts.append(cut.p_point)
            cols.append(color)
    # both sorts are stable: pi(i) is the point of the i-th smallest color, ties in point order
    order = sorted(range(len(pts)), key=lambda t: (pts[t][0], -pts[t][1]))
    cols_at_point = [cols[t] for t in order]
    by_color = sorted(range(len(pts)), key=cols_at_point.__getitem__)
    points_f = [(pts[t][0] / 2, pts[t][1] / 2) for t in order]
    return points_f, sorted(cols), Permutation(tuple(a + 1 for a in by_color))


def _shifted_params(params: ModelParams, phi: Permutation, psi: Permutation) -> ModelParams:
    return ModelParams(
        q=params.q,
        row_rapidities=phi.act(params.row_rapidities),
        col_rapidities=psi.act(params.col_rapidities),
        col_spins=params.col_spins,
        boundary_levels=params.boundary_levels,
    )


def check_shift_invariance(col_a: CutCollection, col_b: CutCollection,
                           phi: Permutation, psi: Permutation, powers,
                           params: ModelParams, method: str = "enumerate",
                           samples: int = 10**6, seed: int = 0,
                           nodes_per_circle: int = 96, tol: float = 1e-10) -> CheckReport:
    """E[q^{sum a_i h[C_i]}] equality between shift-isomorphic collections.

    method "enumerate": exact oracles on both models plus the integral route,
    reporting both discrepancies.  method "mc": Monte Carlo on both models, equal
    within ``Z_FACTOR`` sigma.  Both read the heights at the (point, color) pairs of
    ``_cut_moment_query``.
    """
    validate_shift_isomorphism(col_a, col_b, phi, psi)
    params_b = _shifted_params(params, phi, psi)
    q = params.q
    pts_a, cols_a2, pi_a = _cut_moment_query(col_a, powers)
    pts_b, cols_b2, pi_b = _cut_moment_query(col_b, powers)
    if method == "enumerate":
        ens_a = enumerate_sc6v(col_a.domain, params)
        ens_b = enumerate_sc6v(col_b.domain, params_b)
        ma = ens_a.moment(pts_a, pi_a.act(cols_a2), q)
        mb = ens_b.moment(pts_b, pi_b.act(cols_b2), q)
        err_enum = abs(ma - mb)
        with shared_grids():  # the two sides have the same poles, so the same grids
            ia = qmoment_skew(col_a.domain, params, MomentQuery(pts_a, cols_a2, pi_a),
                              nodes_per_circle=nodes_per_circle)
            ib = qmoment_skew(col_b.domain, params_b, MomentQuery(pts_b, cols_b2, pi_b),
                              nodes_per_circle=nodes_per_circle)
        err_int = max(abs(ia.value - ma), abs(ib.value - mb), abs(ia.value - ib.value))
        err = max(err_enum, err_int)
        return _report("shift_invariance_exact", err, len(ens_a.entries) + len(ens_b.entries),
                       err < tol, f"enum diff {err_enum:.3e}, integral diff {err_int:.3e}")
    if method != "mc":
        raise ValidationError("method must be 'enumerate' or 'mc'")
    vals = []
    for col, par, stream, pts, colors in ((col_a, params, 0, pts_a, pi_a.act(cols_a2)),
                                          (col_b, params_b, 1, pts_b, pi_b.act(cols_b2))):
        batch = sample_sc6v(col.domain, par, seed + stream, samples)
        expo = np.zeros(samples, dtype=np.int64)
        for p, c in zip(pts, colors):
            expo += batch.heights(p, c)
        obs = q ** expo.astype(float)
        vals.append((obs.mean(), obs.std(ddof=1) / np.sqrt(samples)))
    (ma, sa), (mb, sb) = vals
    sigma = np.hypot(sa, sb)
    err = abs(ma - mb)
    return _report("shift_invariance_mc", err, samples, _within(err, sigma),
                   f"seed={seed}, sigma={sigma:.3e}, z={err / max(sigma, 1e-300):.2f}")


def random_skew_domain(rng: random.Random, n_rows: int, m_cols: int) -> SkewDomain:
    """Random pair Q <= P with the standard coloring 1..N+M."""

    def random_path():
        steps = ["H"] * m_cols + ["V"] * n_rows
        rng.shuffle(steps)
        return "".join(steps)

    start = (2 * m_cols + 1, 1)
    for _ in range(200):
        qs, ps = random_path(), random_path()
        try:
            q_path = UpLeftPath(start, qs)
            p_path = UpLeftPath(start, ps)
            return SkewDomain(q_path, p_path, tuple(range(1, n_rows + m_cols + 1)))
        except PathOrderError:
            continue
    raise ValidationError("failed to draw a random skew domain")


def random_cuts(rng: random.Random, domain: SkewDomain, k: int) -> list:
    qpts = domain.q_path.points()
    ppts = domain.p_path.points()
    cuts = []
    for _ in range(400):
        if len(cuts) == k:
            break
        qp = rng.choice(qpts)
        pp = rng.choice(ppts)
        if qp[0] < pp[0] and qp[1] < pp[1]:
            cuts.append(Cut(qp, pp))
    if len(cuts) < k:
        raise ValidationError("failed to draw cuts")
    return cuts


def random_shift_pair(rng: random.Random, n_rows: int, m_cols: int, k: int):
    """A random shift-isomorphic pair of cut collections on random domains.

    Rejection sampling over at most 4000 draws: draw both sides independently and
    keep geometry pairs admitting a shift-isomorphism (nontrivial pairs dominate at
    these sizes).
    """
    for _ in range(4000):
        dom_a = random_skew_domain(rng, n_rows, m_cols)
        dom_b = random_skew_domain(rng, n_rows, m_cols)
        try:
            cuts_a = random_cuts(rng, dom_a, k)
            cuts_b = random_cuts(rng, dom_b, k)
        except ValidationError:
            continue
        col_a = CutCollection(dom_a, cuts_a)
        col_b = CutCollection(dom_b, cuts_b)
        iso = find_shift_isomorphism(col_a, col_b)
        if iso is not None:
            return col_a, col_b, iso[0], iso[1]
    raise ValidationError("no shift-isomorphic pair found")


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _ybe_error(q, x, y, z, n: int) -> float:
    """Worst |LHS - RHS| of the Yang-Baxter equation over all (n+1)^6 boundary pairs.

    Each side is one ``tensor_sweep`` of its three vertices over the identity on the
    (n+1)^3 incoming labels (a1, a2, a3): axes 0-2 end at the outgoing labels, axes
    3-5 keep the incoming ones, so one sweep sums every boundary pair at once.
    """
    t_xy, t_xz, t_yz = (vertex_tensor(partial(_sc6v_transitions, spectral, q), n + 1)
                        for spectral in (x / y, x / z, y / z))
    start = np.eye((n + 1) ** 3, dtype=complex).reshape((n + 1,) * 6)
    lhs = tensor_sweep([(t_xy, (1, 2)), (t_xz, (0, 2)), (t_yz, (0, 1))], start)
    rhs = tensor_sweep([(t_yz, (0, 1)), (t_xz, (0, 2)), (t_xy, (1, 2))], start)
    return float(np.abs(lhs - rhs).max())


def check_ybe(trials: int = 100, seed: int = 0, n: int = 2) -> CheckReport:
    def case(rng):
        q = rng.uniform(0.1, 0.9)
        x, y, z = (complex(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5)) for _ in range(3))
        return _ybe_error(q, x, y, z, n)

    return _trials("yang_baxter", case, trials, seed, 1e-12, f", n={n}")


def check_exchange(seed: int = 0) -> CheckReport:
    def case(rng, n=2):
        q = rng.uniform(0.15, 0.85)
        ys = [complex(rng.uniform(0.7, 1.4), rng.uniform(-0.3, 0.3)) for _ in range(2)]
        x1 = complex(rng.uniform(0.6, 2.0), rng.uniform(-0.4, 0.4))
        x2 = complex(rng.uniform(0.6, 2.0), rng.uniform(-0.4, 0.4))
        k1, k2 = sorted(rng.sample(range(0, n + 1), 2))
        c11, c22 = row_operator(k1, x1, ys, q, n), row_operator(k2, x2, ys, q, n)
        c21, c12 = row_operator(k2, x1, ys, q, n), row_operator(k1, x2, ys, q, n)
        lhs = c11 @ c22
        rhs = (x2 - q * x1) / (x2 - x1) * c22 @ c11
        rhs = rhs - x1 * (1 - q) / (x2 - x1) * c21 @ c12
        return float(np.abs(lhs - rhs).max())

    return _trials("exchange_relation", case, 10, seed, 1e-11)


def check_lemma44(seed: int = 0) -> CheckReport:
    def case(rng):
        t = rng.randint(1, 4)
        q = rng.uniform(0.15, 0.85)
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
        w = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(t)]
        g = PointFunction(t, lambda ws: (q - 1) * (lam - q * mu * ws[0]) / ((q - lam) * (1 - mu * ws[0])))
        total = (q - lam * q**t) / (q - lam)
        for i in range(t):
            if i:  # T_{sigma^-_[1,i+1]} = T_i T_{i-1} ... T_1, T_1 applied first
                g = apply_T_pi(Permutation.transposition(t, i), g, q=q)
            total = total + g(w)
        rhs = 1.0
        for i in range(t):
            rhs *= (1 - q * mu * w[i]) / (1 - mu * w[i])
        return abs(total - rhs)

    return _trials("lemma_4_4", case, 25, seed, 1e-11)


def check_qidentity(seed: int = 0) -> CheckReport:
    def case(rng):
        m = rng.randint(1, 3)
        q = rng.uniform(0.1, 0.9)
        xs = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(m)]
        ys = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(m)]
        lhs = 1.0
        for j in range(1, m + 1):
            lhs *= ys[j - 1] - q ** (j - m) * xs[j - 1]
        rhs = 0j
        for tau in Permutation.all(m):
            for j in range(m + 1):
                term = qidentity_coef(q, m, j) * q ** (tau.length() - m * (m - 1) // 2)
                for i in range(1, j + 1):
                    term *= xs[tau(i) - 1]
                for i in range(j + 1, m + 1):
                    term *= ys[tau(i) - 1]
                rhs += term
        rhs *= (1 - q) ** m
        return abs(lhs - rhs)

    return _trials("q_identity", case, 50, seed, 1e-12)


def check_hecke_quadratic(seed: int = 0) -> CheckReport:
    def case(rng):
        k = rng.randint(2, 4)
        q = rng.uniform(0.15, 0.85)
        cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
        ds = [complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(k)]

        def f_ev(w):
            out = 1.0
            for c, d, wa in zip(cs, ds, w):
                out = out * (1 + c * wa) / (1 - d * wa)
            return out + w[0] * w[-1]

        f = PointFunction(k, f_ev)
        i = rng.randint(1, k - 1)
        s_i = Permutation.transposition(k, i)
        tf = apply_T_pi(s_i, f, q=q)
        g = PointFunction(k, lambda w: tf(w) + f(w))
        w = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(k)]
        return abs(apply_T_pi(s_i, g, q=q)(w) - q * g(w))  # (T_i - q)(T_i + 1) f

    return _trials("hecke_quadratic", case, 20, seed, 1e-11)


def check_identity_suite(which=None, seed: int = 0) -> list[CheckReport]:
    """Run the named identities ('ybe', 'exchange', 'lemma44', 'qidentity',
    'hecke_quadratic'); None runs all."""
    table = {"ybe": partial(check_ybe, trials=20), "exchange": check_exchange, "lemma44": check_lemma44,
             "qidentity": check_qidentity, "hecke_quadratic": check_hecke_quadratic}
    names = list(table) if which is None else list(which)
    return [table[name](seed=seed) for name in names]


# ---------------------------------------------------------------------------
# Monte Carlo vs exact bridge
# ---------------------------------------------------------------------------


def mc_vs_exact(observable_values: np.ndarray, exact: float, name: str,
                z_factor: float = Z_FACTOR, rerun=None) -> CheckReport:
    """Compare an empirical sample of an observable against an exact value.

    The standard error comes from 20 batch means; a failing comparison reruns
    once at 4x samples via the ``rerun`` callback (guards 1-in-16k flukes).
    """
    def compare(values):
        """(sample size, batch-means sigma, |mean - exact|, within z_factor sigma)."""
        vals = np.asarray(values, dtype=float)
        means = np.array([b.mean() for b in np.array_split(vals, 20)])
        sigma = means.std(ddof=1) / np.sqrt(len(means))
        err = abs(vals.mean() - exact)
        return len(vals), sigma, err, _within(err, sigma, z_factor)

    n, sigma, err, ok = compare(observable_values)
    if ok:
        details = f"sigma={sigma:.3e}, z={err / max(sigma, 1e-300):.2f}"
    elif rerun is not None:
        n, sigma, err, ok = compare(rerun(4 * n))
        details = f"rerun at 4x; sigma={sigma:.3e}"
    else:
        details = f"sigma={sigma:.3e}"
    return _report(name, err, n, ok, details)


# ---------------------------------------------------------------------------
# suites of `vertexflow verify`
# ---------------------------------------------------------------------------


def _suite_local(seed: int) -> list[CheckReport]:
    return [check(r, trials=trials, seed=seed + r) for r in range(5)
            for check, trials in ((check_local_relation, 200), (check_local_relation_fused, 100))]


def _suite_shift(seed: int) -> list[CheckReport]:
    """Three exact checks on random shift-isomorphic pairs of 3x3 domains."""
    rng = random.Random(seed)
    params = ModelParams(q=0.3, row_rapidities=tuple(2.0 + 0.11 * i for i in range(3)),
                         col_rapidities=tuple(1.0 + 0.05 * i for i in range(3)))
    reports = []
    for _ in range(3):
        k = rng.choice([1, 2])
        col_a, col_b, phi, psi = random_shift_pair(rng, 3, 3, k)
        reports.append(check_shift_invariance(col_a, col_b, phi, psi, [1] * k, params,
                                              method="enumerate", nodes_per_circle=64))
    return reports


def _suite_moments(seed: int) -> list[CheckReport]:
    """Theorem 6.1 against enumeration on the 2x2 README domain, for both pi.  It draws
    nothing, so ``seed`` is taken only to fit ``SUITES`` and is not reported."""
    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    ens = enumerate_sc6v(dom, params)
    pts, cols, pis = [(1.5, 2.5), (2.5, 1.5)], [0, 1], Permutation.all(2)
    got = qmoment_skew_multi(dom, params, pts, cols, pis, nodes_per_circle=64)
    reports = []
    for pi in pis:
        err = abs(got[pi.images].value - ens.moment(pts, pi.act(cols), params.q))
        reports.append(_report(f"moment_vs_enumeration_pi{pi.images}", err, len(ens.entries),
                               err < 1e-8))
    return reports


# name -> suite(seed=...); `vertexflow verify --suite all` runs them in this order
SUITES = {"local": _suite_local, "identities": check_identity_suite,
          "shift": _suite_shift, "moments": _suite_moments}
