"""Permutation services, Demazure-Lusztig action, kappa coefficients, Z functions."""

import itertools
import random

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vertexflow.errors import SingularEvaluationError, ValidationError
from vertexflow.hecke import (
    Permutation,
    PointFunction,
    apply_T_pi,
    kappa,
    kappa_table,
    row_operator,
    z_partition,
)
from vertexflow.weights import _sc6v_transitions, lattice_sum

random.seed(19)


def rnd():
    return complex(random.uniform(-2, 2), random.uniform(-2, 2))


def rand_rational(k):
    cs = [rnd() for _ in range(k)]
    ds = [complex(random.uniform(-0.4, 0.4), random.uniform(-0.4, 0.4)) for _ in range(k)]

    def ev(w):
        out = 1.0
        for c, d, wa in zip(cs, ds, w):
            out = out * (1 + c * wa) / (1 - d * wa)
        return out + w[0] * w[-1]

    return PointFunction(k, ev)


def T(i, f, **kwargs):
    """T_i f: T_pi at the transposition sigma_i."""
    return apply_T_pi(Permutation.transposition(f.k, i), f, **kwargs)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_basics():
    pi = Permutation((3, 1, 2))
    assert pi.length() == 2
    assert pi.inverse().images == (2, 3, 1)
    assert (pi * pi.inverse()).images == (1, 2, 3)
    assert pi.act((10, 20, 30)) == (20, 30, 10)
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))


def test_reduced_word_is_reduced_and_correct():
    for pi in Permutation.all(4):
        word = pi.reduced_word()
        assert len(word) == pi.length()
        rebuilt = Permutation.identity(4)
        for i in word:
            rebuilt = rebuilt * Permutation.transposition(4, i)
        assert rebuilt.images == pi.images


def test_all_reduced_words_longest_s3():
    w0 = Permutation((3, 2, 1))
    words = set(w0.all_reduced_words())
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_bruhat_vs_subword_definition():
    # rho <= pi iff rho is a subword of some reduced word of pi
    for pi in Permutation.all(3):
        words = pi.all_reduced_words()
        for rho in Permutation.all(3):
            sub = False
            for word in words:
                for r in range(len(word) + 1):
                    for combo in itertools.combinations(word, r):
                        p = Permutation.identity(3)
                        for i in combo:
                            p = p * Permutation.transposition(3, i)
                        if p.images == rho.images and len(combo) == rho.length():
                            sub = True
            assert rho.bruhat_leq(pi) == sub, (rho, pi)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_Ti_of_constant_is_q():
    q = 0.37
    one = PointFunction.constant(3, 1.0)
    for i in (1, 2):
        assert abs(T(i, one, q=q)([rnd() for _ in range(3)]) - q) < 1e-13


def test_T1_on_geometric_factor():
    # T_1 (eta w1 / (1 - eta w1)) = (eta w2 / (1 - eta w2)) (1 - q eta w1)/(1 - eta w1)
    q = 0.42
    eta = rnd()
    f = PointFunction(2, lambda w: eta * w[0] / (1 - eta * w[0]))
    pt = [rnd(), rnd()]
    lhs = T(1, f, q=q)(pt)
    rhs = (eta * pt[1] / (1 - eta * pt[1])) * (1 - q * eta * pt[0]) / (1 - eta * pt[0])
    assert abs(lhs - rhs) < 1e-12


def test_hecke_quadratic_relation():
    q = 0.37
    for _ in range(10):
        f = rand_rational(3)
        i = random.randint(1, 2)
        tf = T(i, f, q=q)
        g = PointFunction(3, lambda w: tf(w) + f(w))
        pt = [rnd() for _ in range(3)]
        assert abs(T(i, g, q=q)(pt) - q * g(pt)) < 1e-11


def test_polymer_variant_relations():
    # T~_i(1) = 1 and T~_i^2 = id
    f = rand_rational(3)
    pt = [rnd() for _ in range(3)]
    one = PointFunction.constant(3, 1.0)
    assert abs(T(2, one, variant="polymer")(pt) - 1) < 1e-13
    tw = T(1, T(1, f, variant="polymer"), variant="polymer")(pt)
    assert abs(tw - f(pt)) < 1e-11


def test_word_independence():
    q = 0.31
    w0 = Permutation((3, 2, 1))
    f = rand_rational(3)
    pt = [rnd() for _ in range(3)]

    def apply_word(word):
        out = f
        for i in reversed(word):
            out = T(i, out, q=q)
        return out(pt)

    v1 = apply_word((1, 2, 1))
    v2 = apply_word((2, 1, 2))
    v3 = apply_T_pi(w0, f, q=q)(pt)
    assert abs(v1 - v2) < 1e-12 and abs(v1 - v3) < 1e-12


def test_T_pi_on_symmetric_function_scales():
    # T_pi f = q^{l(pi)} f for symmetric f
    q = 0.44
    f = PointFunction(3, lambda w: (w[0] + w[1] + w[2]) * (w[0] * w[1] * w[2]) + 1)
    for pi in Permutation.all(3):
        pt = [rnd() for _ in range(3)]
        assert abs(apply_T_pi(pi, f, q=q)(pt) - q ** pi.length() * f(pt)) < 1e-11


def test_coincident_point_raises():
    q = 0.5
    f = rand_rational(2)
    with pytest.raises(SingularEvaluationError):
        T(1, f, q=q)([1.0 + 0j, 1.0 + 0j])


# ---------------------------------------------------------------------------
# kappa coefficients
# ---------------------------------------------------------------------------


def test_kappa_rank_two_closed_forms():
    q = 0.37
    w = [rnd(), rnd()]
    s1 = Permutation((2, 1))
    iden = Permutation((1, 2))
    assert abs(kappa(s1, s1, w, q=q) - (w[1] - q * w[0]) / (w[1] - w[0])) < 1e-13
    assert abs(kappa(s1, iden, w, q=q) - (q - 1) * w[1] / (w[1] - w[0])) < 1e-13
    assert kappa(iden, iden, w, q=q) == 1
    assert kappa(iden, s1, w, q=q) == 0.0


def test_kappa_bruhat_support():
    q = 0.37
    for pi in Permutation.all(3):
        table = kappa_table(pi, [rnd() for _ in range(3)], q=q)
        for rho in Permutation.all(3):
            val = table.get(rho.images, 0.0)
            if abs(val) > 1e-13:
                assert rho.bruhat_leq(pi)


def test_kappa_via_monomial_expansion():
    # independent oracle: solve T_pi m_e = sum_rho kappa t_rho m_e on monomials
    q = 0.29
    k = 3
    w = [rnd() for _ in range(k)]
    pi = Permutation((3, 1, 2))
    table = kappa_table(pi, w, q=q)
    exps = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
            (0, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 1, 0), (1, 2, 3)]
    mats = []
    vals = []
    perms = Permutation.all(k)
    for e in exps:
        f = PointFunction(k, lambda v, e=e: v[0] ** e[0] * v[1] ** e[1] * v[2] ** e[2])
        row = [f([w[rho(s + 1) - 1] for s in range(k)]) for rho in perms]
        mats.append(row)
        vals.append(apply_T_pi(pi, f, q=q)(w))
    sol, *_ = np.linalg.lstsq(np.array(mats), np.array(vals), rcond=None)
    for rho, coef in zip(perms, sol):
        assert abs(coef - table.get(rho.images, 0.0)) < 1e-9, rho


def test_kappa_vanishing_prop_3_4_2():
    q = 0.41
    for _ in range(60):
        k = 4
        pi = random.choice(Permutation.all(k))
        rho = random.choice(Permutation.all(k))
        rinv = rho.inverse()
        pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)
                 if rinv(a) > rinv(b)]
        if not pairs:
            continue
        a, b = random.choice(pairs)
        z0 = rnd()
        w = [rnd() for _ in range(k)]
        w[a - 1] = z0
        w[b - 1] = q * z0
        assert abs(kappa(pi, rho, w, q=q)) < 1e-10


def test_kappa_limits_prop_3_4_3():
    q = 0.41
    for _ in range(60):
        k = 3
        pi = random.choice(Permutation.all(k))
        rho = random.choice(Permutation.all(k))
        a = random.randint(1, k)
        target = pi(rho.inverse()(a))
        w = [rnd() for _ in range(k)]
        if target < a:
            w[a - 1] = 1e-6
            assert abs(kappa(pi, rho, w, q=q)) < 1e-4
        elif target > a:
            w[a - 1] = 1e6
            assert abs(kappa(pi, rho, w, q=q)) < 1e-4


def test_kappa_bounded_at_coincidences_prop_3_4_1():
    # prod_{i<j}(w_j - w_i) kappa stays bounded approaching w_i = w_j
    q = 0.35
    for _ in range(40):
        k = 3
        pi = random.choice(Permutation.all(k))
        rho = random.choice(Permutation.all(k))
        w0 = [rnd() for _ in range(k)]
        vals = []
        for eps in (1e-2, 1e-4, 1e-6):
            w = list(w0)
            w[1] = w[0] + eps
            pref = 1.0
            for a in range(k):
                for b in range(a + 1, k):
                    pref *= w[b] - w[a]
            vals.append(abs(pref * kappa(pi, rho, w, q=q)))
        assert max(vals) < 1e6 and vals[-1] <= 10 * (vals[0] + 1e-9), vals


# ---------------------------------------------------------------------------
# lattice partition functions and row operators
# ---------------------------------------------------------------------------


def test_z_identity_closed_form():
    q = 0.37
    k = 3
    w = [rnd() for _ in range(k)]
    got = z_partition(Permutation.identity(k), Permutation.identity(k), w, q)
    want = 1.0
    for a in range(k):
        for b in range(a + 1, k):
            want *= (w[b] - w[a]) / (w[b] - q * w[a])
    assert abs(got - want) < 1e-12


def test_z_impossible_routing_vanishes():
    # pi = id forces color a to exit column a; rho = id with permuted target
    # realized via kappa support: Z_id^rho = 0 for rho != id
    q = 0.37
    w = [rnd() for _ in range(3)]
    for rho in Permutation.all(3):
        if rho.images == (1, 2, 3):
            continue
        assert abs(z_partition(Permutation.identity(3), rho, w, q)) < 1e-14


def test_kappa_equals_scaled_z():
    q = 0.37
    for k in (2, 3, 4):
        for _ in range(6):
            w = [rnd() for _ in range(k)]
            pi = random.choice(Permutation.all(k))
            rho = random.choice(Permutation.all(k))
            cross = 1.0
            for a in range(k):
                for b in range(a + 1, k):
                    cross *= (w[b] - q * w[a]) / (w[b] - w[a])
            pred = (-1) ** (pi.length() - rho.length()) * cross * z_partition(pi, rho, w, q)
            assert abs(kappa(pi, rho, w, q=q) - pred) < 1e-9


def test_exchange_relation_row_operators():
    q = 0.37
    ys = [rnd() for _ in range(2)]
    x1, x2 = rnd(), rnd()
    for (k1, k2) in [(0, 1), (1, 2), (0, 2)]:
        lhs = row_operator(k1, x1, ys, q, 2) @ row_operator(k2, x2, ys, q, 2)
        rhs = (x2 - q * x1) / (x2 - x1) * row_operator(k2, x2, ys, q, 2) @ row_operator(k1, x1, ys, q, 2)
        rhs = rhs - x1 * (1 - q) / (x2 - x1) * row_operator(k2, x1, ys, q, 2) @ row_operator(k1, x2, ys, q, 2)
        assert np.abs(lhs - rhs).max() < 1e-11


def test_kappa_rank_mismatch_names_its_argument():
    pi = Permutation((2, 1))
    with pytest.raises(ValidationError) as exc:
        kappa_table(pi, [0.5], q=0.4)
    assert exc.value.field == "w"
    with pytest.raises(ValidationError) as exc:
        kappa(pi, Permutation((1, 2, 3)), [0.5, 1.5], q=0.4)
    assert exc.value.field == "rho"


def row_operator_by_basis(k_color, x, ys, q, n_colors):
    """Per-basis reference for ``row_operator``: one ``lattice_sum`` per column state."""
    m = len(ys)
    basis = list(itertools.product(range(n_colors + 1), repeat=m))
    index = {b: i for i, b in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    steps = [(partial(_sc6v_transitions, x / y, q), (col, m), (col, m)) for col, y in enumerate(ys)]
    for i_tup in basis:
        for final, amp in lattice_sum(steps, i_tup + (k_color,)).items():
            if final[m] == 0:
                mat[index[final[:m]], index[i_tup]] += amp
    return mat


SPECTRAL = st.builds(complex, st.floats(0.5, 2.0), st.floats(-0.5, 0.5))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), data=st.data(), q=st.floats(0.15, 0.85),
       x=SPECTRAL)
def test_row_operator_sweep_matches_per_basis_sums(n, m, data, q, x):
    ys = data.draw(st.lists(SPECTRAL, min_size=m, max_size=m))
    assume(all(abs(x / y - q) > 1e-3 for y in ys))
    k_color = data.draw(st.integers(0, n))
    want = row_operator_by_basis(k_color, x, ys, q, n)
    got = row_operator(k_color, x, ys, q, n)
    assert got.shape == want.shape == ((n + 1) ** m,) * 2
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
