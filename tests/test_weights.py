"""Weight families against their defining tables, stochasticity, and fusion."""

import itertools
import random
from fractions import Fraction as F

import pytest

from vertexflow.errors import ParameterSingularityError
from vertexflow.weights import (
    fused_weight,
    fused_weight_by_fusion,
    inv,
    l_weight,
    merge_composition,
    phi_factor,
    q_binom,
    q_pochhammer,
    qhahn_row,
    qhahn_weight,
    r_weight,
    tinv,
    z_q,
)


def unit(c, n=3):
    v = [0] * n
    if c > 0:
        v[c - 1] = 1
    return v


# ---------------------------------------------------------------------------
# q-special layer
# ---------------------------------------------------------------------------


def test_pochhammer_basics():
    assert q_pochhammer(0.3, 0.5, 0) == 1
    assert abs(q_pochhammer(0.3, 0.5, 2) - (1 - 0.3) * (1 - 0.15)) < 1e-15
    assert q_pochhammer(F(1, 3), F(1, 2), 3) == (1 - F(1, 3)) * (1 - F(1, 6)) * (1 - F(1, 12))
    with pytest.raises(ValueError):
        q_pochhammer(0.3, 0.5, -1)


def test_qbinom_definition_and_edges():
    q = F(2, 5)
    for n in range(6):
        for m in range(-1, n + 2):
            got = q_binom(n, m, q)
            if m < 0 or m > n:
                assert got == 0
            else:
                want = q_pochhammer(q, q, n) / (q_pochhammer(q, q, m) * q_pochhammer(q, q, n - m))
                assert got == want


def test_zq_matches_inversion_generating_function():
    # brute force over all words with a given color multiset, N <= 6
    q = F(1, 2)
    for n_slots in range(1, 7):
        for comp in itertools.product(range(3), repeat=2):
            if sum(comp) > n_slots:
                continue
            word = [0] * (n_slots - sum(comp))
            for c, m in enumerate(comp, start=1):
                word += [c] * m
            words = set(itertools.permutations(word))
            by_inv = sum(q ** inv(w) for w in words)
            by_tinv = sum(q ** tinv(w) for w in words)
            assert by_inv == by_tinv == z_q(n_slots, comp, q)


# ---------------------------------------------------------------------------
# R weights
# ---------------------------------------------------------------------------


def test_r_weight_table_entries():
    q, z = 0.5, 2.0
    for i in range(3):
        assert r_weight(i, i, i, i, z, q) == 1
    # i < j entries, bottom/left as in the table
    assert abs(r_weight(1, 0, 1, 0, z, q) - q * (z - 1) / (z - q)) < 1e-15
    assert abs(r_weight(1, 0, 0, 1, z, q) - z * (1 - q) / (z - q)) < 1e-15
    assert abs(r_weight(0, 1, 0, 1, z, q) - (z - 1) / (z - q)) < 1e-15
    assert abs(r_weight(0, 1, 1, 0, z, q) - (1 - q) / (z - q)) < 1e-15
    # spec value: swap entry at z=2, q=1/2 is 2/3
    assert abs(r_weight(1, 0, 0, 1, 2.0, 0.5) - 2 / 3) < 1e-15
    assert r_weight(0, 1, 0, 2, z, q) == 0  # conservation violation
    with pytest.raises(ParameterSingularityError):
        r_weight(0, 1, 0, 1, 0.5, 0.5)


def test_r_weight_stochastic():
    q, z = 0.37, 1.8 + 0.3j
    n = 3
    for i in range(n + 1):
        for j in range(n + 1):
            s = sum(r_weight(i, j, k, l, z, q) for k in range(n + 1) for l in range(n + 1))
            assert abs(s - 1) < 1e-12, (i, j, s)


def test_r_weight_stochastic_exact_rational():
    q, z = F(1, 3), F(7, 4)
    for i in range(3):
        for j in range(3):
            s = sum(r_weight(i, j, k, l, z, q) for k in range(3) for l in range(3))
            assert s == 1


def ybe_error(q, x, y, z, n):
    rng = range(n + 1)
    worst = 0
    for a1, a2, a3, b1, b2, b3 in itertools.product(rng, repeat=6):
        lhs = sum(
            r_weight(a2, a3, k2, k3, x / y, q)
            * r_weight(a1, k3, k1, b3, x / z, q)
            * r_weight(k1, k2, b1, b2, y / z, q)
            for k1 in rng for k2 in rng for k3 in rng
        )
        rhs = sum(
            r_weight(a1, a2, k1, k2, y / z, q)
            * r_weight(k1, a3, b1, k3, x / z, q)
            * r_weight(k2, k3, b2, b3, x / y, q)
            for k1 in rng for k2 in rng for k3 in rng
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def test_yang_baxter_numeric():
    assert ybe_error(0.37, 1.3 + 0.2j, 0.8 - 0.1j, 1.9 + 0.4j, 2) < 1e-13


def test_yang_baxter_exact_rational():
    # exact verification at small size, Fraction arithmetic end to end
    q = F(2, 7)
    x, y, z = F(5, 3), F(4, 5), F(9, 7)
    rng = range(2)
    for a1, a2, a3, b1, b2, b3 in itertools.product(rng, repeat=6):
        lhs = sum(
            r_weight(a2, a3, k2, k3, x / y, q)
            * r_weight(a1, k3, k1, b3, x / z, q)
            * r_weight(k1, k2, b1, b2, y / z, q)
            for k1 in rng for k2 in rng for k3 in rng
        )
        rhs = sum(
            r_weight(a1, a2, k1, k2, y / z, q)
            * r_weight(k1, a3, b1, k3, x / z, q)
            * r_weight(k2, k3, b2, b3, x / y, q)
            for k1 in rng for k2 in rng for k3 in rng
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# L weights
# ---------------------------------------------------------------------------


def test_l_weight_entries_and_conservation():
    q, s, z = 0.5, 4.0, 5.0
    assert l_weight((0, 0), 0, (0, 0), 0, z, s, q) == 1
    I = (1, 2)
    want = (1 - s * s * q**3) / (1 - s * z)
    assert abs(l_weight(I, 1, (2, 2), 0, z, s, q) - want) < 1e-14
    # K inconsistent with conservation -> 0
    assert l_weight(I, 1, (1, 2), 0, z, s, q) == 0
    assert l_weight((0, 0), 0, (0, 0), 1, z, s, q) == 0  # would need I_1 >= 1
    with pytest.raises(ParameterSingularityError):
        l_weight(I, 0, I, 0, 1 / s, s, q)


def test_l_weight_stochastic():
    q, s, z = 0.5, 4.0, 5.0
    for I in itertools.product(range(3), repeat=2):
        for j in range(3):
            tot = 0
            for l in range(3):
                K = list(I)
                if j > 0:
                    K[j - 1] += 1
                if l > 0:
                    K[l - 1] -= 1
                if min(K) < 0:
                    continue
                tot += l_weight(I, j, K, l, z, s, q)
            assert abs(tot - 1) < 1e-12, (I, j, tot)


# ---------------------------------------------------------------------------
# fused weights
# ---------------------------------------------------------------------------


def test_fused_weight_reduces_to_r():
    q = 0.45
    for z in (2.3, 1.7 + 0.3j):
        for i, j, k, l in itertools.product(range(3), repeat=4):
            wf = fused_weight(unit(i), unit(j), unit(k), unit(l), z, q, q, q)
            assert abs(wf - r_weight(i, j, k, l, z, q)) < 1e-12


def test_fused_weight_reduces_to_l():
    q, s = 0.5, 4.0
    for z in (5.0, 2.0 + 1.0j):
        for I in itertools.product(range(3), repeat=2):
            for j in range(3):
                for l in range(3):
                    K = list(I)
                    if j > 0:
                        K[j - 1] += 1
                    if l > 0:
                        K[l - 1] -= 1
                    if min(K) < 0:
                        continue
                    wf = fused_weight(list(I), unit(j, 2), K, unit(l, 2), z / s, q, s**-2, q)
                    assert abs(wf - l_weight(I, j, K, l, z, s, q)) < 1e-11


def test_fused_weight_equals_stochastic_fusion_exact():
    # the explicit formula against the defining N x M lattice sum, in Fractions
    q, z, ncol = F(1, 3), F(7, 4), 2
    for n_rows, m_cols in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for A in itertools.product(range(m_cols + 1), repeat=ncol):
            if sum(A) > m_cols:
                continue
            for B in itertools.product(range(n_rows + 1), repeat=ncol):
                if sum(B) > n_rows:
                    continue
                for C in itertools.product(range(m_cols + 1), repeat=ncol):
                    if sum(C) > m_cols:
                        continue
                    D = [a + b - c for a, b, c in zip(A, B, C)]
                    if min(D) < 0 or sum(D) > n_rows:
                        continue
                    lhs = fused_weight(A, B, C, D, z, q**n_rows, q**m_cols, q)
                    rhs = fused_weight_by_fusion(A, B, C, D, z, n_rows, m_cols, q)
                    assert lhs == rhs, (n_rows, m_cols, A, B, C, D)


def test_fused_weight_stochastic():
    q, z = 0.4, 1.6
    qn, qm = q**2, q**3
    rnd = random.Random(2)
    for _ in range(20):
        A = [rnd.randint(0, 2) for _ in range(2)]
        B = [rnd.randint(0, 1) for _ in range(2)]
        if sum(A) > 3 or sum(B) > 2:
            continue
        tot = 0
        for C in itertools.product(range(4), repeat=2):
            D = [a + b - c for a, b, c in zip(A, B, C)]
            if min(D) < 0:
                continue
            tot += fused_weight(A, B, C, D, z, qn, qm, q)
        assert abs(tot - 1) < 1e-11, (A, B, tot)


def test_fused_color_merging():
    # sum over preimages of (C', D') equals the merged-model weight
    q, z = 0.35, 1.9
    qn, qm = q**2, q**2
    theta = (1, 1, 2)  # merge colors {1,2} -> 1, {3} -> 2
    rnd = random.Random(7)
    for _ in range(15):
        A = [rnd.randint(0, 1) for _ in range(3)]
        B = [rnd.randint(0, 1) for _ in range(3)]
        if sum(A) > 2 or sum(B) > 2:
            continue
        Ap = merge_composition(A, theta, 2)
        Bp = merge_composition(B, theta, 2)
        for Cp in itertools.product(range(3), repeat=2):
            Dp = [a + b - c for a, b, c in zip(Ap, Bp, Cp)]
            if min(Dp) < 0:
                continue
            rhs = fused_weight(Ap, Bp, Cp, Dp, z, qn, qm, q)
            lhs = 0
            for C in itertools.product(range(3), repeat=3):
                D = [a + b - c for a, b, c in zip(A, B, C)]
                if min(D) < 0:
                    continue
                if merge_composition(C, theta, 2) != list(Cp):
                    continue
                if merge_composition(D, theta, 2) != list(Dp):
                    continue
                lhs += fused_weight(A, B, C, D, z, qn, qm, q)
            assert abs(lhs - rhs) < 1e-11, (A, B, Cp, Dp)


# ---------------------------------------------------------------------------
# q-Hahn weights
# ---------------------------------------------------------------------------


def test_qhahn_weight_cases():
    q, s, z = 0.4, 0.4, 0.7
    A = (2, 1)
    want = q_pochhammer(s * s / (z * z), q, 3) / q_pochhammer(s * s, q, 3)
    assert abs(qhahn_weight(A, (0, 0), A, (0, 0), s, z, q) - want) < 1e-14
    # any A_i < D_i gives 0
    assert qhahn_weight((1, 0), (0, 0), (0, 1), (1, -1), s, z, q) == 0
    assert qhahn_weight((1, 0), (0, 0), (1, -1), (0, 1), s, z, q) == 0
    # left-entering paths forced up: C must equal A + B - D
    assert qhahn_weight((1, 0), (1, 0), (0, 1), (1, 0), s, z, q) == 0
    assert qhahn_weight((1, 0), (1, 0), (1, 0), (1, 0), s, z, q) != 0


def test_qhahn_stochastic_up_to_size_six():
    q, s, z = 0.4, 0.4, 0.7
    B = (1, 0)
    for A in itertools.product(range(4), repeat=2):
        if sum(A) > 6:
            continue
        tot = 0
        for D in itertools.product(*(range(a + 1) for a in A)):
            C = tuple(a + b - d for a, b, d in zip(A, B, D))
            tot += qhahn_weight(A, B, C, D, s, z, q)
        assert abs(tot - 1) < 1e-12, (A, tot)


def test_qhahn_row_is_exactly_stochastic():
    q, s, z = F(2, 5), F(2, 5), F(7, 10)
    for A in [(0,), (2, 1), (1, 0, 2), (3, 1)]:
        outs, ws = qhahn_row(A, s, z, q)
        assert [tuple(d) for d in outs.tolist()] == list(itertools.product(*(range(a + 1) for a in A)))
        assert sum(ws) == 1
        for D, w in zip(outs.tolist(), ws):
            C = tuple(a - d for a, d in zip(A, D))
            assert w == qhahn_weight(A, (0,) * len(A), C, tuple(D), s, z, q)


def test_phi_factor_singularity():
    with pytest.raises(ParameterSingularityError):
        phi_factor((1,), (1,), 0.5, 1.0, 0.5)  # (y;q)_1 = 0 at y = 1
