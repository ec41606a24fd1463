"""Contour construction, classification margins, and nesting invariants."""

import numpy as np
import pytest

from vertexflow.contours import (
    build_contours,
    build_contours_beta,
    build_contours_qhahn,
    phase_denominator,
)
from vertexflow.errors import ContourError
from vertexflow.qmoments import NODE_CAP


def test_single_pole_family():
    # circles around 1 plus q^{2a}-scaled circles around 0
    q = 0.5
    fam = build_contours([1.0], [1 / q], 2, q)
    fam.validate(64)
    for a in (1, 2):
        circles = fam.per_variable[a - 1]
        zero = [c for c in circles if abs(c.center) < 1e-12]
        pole = [c for c in circles if abs(c.center - 1) < 0.5]
        assert len(zero) == 1 and len(pole) == 1
    r1 = [c for c in fam.per_variable[0] if abs(c.center) < 1e-12][0].radius
    r2 = [c for c in fam.per_variable[1] if abs(c.center) < 1e-12][0].radius
    assert abs(r2 / r1 - q**2) < 1e-12


def test_zero_circles_are_q_nested():
    q = 0.4
    fam = build_contours([1.0, 1.3], [1 / (q * 1.0), 1 / (q * 1.3)], 3, q)
    fam.validate(64)
    radii = [[c for c in circles if abs(c.center) < 1e-12][0].radius
             for circles in fam.per_variable]
    for a in range(2):
        assert radii[a + 1] / q < radii[a]  # q^{-1} circle_{a+1} inside circle_a


def test_feasible_and_infeasible_rapidity_pairs():
    q = 0.4
    fam = build_contours([1 / 1.0, 1 / 1.3], [1 / (q * 1.0), 1 / (q * 1.3)], 2, q)
    fam.validate(64)
    with pytest.raises(ContourError):
        # u = (1, 0.4) with q = 0.4: u_2 = q u_1, the excluded pole hits a pole
        build_contours([1 / 1.0, 1 / 0.4], [1 / (q * 1.0), 1 / (q * 0.4)], 2, q).validate(64)


def test_margin_rule_rejects_coarse_grids():
    q = 0.45
    fam = build_contours([1.0, 1.18], [1 / q], 2, q)
    fam.validate(128)
    with pytest.raises(ContourError):
        fam.validate(8)  # 10x quadrature resolution exceeds the margin


@pytest.mark.parametrize("fam", [
    build_contours([1.0, 1.18], [1 / 0.45], 2, 0.45),
    build_contours([1.0], [1 / 0.5], 2, 0.5),
    build_contours_qhahn(0.4, 0.7, 0.4, 2),
    build_contours_beta(6.0, 1.5, 3),
    build_contours_beta(6.0, 5.5, 1),
])
def test_start_count_is_the_least_accepted_power_of_two(fam):
    n = fam.start_count()
    assert n >= 8 and n & (n - 1) == 0
    fam.validate(n)
    if n > 8:
        with pytest.raises(ContourError):
            fam.validate(n // 2)
    assert fam.scaled(0.5).start_count() <= n  # smaller circles, wider gaps


def test_scaled_copy_preserves_validity():
    q = 0.4
    fam = build_contours([1.0], [1 / q], 2, q)
    fam.scaled(1.1).validate(64)
    fam.scaled(0.9).validate(64)


def test_qhahn_family():
    fam = build_contours_qhahn(0.4, 0.7, 0.4, 2)
    fam.validate(96)
    # inside pole 1/s, excluded s and z^2/s
    assert any(abs(p - 2.5) < 1e-12 for p in fam.inside_poles)
    assert any(abs(p - 0.4) < 1e-9 for p in fam.outside_poles)
    assert any(abs(p - 0.49 / 0.4) < 1e-9 for p in fam.outside_poles)


def test_permuted_poles_give_the_same_family():
    # poles are taken in their canonical order, so the two sides of a shift pair, whose
    # rapidities are the same up to a permutation, get one family, circle for circle
    q = 0.3
    zetas = [0.5, 1 / 1.05, 1 / 2.11, 1 / 2.22, 1.0]
    want = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas] + [9.0], 4, q)
    for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        zs = [zetas[i] for i in order]
        got = build_contours([1 / t for t in zs], [9.0] + [1 / (q * t) for t in zs], 4, q)
        assert got == want


def test_beta_family_nesting():
    sigma, rho = 6.0, 1.5
    fam = build_contours_beta(sigma, rho, 3)
    radii = [fam.per_variable[a][0].radius for a in range(3)]
    # contour a+1 contains the (-1)-shift of contour a
    for a in range(2):
        assert radii[a + 1] > radii[a] + 1
    assert radii[2] < sigma - rho  # excluded poles stay outside
    with pytest.raises(ContourError):
        build_contours_beta(2.0, 1.2, 3)  # span too small to nest three shifts


NESTED_CASES = [(2, 96), (3, 48), (4, 64)]  # (k, requested nodes per circle)


def _nested_family(k):
    q = 0.4
    return build_contours([1.0, 1.3], [1 / (q * 1.0), 1 / (q * 1.3)], k, q)


def _levels(n0):
    n = n0
    while n <= NODE_CAP:
        yield n
        n *= 2


@pytest.mark.parametrize("k,n0", NESTED_CASES)
def test_node_levels_are_nested(k, n0):
    # the n/2 grid is the stride-2 subset of the n grid, weights doubled
    fam = _nested_family(k)
    for a in range(1, k + 1):
        for n in _levels(n0):
            w, dw = fam.nodes(a, n)
            w_half, dw_half = fam.nodes(a, n // 2)
            np.testing.assert_array_equal(w_half, w[::2])
            np.testing.assert_allclose(dw_half, 2 * dw[::2], rtol=1e-15, atol=0)


@pytest.mark.parametrize("k,n0", NESTED_CASES)
def test_shared_circle_nodes_stay_apart(k, n0):
    # variables sharing a pole circle keep >= spacing/D between their nodes
    fam = _nested_family(k)
    d = phase_denominator(k)
    shared = [c for c in fam.per_variable[0] if all(c in cs for cs in fam.per_variable)]
    assert shared
    for n in [n0 // 2] + list(_levels(n0)):
        for circ in shared:
            turns = []
            for a in range(1, k + 1):
                idx = fam.per_variable[a - 1].index(circ)
                w = fam.nodes(a, n)[0][idx * n:(idx + 1) * n]
                turns.append(np.sort(np.angle(w - circ.center) / (2 * np.pi) % 1.0))
            for a in range(k):
                for b in range(a + 1, k):
                    pos = np.searchsorted(turns[a], turns[b])
                    gaps = [np.abs(turns[b] - turns[a][pos % n]),
                            np.abs(turns[b] - turns[a][pos - 1])]
                    gap = np.minimum(*gaps)
                    gap = np.minimum(gap, 1 - gap) * n  # in spacings, around the circle
                    assert gap.min() >= 1 / d - 1e-6, (k, n, a, b, gap.min())
