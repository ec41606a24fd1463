"""Verification-engine checks: local relation, shift invariance, identities, MC bridge."""

import hashlib
import itertools
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vertexflow import verify
from vertexflow.errors import ValidationError
from vertexflow.hecke import Permutation, PointFunction
from vertexflow.lattice import Cut, ModelParams, SkewDomain, UpLeftPath, dbl
from vertexflow.sampler import make_rng
from vertexflow.verify import (
    CutCollection,
    _ybe_error,
    check_exchange,
    check_hecke_quadratic,
    check_identity_suite,
    check_lemma44,
    check_local_relation,
    check_local_relation_fused,
    check_qidentity,
    check_shift_invariance,
    check_ybe,
    cut_crossing,
    cut_greater,
    find_shift_isomorphism,
    local_relation_error,
    mc_vs_exact,
    random_shift_pair,
    random_skew_domain,
    validate_shift_isomorphism,
)
from vertexflow.weights import _sc6v_transitions, lattice_sum


def test_local_relation_r0_is_trivial():
    assert local_relation_error(0.4, 1.7 + 0.2j, 2, 1, []) < 1e-15


def test_local_relation_case2_value():
    # i <= c < j: both sides carry the (q-1)(1-z)/(q-z) correction
    q, z = 0.45, 1.6 + 0.4j
    i, j, c = 0, 2, 1
    lhs = 0j
    from vertexflow.weights import r_weight

    for (k_out, l_out) in {(i, j), (j, i)}:
        w = r_weight(i, j, k_out, l_out, z, q)
        lhs += w * q ** (1 if l_out > c else 0)
    base = 1.0
    corr = (q - 1) * (1 - z) / (q - z)
    assert abs(lhs - (base + corr)) < 1e-13
    assert local_relation_error(q, z, i, j, [c]) < 1e-13


def test_local_relation_random_all_r():
    for r in range(5):
        rep = check_local_relation(r, trials=300, seed=r)
        assert rep.passed, rep
        rep = check_local_relation_fused(r, trials=150, seed=r)
        assert rep.passed, rep


def test_ybe_hundred_triples():
    from vertexflow.verify import check_ybe

    rep = check_ybe(trials=100, seed=9, n=2)
    assert rep.passed and rep.max_abs_error < 1e-12


def test_ybe_three_colors():
    # n = 3 lets all three lines carry distinct nonzero colors, which n = 2 never reaches
    from vertexflow.verify import check_ybe

    rep = check_ybe(trials=20, seed=0, n=3)
    assert rep.passed and rep.max_abs_error < 1e-12


def ybe_sides_by_boundary(q, x, y, z, n, weight=lambda w: w):
    """Per-boundary reference: {incoming (a1, a2, a3): ({outgoing: weight} of the left
    side, the same of the right side)}, one ``lattice_sum`` per start and side.  With
    ``weight=abs`` each vertex weight is replaced by its modulus, so an entry is the
    sum of |products| that its roundoff scales with."""
    def transitions(spectral, state):
        outs, ws = _sc6v_transitions(spectral, q, state)
        return outs, [weight(w) for w in ws]

    def side(*vertices):
        return [(partial(transitions, spectral), slots, slots) for spectral, slots in vertices]

    lhs = side((x / y, (1, 2)), (x / z, (0, 2)), (y / z, (0, 1)))
    rhs = side((y / z, (0, 1)), (x / z, (0, 2)), (x / y, (1, 2)))
    return {a: (lattice_sum(lhs, a), lattice_sum(rhs, a))
            for a in itertools.product(range(n + 1), repeat=3)}


SPECTRAL = st.builds(complex, st.floats(0.5, 2.0), st.floats(-0.5, 0.5))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), q=st.floats(0.1, 0.9), x=SPECTRAL, y=SPECTRAL, z=SPECTRAL)
# x/y - q = 0.0069: R weights near 144 cancel to boundary sums of order 1
@example(n=1, q=0.4375, x=0.5 + 0j, y=1.125 + 0j, z=0.5 + 0j)
def test_ybe_sweep_matches_per_boundary_sums(n, q, x, y, z):
    assume(all(abs(s - q) > 1e-3 for s in (x / y, x / z, y / z)))
    sides = ybe_sides_by_boundary(q, x, y, z, n).values()
    want = max(abs(left.get(b, 0) - right.get(b, 0))
               for left, right in sides for b in left.keys() | right.keys())
    # both errors are roundoff of the boundary sums, so they agree to 1e-15 of the
    # largest sum of |products| on either side, not of the largest sum, which may cancel
    scale = max(w for pair in ybe_sides_by_boundary(q, x, y, z, n, weight=abs).values()
                for side in pair for w in side.values())
    assert abs(_ybe_error(q, x, y, z, n) - want) <= 1e-15 * max(1.0, scale)


def test_identity_suite_all_pass():
    for rep in check_identity_suite(seed=3):
        assert rep.passed, (rep.name, rep.max_abs_error)


def test_identity_suite_subset():
    reports = check_identity_suite(which=["ybe", "qidentity"], seed=1)
    assert [r.name for r in reports] == ["yang_baxter", "q_identity"]


def _cli_size_reports(seed):
    """The local relations at the sizes and seeds `vertexflow verify` runs, then the suite."""
    reports = []
    for r in range(5):
        reports.append(check_local_relation(r, trials=200, seed=seed + r))
        reports.append(check_local_relation_fused(r, trials=100, seed=seed + r))
    return reports + check_identity_suite(seed=seed)


def test_identity_reports_are_pinned_bit_for_bit():
    # every field of the 150 reports of seeds 0-9, the error by its repr: a rewrite of
    # the checks must draw the same trials and compute the same bits
    lines = [f"{seed} {r.name} {r.status} {r.max_abs_error!r} {r.samples_or_cases} {r.details}"
             for seed in range(10) for r in _cli_size_reports(seed)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "376e8e0d1953cdd6b63beceed508a528cc3ec75e78afbc62319b2bf50cec4167"


def _nan_first(fn, value):
    """``fn``, except that its first call returns ``value(result)``: NaN in one trial."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return value(out) if len(calls) == 1 else out

    return wrapped


@pytest.mark.parametrize("check, callee, value", [
    (partial(check_local_relation, 2, trials=50), "local_relation_error", lambda e: np.nan),
    (partial(check_local_relation_fused, 2, trials=50), "local_relation_fused_error", lambda e: np.nan),
    (partial(check_ybe, trials=3), "_ybe_error", lambda e: np.nan),
    (check_exchange, "row_operator", lambda c: c * np.nan),
    (check_lemma44, "apply_T_pi", lambda f: PointFunction(f.k, lambda w: np.nan)),
    (check_qidentity, "qidentity_coef", lambda c: np.nan),
    (check_hecke_quadratic, "apply_T_pi", lambda f: PointFunction(f.k, lambda w: np.nan)),
])
def test_a_nan_trial_fails_its_check(monkeypatch, check, callee, value):
    # the worst error lets a NaN win, and a check passes only below its tolerance
    assert check(seed=0).passed
    monkeypatch.setattr(verify, callee, _nan_first(getattr(verify, callee), value))
    rep = check(seed=0)
    assert rep.status == "fail" and math.isnan(rep.max_abs_error), rep


def test_random_skew_domain_retries_only_an_order_error(monkeypatch):
    # two random paths with equal step counts can only be out of order; any other
    # error is a fault and propagates instead of ending as "failed to draw"
    def broken(*args):
        raise TypeError("broken constructor")

    monkeypatch.setattr(verify, "SkewDomain", broken)
    with pytest.raises(TypeError, match="broken constructor"):
        random_skew_domain(random.Random(0), 2, 2)


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------


def standard_domain(n, m, steps_q, steps_p):
    start = (2 * m + 1, 1)
    return SkewDomain(UpLeftPath(start, steps_q), UpLeftPath(start, steps_p),
                      tuple(range(1, n + m + 1)))


PARAMS3 = ModelParams(q=0.3, row_rapidities=(2.0, 2.12, 2.24),
                      col_rapidities=(1.0, 1.05, 1.1))


def test_identity_isomorphism_trivial_equality():
    dom = standard_domain(3, 3, "HHHVVV", "VVVHHH")
    cuts = [Cut(dbl(2.5, 0.5), dbl(3.5, 2.5)), Cut(dbl(0.5, 1.5), dbl(2.5, 3.5))]
    col = CutCollection(dom, cuts)
    phi = Permutation.identity(3)
    psi = Permutation.identity(3)
    rep = check_shift_invariance(col, col, phi, psi, [1, 1], PARAMS3,
                                 method="enumerate", nodes_per_circle=64)
    assert rep.passed and rep.max_abs_error < 1e-10


def test_row_shift_template():
    # classic single-cut shift: slide the cut one step down-right along Q and P
    dom = standard_domain(3, 3, "HHHVVV", "VVVHHH")
    c1 = CutCollection(dom, [Cut(dbl(0.5, 1.5), dbl(2.5, 3.5))])  # rows {2,3}, cols {1,2}
    c2 = CutCollection(dom, [Cut(dbl(1.5, 0.5), dbl(3.5, 2.5))])  # rows {1,2}, cols {2,3}
    iso = find_shift_isomorphism(c1, c2)
    assert iso is not None
    phi, psi = iso
    assert frozenset(phi(r) for r in c1.cuts[0].rows()) == c2.cuts[0].rows()
    rep = check_shift_invariance(c1, c2, phi, psi, [2], PARAMS3,
                                 method="enumerate", nodes_per_circle=64)
    assert rep.passed, rep


def test_random_shift_pairs_exact():
    rng = random.Random(11)
    for _ in range(4):
        k = rng.choice([1, 2])
        col_a, col_b, phi, psi = random_shift_pair(rng, 3, 3, k)
        rep = check_shift_invariance(col_a, col_b, phi, psi, [1] * k, PARAMS3,
                                     method="enumerate", nodes_per_circle=64)
        assert rep.passed, rep


def test_invalid_isomorphism_names_condition():
    dom = standard_domain(3, 3, "HHHVVV", "VVVHHH")
    c1 = CutCollection(dom, [Cut(dbl(0.5, 1.5), dbl(2.5, 3.5))])
    c2 = CutCollection(dom, [Cut(dbl(0.5, 0.5), dbl(2.5, 2.5))])
    with pytest.raises(ValidationError, match="phi"):
        validate_shift_isomorphism(c1, c2, Permutation.identity(3), Permutation.identity(3))


def test_cut_order_and_crossing():
    a = Cut(dbl(2.5, 1.5), dbl(4.5, 6.5))
    b = Cut(dbl(2.5, 1.5), dbl(6.5, 2.5))
    assert cut_crossing(a, b)
    assert not cut_greater(a, b) and not cut_greater(b, a)
    lo = Cut(dbl(5.5, 0.5), dbl(6.5, 1.5))
    assert cut_greater(a, lo) and not cut_greater(lo, a)


def test_mc_route_on_small_pair():
    rng = random.Random(2)
    col_a, col_b, phi, psi = random_shift_pair(rng, 3, 3, 1)
    rep = check_shift_invariance(col_a, col_b, phi, psi, [1], PARAMS3,
                                 method="mc", samples=40000, seed=5)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# mc_vs_exact bridge
# ---------------------------------------------------------------------------


def test_mc_vs_exact_passes_on_calibrated_sample():
    rng = make_rng(7)
    vals = rng.normal(2.0, 0.5, size=20000)
    rep = mc_vs_exact(vals, 2.0, "calibrated")
    assert rep.passed


def test_mc_vs_exact_rerun_logic():
    rng = make_rng(8)
    calls = []

    def rerun(n):
        calls.append(n)
        return rng.normal(1.0, 0.1, size=n)

    vals = rng.normal(1.05, 0.1, size=2000)  # biased first draw
    rep = mc_vs_exact(vals, 1.0, "biased", rerun=rerun)
    assert calls and calls[0] == 8000
    assert "rerun" in rep.details


def test_mc_vs_exact_reads_its_fourth_positional_argument_as_the_sigma_factor():
    # bench/harness.py passes the sigma factor positionally: mc_vs_exact(vals, exact, name, 4.0, ...)
    vals = make_rng(9).normal(0.0, 1.0, size=20000)
    means = np.array([b.mean() for b in np.array_split(vals, 20)])
    exact = vals.mean() + 3 * means.std(ddof=1) / np.sqrt(20)  # 3 sigma off
    calls = []

    def rerun(n):
        calls.append(n)
        return vals

    rep = mc_vs_exact(vals, exact, "3 sigma", 4.0, rerun=rerun)
    assert rep.passed and not calls and "z=3.00" in rep.details
    rep = mc_vs_exact(vals, exact, "3 sigma", 2.0, rerun=rerun)
    assert not rep.passed and calls == [4 * len(vals)]


def test_mc_vs_exact_miss_without_rerun_fails_with_its_sample_size():
    vals = make_rng(8).normal(1.05, 0.1, size=2000)  # 0.05 off at a sigma near 0.002
    rep = mc_vs_exact(vals, 1.0, "biased")
    assert rep.status == "fail" and rep.samples_or_cases == 2000
    assert rep.details.startswith("sigma=") and "rerun" not in rep.details


@pytest.mark.parametrize("check", [partial(check_local_relation, 2, trials=0),
                                   partial(check_local_relation_fused, 2, trials=0),
                                   partial(check_ybe, trials=-5)])
def test_a_check_without_trials_raises(check):
    # a check that ran no trial vouches for nothing
    with pytest.raises(ValidationError, match="at least one trial"):
        check()


def test_suites_are_keyed_by_their_cli_names():
    assert list(verify.SUITES) == ["local", "identities", "shift", "moments"]
    assert verify.SUITES["identities"] is check_identity_suite


def test_moments_suite_does_not_depend_on_its_seed():
    # it draws nothing, so no report may differ between seeds, not even in its details
    assert verify.SUITES["moments"](seed=1) == verify.SUITES["moments"](seed=2)


def test_checkreport_reproducibility():
    r1 = check_local_relation(3, trials=100, seed=42)
    r2 = check_local_relation(3, trials=100, seed=42)
    assert r1.max_abs_error == r2.max_abs_error
    assert "seed=42" in r1.details
