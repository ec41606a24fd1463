"""Samplers against exact oracles, seed determinism, and parameter validation."""

import dataclasses
import hashlib
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexflow import sampler
from vertexflow.errors import EnumerationCapError, ParameterRangeError, ValidationError
from vertexflow.lattice import Configuration, ModelParams, dbl, height, height_d, rectangle_domain
from vertexflow.sampler import (
    _thresholds,
    _VertexLaw,
    beta_first_moment,
    enumerate_higher_spin,
    enumerate_sc6v,
    qhahn_boundary_probs,
    sample_higher_spin,
    sample_qhahn,
    sample_sc6v,
    SampleBatch,
    sc6v_quadrant_domain,
    simulate_beta_polymer,
)
from vertexflow.weights import _sc6v_transitions, q_pochhammer


def poch_inf(x, q):
    out, p = 1.0, 1.0
    while p > 1e-18:
        out *= 1 - p * x
        p *= q
    return out


def test_seed_determinism_and_worker_streams():
    params = ModelParams(q=0.4, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom = rectangle_domain(1, 1, (0, 1))
    b1 = sample_sc6v(dom, params, seed=5, count=300)
    b2 = sample_sc6v(dom, params, seed=5, count=300)
    assert np.array_equal(b1.h_edges, b2.h_edges)
    assert np.array_equal(b1.v_edges, b2.v_edges)
    b3 = sample_sc6v(dom, params, seed=5, count=300, workers=3)
    b4 = sample_sc6v(dom, params, seed=5, count=300, workers=3)
    assert np.array_equal(b3.h_edges, b4.h_edges)
    assert not np.array_equal(b1.h_edges, b3.h_edges)  # streams differ by worker


def test_sc6v_one_by_one_probabilities():
    q, z = 0.4, 2.0
    params = ModelParams(q=q, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom = rectangle_domain(1, 1, (0, 1))
    batch = sample_sc6v(dom, params, seed=11, count=200000)
    frac_right = (batch.h_edges[:, 1, 1] == 1).mean()
    frac_up = (batch.v_edges[:, 1, 1] == 1).mean()
    want_right = (z - 1) / (z - q)
    want_up = (1 - q) / (z - q)
    sig = np.sqrt(want_right * want_up / 200000)
    assert abs(frac_right - want_right) < 4 * sig
    assert abs(frac_up - want_up) < 4 * sig


def test_sc6v_empty_boundary_is_deterministic():
    params = ModelParams(q=0.4, row_rapidities=(2.0, 2.2), col_rapidities=(1.0, 1.1))
    dom = rectangle_domain(2, 2, (0, 0, 0, 0))
    batch = sample_sc6v(dom, params, seed=1, count=50)
    assert not batch.h_edges.any() and not batch.v_edges.any()


def test_sc6v_parameter_range_error_names_vertex():
    params = ModelParams(q=0.4, row_rapidities=(0.5,), col_rapidities=(1.0,))  # z < 1
    dom = rectangle_domain(1, 1, (0, 1))
    with pytest.raises(ParameterRangeError, match=r"vertex \(1, 1\)"):
        sample_sc6v(dom, params, seed=0, count=10)


def test_enumerate_degenerate_domain():
    # Q = P: zero vertices, a single entry of weight 1
    from vertexflow.lattice import SkewDomain, UpLeftPath

    params = ModelParams(q=0.4, row_rapidities=(2.0,), col_rapidities=(1.0, 1.1))
    path = UpLeftPath((5, 1), "HVHV")
    dom = SkewDomain(path, path, (0, 1, 1, 3))
    ens = enumerate_sc6v(dom, params)
    assert len(ens.entries) == 1 and ens.entries[0][0] == 1.0


def test_enumerate_sc6v_small_cases():
    params = ModelParams(q=0.4, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom0 = rectangle_domain(1, 1, (0, 0))
    # 1x1 with empty boundary: one configuration of weight 1
    ens0 = enumerate_sc6v(dom0, params)
    assert len(ens0.entries) == 1 and abs(ens0.entries[0][0] - 1) < 1e-15
    dom1 = rectangle_domain(1, 1, (0, 1))
    ens = enumerate_sc6v(dom1, params)
    z, q = 2.0, 0.4
    weights = sorted(w for w, _ in ens.entries)
    assert len(weights) == 2
    assert abs(sum(weights) - 1) < 1e-14
    assert abs(min(weights) - min((z - 1) / (z - q), (1 - q) / (z - q))) < 1e-14


def test_enumerate_sc6v_weights_sum_to_one_random():
    import random

    rng = random.Random(3)
    for _ in range(5):
        params = ModelParams(
            q=rng.uniform(0.2, 0.6),
            row_rapidities=tuple(rng.uniform(1.5, 2.5) for _ in range(2)),
            col_rapidities=tuple(rng.uniform(0.9, 1.2) for _ in range(3)),
        )
        coloring = sorted(rng.randint(0, 3) for _ in range(5))
        dom = rectangle_domain(2, 3, coloring)
        ens = enumerate_sc6v(dom, params)
        assert abs(ens.total_weight() - 1) < 1e-12


def test_enumerate_sc6v_exact_in_fractions():
    from fractions import Fraction as F

    params = ModelParams(q=F(1, 3), row_rapidities=(F(5, 2), F(3)), col_rapidities=(F(1), F(6, 5)))
    ens = enumerate_sc6v(rectangle_domain(2, 2, (0, 1, 1, 2)), params)
    assert all(isinstance(w, F) for w, _ in ens.entries)
    assert ens.total_weight() == 1


def test_enumeration_cap():
    params = ModelParams(q=0.4, row_rapidities=(2.0,) * 5, col_rapidities=(1.0,) * 5)
    dom = rectangle_domain(5, 5, tuple([0] * 5 + [1] * 5))
    with pytest.raises(EnumerationCapError):
        enumerate_sc6v(dom, params)


def test_higher_spin_enumeration_cap_is_4_vertices():
    params = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1),
                         col_spins=(4.0, 4.0), boundary_levels=(1, 2, 3))
    with pytest.raises(EnumerationCapError, match="6 vertices exceeds the cap 4"):
        enumerate_higher_spin(params, (3, 2))


def test_sc6v_colors_above_int8_match_oracle():
    # colors 129 and 130 do not fit int8 edge labels
    params = ModelParams(q=0.4, row_rapidities=(2.0,), col_rapidities=(1.0,))
    dom = rectangle_domain(1, 1, (129, 130))
    ens = enumerate_sc6v(dom, params)
    assert len(ens.entries) == 2
    n = 20000
    batch = sample_sc6v(dom, params, seed=7, count=n)
    outcomes = list(zip(batch.v_edges[:, 1, 1].tolist(), batch.h_edges[:, 1, 1].tolist()))
    for w, cfg in ens.entries:
        freq = outcomes.count((cfg.v_edges[(1, 1)], cfg.h_edges[(1, 1)])) / n
        assert abs(freq - w) <= 4 * np.sqrt(w * (1 - w) / n), (freq, w)


def test_sc6v_frequencies_match_oracle():
    params = ModelParams(q=0.3, row_rapidities=(2.0, 2.4), col_rapidities=(1.0, 1.1))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    ens = enumerate_sc6v(dom, params)
    probs = ens.config_keys()
    batch = sample_sc6v(dom, params, seed=3, count=100000)
    counts = {}
    n_check = 4000
    for i in range(n_check):
        c = batch.config(i)
        key = (tuple(sorted(c.h_edges.items())), tuple(sorted(c.v_edges.items())))
        counts[key] = counts.get(key, 0) + 1
    for key, cnt in counts.items():
        p = probs[key]
        sig = np.sqrt(p * (1 - p) / n_check)
        assert abs(cnt / n_check - p) <= 4 * sig + 5e-3, (cnt / n_check, p)


# ---------------------------------------------------------------------------
# higher spin
# ---------------------------------------------------------------------------


HS_PARAMS = ModelParams(q=0.5, row_rapidities=(5.0, 6.0), col_rapidities=(1.0, 1.1),
                        col_spins=(4.0, 4.0), boundary_levels=(1, 2))


def test_higher_spin_empty_boundary():
    params = ModelParams(q=0.5, row_rapidities=(5.0, 6.0), col_rapidities=(1.0, 1.1),
                         col_spins=(4.0, 4.0), boundary_levels=())
    batch = sample_higher_spin(params, (2, 2), seed=1, count=20)
    assert not batch.h_edges.any() and not batch.v_edges.any()


def test_higher_spin_unfused_reduction():
    # s_j = q^{-1/2} reproduces the SC6V distribution with y' = q^{-1/2} y
    q = 0.36
    params_hs = ModelParams(q=q, row_rapidities=(3.0, 3.4), col_rapidities=(1.0, 1.2),
                            col_spins=(q**-0.5, q**-0.5), boundary_levels=(1, 2))
    ens_hs = enumerate_higher_spin(params_hs, (2, 2))
    assert abs(ens_hs.total_weight() - 1) < 1e-11
    params_6v = ModelParams(q=q, row_rapidities=(3.0, 3.4),
                            col_rapidities=(q**-0.5, q**-0.5 * 1.2), boundary_levels=(1, 2))
    ens_6v = enumerate_sc6v(sc6v_quadrant_domain(2, 2, params_6v), params_6v)
    for pt, c in [((1.5, 2.5), 0), ((2.5, 1.5), 1), ((2.5, 2.5), 0)]:
        assert abs(ens_hs.moment([pt], [c], q) - ens_6v.moment([pt], [c], q)) < 1e-11


def test_higher_spin_sampler_matches_oracle():
    ens = enumerate_higher_spin(HS_PARAMS, (2, 2))
    assert abs(ens.total_weight() - 1) < 1e-11
    batch = sample_higher_spin(HS_PARAMS, (2, 2), seed=9, count=150000)
    q = HS_PARAMS.q
    for pt, c in [((1.5, 2.5), 0), ((2.5, 2.5), 1)]:
        vals = q ** batch.heights(pt, c).astype(float)
        se = vals.std() / np.sqrt(len(vals))
        exact = ens.moment([pt], [c], q)
        assert abs(vals.mean() - exact) <= 4 * se + 1e-4


def test_higher_spin_worker_determinism():
    b1 = sample_higher_spin(HS_PARAMS, (2, 2), seed=5, count=300, workers=3)
    b2 = sample_higher_spin(HS_PARAMS, (2, 2), seed=5, count=300, workers=3)
    assert np.array_equal(b1.h_edges, b2.h_edges) and np.array_equal(b1.v_edges, b2.v_edges)
    b3 = sample_higher_spin(HS_PARAMS, (2, 2), seed=5, count=300, workers=1)
    assert not (np.array_equal(b1.h_edges, b3.h_edges) and np.array_equal(b1.v_edges, b3.v_edges))


@pytest.mark.parametrize("point", [(-0.5, 3.5), (5.5, 1.5)])
def test_quadrant_heights_outside_the_window_raise(point):
    # one window check for stored edges and tracked heights alike
    params = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1, 1.2),
                         col_spins=(4.0,) * 3, boundary_levels=(1, 2, 3))
    batch = sample_higher_spin(params, (3, 3), seed=3, count=10)
    with pytest.raises(ValidationError):
        batch.heights(point, 0)
    with pytest.raises(ValidationError):
        sample_qhahn(0.4, 0.4, 0.7, (2, 2), (1, 2), seed=3, count=10, track=[(*point, 0)])


def test_negative_height_colors_raise():
    # h_{>c} is defined for c >= 0 only; every height reader shares one check
    params = ModelParams(q=0.4, row_rapidities=(2.0, 2.1, 2.2), col_rapidities=(1.0, 1.05, 1.1))
    dom = rectangle_domain(3, 3, (1, 2, 3, 4, 5, 6))
    batch = sample_sc6v(dom, params, seed=7, count=50)
    ens = enumerate_sc6v(rectangle_domain(1, 1, (0, 1)), params)
    with pytest.raises(ValidationError):
        height_d(batch.config(0), dbl(3.5, 3.5), -1)
    with pytest.raises(ValidationError):
        batch.heights((3.5, 3.5), -1)
    with pytest.raises(ValidationError):
        ens.moment([(1.5, 1.5)], [-1], params.q)
    with pytest.raises(ValidationError):
        sample_qhahn(0.4, 0.4, 0.7, (2, 2), (1, 2), seed=3, count=10, track=[(1.5, 1.5, -1)])


def test_grouping_keys_beyond_int64():
    # 70 binary columns: a plain mixed-radix key (2^70 states) would overflow int64
    from vertexflow.sampler import _group

    cols = np.random.default_rng(0).integers(0, 2, size=(70, 100))
    cols = np.concatenate([cols, cols], axis=1)
    cols[0, 100:] ^= 1  # each state has a twin that differs in the first column only
    group, states = _group(list(cols))
    assert len(states) == len({tuple(r) for r in cols.T.tolist()})
    assert [states[g] for g in group] == [tuple(r) for r in cols.T.tolist()]


@st.composite
def vertex_laws(draw):
    """Incoming-state columns, a transitions table over their states, uniforms and an
    output dtype.  Rows have 1..9 outcomes (padded widths 1..16) with zero weights
    among them; one state or many; 1..8 columns of radix up to 2^40, so some key
    spaces outgrow the batch and are re-ranked.  The uniforms include 0, the largest
    double below 1 and values at and one ulp around the boundaries of the rows' cdfs."""
    dtypes = st.sampled_from([np.int8, np.int16, np.int64])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_cols = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    radix = draw(st.sampled_from([2, 5, 2**40]))
    pool = np.unique(rng.integers(0, radix, (draw(st.sampled_from([1, 12])), n_cols)), axis=0)
    states = pool[rng.integers(0, len(pool), n)]
    parts = list(states.T.astype(np.int64 if radix > 100 else draw(dtypes)))
    out_len = draw(st.integers(1, 4))
    table = {}
    for state in pool.tolist():
        length = draw(st.integers(1, 9))
        w = rng.random(length) * (rng.random(length) < 0.7)
        w[rng.integers(length)] += w.sum() == 0
        outs = rng.integers(-100, 100, (length, out_len)).tolist()
        table[tuple(state)] = (outs, (w / w.sum()).tolist())
    top = np.nextafter(1.0, 0)
    u = rng.random(n)
    for i in rng.integers(0, n, min(n, 8)):
        cdf = np.cumsum(table[tuple(states[i].tolist())][1])
        x = cdf[rng.integers(len(cdf))] / cdf[-1]
        u[i] = min((np.nextafter(x, 0), x, np.nextafter(x, 2))[rng.integers(3)], top)
    u[rng.integers(0, n, 2)] = (0.0, top)
    return parts, table, u, draw(dtypes)


@settings(max_examples=300, deadline=None)
@given(vertex_laws())
def test_vertex_law_draws_match_per_sample_inverse_cdf(case):
    # each sample takes the first outcome whose cumulative weight exceeds u times its
    # row total, the last one if none does (u * total can round up to the total)
    parts, table, u, dtype = case
    want = []
    for i in range(len(u)):
        outs, w = table[tuple(int(c[i]) for c in parts)]
        cdf = np.cumsum(np.clip(w, 0, None))
        want.append(outs[min(int(np.searchsorted(cdf, u[i] * cdf[-1], side="right")), len(cdf) - 1)])
    got = _VertexLaw(table.__getitem__).draw(parts, u, (1, 1), dtype)
    assert got.dtype == dtype
    assert np.array_equal(got, np.array(want, dtype=dtype).T)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 50), st.floats(0, 50, allow_subnormal=False)),
                min_size=1, max_size=9).filter(lambda w: sum(w) > 0),
       st.floats(0.5, 2))
def test_thresholds_are_the_least_passing_uniforms(weights, total):
    # u * total >= c in floating point exactly when u >= the threshold of c; c / total
    # misses that threshold by an ulp now and then, either way (15 / 22 * 22 < 15)
    cdf = np.cumsum(weights) * (total / sum(weights))
    thr = _thresholds(cdf)
    assert (thr * cdf[-1] >= cdf).all()
    assert (np.nextafter(thr, -np.inf) * cdf[-1] < cdf).all()


def test_vertex_law_rejects_nan_weights():
    # NaN fails no comparison: a check made only of comparisons would pass the row
    law = _VertexLaw(lambda state: ([(0,), (1,)], [float("nan"), 1.0]))
    with pytest.raises(ParameterRangeError, match="vertex"):
        law.row((0,), (1, 1))


@st.composite
def sc6v_blocks(draw):
    """(z, q, bottom labels, left labels, uniforms): z > 1, q in (0, 1), colors 0..n in
    the edge dtype of n colors (int8 up to n = 127, int16 beyond, up to 200), with ties
    b == l, and uniforms at each swap threshold and one ulp either side, 0 and the
    largest double below 1."""
    z = draw(st.floats(1, 1e3, exclude_min=True))
    q = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    n_colors = draw(st.one_of(st.sampled_from([1, 127, 128, 200]), st.integers(1, 200)))
    dtype = sampler._label_dtype(n_colors)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    b = rng.integers(0, n_colors + 1, n).astype(dtype)
    l = rng.integers(0, n_colors + 1, n).astype(dtype)
    tie = rng.random(n) < 0.2
    l[tie] = b[tie]
    law = sampler._SC6VLaw(partial(_sc6v_transitions, z, q), (1, 1))
    top = np.nextafter(1.0, 0)
    edges = np.array([x for t in (law.below, law.above)
                      for x in (np.nextafter(t, 0), t, np.nextafter(t, 2))] + [0.0, top])
    u = rng.random(n)
    pick = rng.random(n) < 0.5
    u[pick] = edges[rng.integers(0, len(edges), pick.sum())]
    return z, q, b, l, np.minimum(u, top)


@settings(max_examples=200, deadline=None)
@given(sc6v_blocks())
def test_sc6v_law_draws_match_the_vertex_law(case):
    # R reads only the order of its labels: a swap when u is below the first threshold
    # of row (0, 1) or (1, 0), the same bits as the search over every (b, l) row
    z, q, b, l, u = case
    transitions = partial(_sc6v_transitions, z, q)
    got = sampler._SC6VLaw(transitions, (1, 1)).draw([b, l], u, (1, 1), b.dtype)
    want = _VertexLaw(transitions).draw([b, l], u, (1, 1), b.dtype)
    assert got.dtype == b.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows, laws", [((2.0,) * 64, 1), ((2.0, 3.0) * 32, 2)])
def test_sc6v_builds_one_law_per_distinct_spectral_parameter(monkeypatch, rows, laws):
    # a law reads only its vertex's (z, q): on a homogeneous 64 x 64 rectangle its two
    # rows are built and checked once, and the batch has the bits of a law per vertex
    params = ModelParams(q=0.4, row_rapidities=rows, col_rapidities=(1.0,) * 64)
    dom = rectangle_domain(64, 64, tuple(range(1, 129)))
    checks, probabilities = [], sampler._probabilities
    monkeypatch.setattr(sampler, "_probabilities",
                        lambda weights, what: checks.append(what) or probabilities(weights, what))
    batch = sample_sc6v(dom, params, seed=20, count=50)
    assert len(checks) == 2 * laws
    model = sampler._sc6v_model(dom, params)
    per_vertex = {vertex: sampler._SC6VLaw(t, vertex) for vertex, t in model.transitions.items()}
    h, v = sampler._sweep(model, per_vertex, 20, 50, 1)
    assert np.array_equal(h, batch.h_edges) and np.array_equal(v, batch.v_edges)
    # a bad z still fails at its first vertex in sweep order
    bad = ModelParams(q=0.4, row_rapidities=rows[:-1] + (0.5,), col_rapidities=(1.0,) * 64)
    first = next(vertex for vertex in sampler._sc6v_model(dom, bad).transitions if vertex[1] == 64)
    with pytest.raises(ParameterRangeError, match=rf"vertex \({first[0]}, 64\)"):
        sample_sc6v(dom, bad, seed=20, count=50)


def test_row_cache_builds_each_row_once(monkeypatch):
    # a stream that misses the cache builds the row under the law's lock, so two
    # streams that meet a new state together build it once, however often they switch
    from vertexflow import sampler

    calls = Counter()
    transitions = sampler._hs_transitions

    def counted(*args):  # (spectral parameter, spin, q, state): one vertex per parameter here
        calls[args] += 1
        time.sleep(1e-3)  # lets the other stream run into the same miss
        return transitions(*args)

    monkeypatch.setattr(sampler, "_hs_transitions", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sample_higher_spin(HS_PARAMS, (2, 2), seed=42, count=2000, workers=2)
    finally:
        sys.setswitchinterval(interval)
    assert calls and set(calls.values()) == {1}


def test_higher_spin_seventy_colors_conserve_paths():
    # more colors than numpy has axes (np.unravel_index could not decode these state keys)
    n = 70
    par = ModelParams(q=0.5, row_rapidities=(5.0,) * n, col_rapidities=(1.0, 1.1),
                      col_spins=(4.0, 4.0), boundary_levels=tuple(range(1, n + 1)))
    batch = sample_higher_spin(par, (n, 2), seed=3, count=200)
    h, v = batch.h_edges.astype(np.int64), batch.v_edges.astype(np.int64)
    rows = np.arange(batch.count)
    for x in (1, 2):
        for y in range(1, n + 1):
            j, l, want = h[:, x - 1, y], h[:, x, y], v[:, x, y - 1].copy()
            want[rows[j > 0], j[j > 0] - 1] += 1
            want[rows[l > 0], l[l > 0] - 1] -= 1
            assert np.array_equal(v[:, x, y], want) and (want >= 0).all(), (x, y)
    assert (v[:, 1, n] > 0).sum(axis=1).max() >= 2  # several colors share a vertical edge


def test_higher_spin_regime_error():
    bad = ModelParams(q=0.5, row_rapidities=(1.0, 1.1), col_rapidities=(1.0, 1.1),
                      col_spins=(4.0, 4.0), boundary_levels=(1, 2))  # sz < 1 regime
    # higher-spin rows are first built inside the streams: at two workers the error
    # is raised on a thread and must reach the caller unchanged
    messages = []
    for workers in (1, 2):
        with pytest.raises(ParameterRangeError, match="vertex") as info:
            sample_higher_spin(bad, (2, 2), seed=0, count=50, workers=workers)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# q-Hahn
# ---------------------------------------------------------------------------


def test_qhahn_boundary_distribution():
    q, s, z = 0.4, 0.4, 0.7
    probs = qhahn_boundary_probs(q, s, z)
    want0 = poch_inf(s * s / (z * z), q) / poch_inf(s * s, q)
    assert abs(probs[0] - want0) < 1e-12
    assert abs(probs.sum() - 1) < 1e-10
    assert probs.min() >= 0
    with pytest.raises(ParameterRangeError):
        qhahn_boundary_probs(q, 0.8, 0.7)  # s^2 > z^2


@pytest.mark.parametrize("q, s, z", [(0.4, 0.4, 0.7), (0.4, 0.2, 0.9), (0.4, 0.69, 0.7)])
def test_qhahn_boundary_terms_equal_the_per_term_formula(q, s, z):
    # the Pochhammer products are carried from term to term, with the bits of each
    # term computed on its own, and the same stopping rule
    r = s * s / (z * z)
    pref = poch_inf(r, q) / poch_inf(s * s, q)
    want, total = [], 0.0
    for k in range(10000):
        want.append(pref * q_pochhammer(z * z, q, k) / q_pochhammer(q, q, k) * r**k)
        total += want[-1]
        if 1 - total < 1e-14:
            break
    assert qhahn_boundary_probs(q, s, z).tolist() == want


def test_qhahn_boundary_law_near_s_equal_z_takes_linear_time():
    # s close to z needs 10^4-10^5 terms, where roundoff keeps 1 - total above the
    # 1e-14 stop: the tail bound ends the law, which sums to 1, within 2 s each
    for s in (0.699, 0.6999):
        t0 = time.perf_counter()
        assert abs(qhahn_boundary_probs(0.4, s, 0.7).sum() - 1) < 1e-10
        assert time.perf_counter() - t0 < 2


def test_qhahn_boundary_law_past_its_term_cap_names_s(monkeypatch):
    monkeypatch.setattr(sampler, "QHAHN_BOUNDARY_TERMS", 1000)  # (0.4, 0.69, 0.7) takes 1115
    with pytest.raises(ParameterRangeError, match="more than 1000 terms") as info:
        qhahn_boundary_probs(0.4, 0.69, 0.7)
    assert info.value.field == "params/s"


def test_qhahn_empty_boundary_draw():
    # boundary_levels = () means no colors enter: everything stays empty
    q, s, z = 0.4, 0.4, 0.7
    batch = sample_qhahn(q, s, z, (2, 2), (), seed=2, count=30, keep_edges=True)
    assert not batch.h_edges.any() and not batch.v_edges.any()


def test_qhahn_tracked_heights_match_edges():
    q, s, z = 0.4, 0.4, 0.7
    batch = sample_qhahn(q, s, z, (2, 2), (1, 2), seed=13, count=20000,
                         track=[(1.5, 2.5, 0), (2.5, 2.5, 1)], keep_edges=True)
    for key in [(1.5, 2.5, 0), (2.5, 2.5, 1)]:
        a, b, c = key
        assert np.array_equal(batch.tracked_heights[key], batch.heights((a, b), c))


def test_qhahn_heights_from_fused_edges_match_tracked():
    # heights() returns a tracked key as it is; without track= it sums the fused edges
    track = [(1.5, 2.5, 0), (1.5, 3.5, 0), (1.5, 3.5, 1), (2.5, 3.5, 0)]
    edges = sample_qhahn(0.4, 0.4, 0.7, (3, 3), (1, 2, 3), seed=3, count=2000, keep_edges=True)
    tracked = sample_qhahn(0.4, 0.4, 0.7, (3, 3), (1, 2, 3), seed=3, count=2000, track=track,
                           keep_edges=False)
    assert not edges.tracked_heights and edges.h_edges.ndim == 4
    for a, b, c in track:
        want = tracked.tracked_heights[(a, b, c)]
        assert want.any() and np.array_equal(edges.heights((a, b), c), want)


def test_qhahn_worker_determinism():
    track = [(1.5, 2.5, 0), (2.5, 2.5, 1)]

    def draw(workers):
        return sample_qhahn(0.4, 0.4, 0.7, (2, 2), (1, 2), seed=6, count=300, workers=workers,
                            track=track, keep_edges=True)

    b1, b2, b3 = draw(3), draw(3), draw(1)
    assert np.array_equal(b1.h_edges, b2.h_edges) and np.array_equal(b1.v_edges, b2.v_edges)
    for key in track:
        assert np.array_equal(b1.tracked_heights[key], b2.tracked_heights[key])
    assert not (np.array_equal(b1.h_edges, b3.h_edges) and np.array_equal(b1.v_edges, b3.v_edges))


def test_qhahn_law_is_shared_across_calls(monkeypatch):
    # one law per (q, s, z): a second call builds none of the rows the first one built
    calls = Counter()
    row = sampler.qhahn_row

    def counted(state, **kwargs):
        calls[state] += 1
        return row(state, **kwargs)

    monkeypatch.setattr(sampler, "qhahn_row", counted)
    sampler._qhahn_law.cache_clear()
    try:
        for seed in (1, 2):
            sample_qhahn(0.4, 0.4, 0.7, (3, 3), (1, 2, 3), seed=seed, count=2000, workers=2)
    finally:
        sampler._qhahn_law.cache_clear()  # drop the law that holds the counting rows
    assert calls and set(calls.values()) == {1}


def test_qhahn_rows_are_keyed_by_the_bottom_composition(monkeypatch):
    # the weights read only A, the composition entering from below (left-entering paths
    # go straight up): one row per A, not per (A, B), each from one qhahn_row call
    calls = Counter()
    row = sampler.qhahn_row

    def counted(state, **kwargs):
        calls[state] += 1
        return row(state, **kwargs)

    monkeypatch.setattr(sampler, "qhahn_row", counted)
    sampler._qhahn_law.cache_clear()
    try:
        batch = sample_qhahn(0.4, 0.4, 0.7, (3, 3), (1, 2, 3), seed=4, count=2000, workers=2)
        rows = sampler._qhahn_law(0.4, 0.4, 0.7).rows
    finally:
        sampler._qhahn_law.cache_clear()  # drop the law that holds the counting rows
    assert rows and {len(state) for state in rows} == {batch.n_colors}
    assert calls == Counter(dict.fromkeys(rows, 1))


def test_qhahn_forty_colors_two_entering():
    # 40 colors, of which only 39 and 40 enter; grouping must not span all colors
    levels = (0,) * 38 + (1, 2)
    track = [(1.5, 2.5, 38), (3.5, 1.5, 0), (2.5, 2.5, 39)]
    batch = sample_qhahn(0.4, 0.4, 0.7, (2, 3), levels, seed=6, count=3000, track=track,
                         keep_edges=True)
    assert batch.n_colors == 40 and not batch.h_edges[..., :38].any()
    assert batch.tracked_heights[(1.5, 2.5, 38)].any()
    for a, b, c in track:
        assert np.array_equal(batch.tracked_heights[(a, b, c)], batch.heights((a, b), c))


def test_qhahn_twelve_colors_conserve_paths():
    # the product of per-color ranges far exceeds the batch: keys must be ranked, not tabulated
    track = [(1.5, 12.5, 0), (2.5, 6.5, 3), (3.5, 12.5, 7)]
    batch = sample_qhahn(0.4, 0.4, 0.7, (12, 3), tuple(range(1, 13)), seed=12, count=2000,
                         track=track, keep_edges=True)
    h, v = batch.h_edges.astype(np.int64), batch.v_edges.astype(np.int64)
    for x in range(1, 4):
        for y in range(1, 13):
            a, b, c, d = v[:, x, y - 1], h[:, x - 1, y], v[:, x, y], h[:, x, y]
            assert (d >= 0).all() and (d <= a).all(), (x, y)
            assert np.array_equal(c, a + b - d), (x, y)
    for a, b, c in track:
        assert np.array_equal(batch.tracked_heights[(a, b, c)], batch.heights((a, b), c))


def test_qhahn_forced_up_structure():
    # left-entering paths turn up: no path may cross column line x+1/2 below
    # height (entry row + x)
    q, s, z = 0.4, 0.4, 0.7
    batch = sample_qhahn(q, s, z, (3, 2), (1, 2, 3), seed=4, count=2000, keep_edges=True)
    assert not batch.h_edges[:, 1, 1, :].any()  # crossing x=1.5 at height 1 impossible
    assert not batch.h_edges[:, 2, 1, :].any()
    assert not batch.h_edges[:, 2, 2, :].any()


# ---------------------------------------------------------------------------
# Beta polymer
# ---------------------------------------------------------------------------


def test_beta_polymer_boundaries_and_range():
    bb = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=21, count=20000,
                               keep_points=[(0, 1, 5), (0, 3, 5), (1, 4, 5), (1, 2, 5)])
    assert np.allclose(bb.value(1, 4, 5), 1.0)
    for key, vals in bb.values.items():
        assert vals.min() >= 0 and vals.max() <= 1, key


def test_beta_polymer_first_moments():
    sigma, rho = 4.0, 1.0
    mu = (sigma - rho) / sigma
    bb = simulate_beta_polymer(sigma, rho, 5, {0}, seed=21, count=100000,
                               keep_points=[(0, 1, 5), (0, 3, 5)])
    z15 = bb.value(0, 1, 5)
    se = z15.std() / np.sqrt(len(z15))
    assert abs(z15.mean() - mu**4) <= 4 * se
    z35 = bb.value(0, 3, 5)
    se = z35.std() / np.sqrt(len(z35))
    assert abs(z35.mean() - beta_first_moment(sigma, rho, 0, 3, 5)) <= 4 * se


def test_beta_polymer_delays_share_noise():
    # Z_(1)^(m,t) computed from the same field: coupling forces Z_(1) >= Z_(0)
    # pathwise on the overlap region (delayed boundary is closer)
    bb = simulate_beta_polymer(4.0, 1.0, 4, {0, 1}, seed=8, count=5000,
                               keep_points=[(0, 2, 4), (1, 2, 4)])
    assert np.all(bb.value(1, 2, 4) >= bb.value(0, 2, 4) - 1e-12)


def test_beta_polymer_invalid_params():
    with pytest.raises(ParameterRangeError):
        simulate_beta_polymer(1.0, 1.5, 4, {0}, seed=0, count=10)


@pytest.mark.parametrize("t_max, delays, keep, field", [
    (5, [0.5], [(0.5, 2.5, 5)], "params/delays"),  # not truncated to (0, 2, 5)
    (5, [0], [(0, 2.5, 5)], "keep_points"),
    (5.5, [0], None, "params/t_max"),
    (5, [9], None, "params/delays"),  # d >= t_max
    (5, [-1], None, "params/delays"),
    (0, [], None, "params/t_max"),
])
def test_beta_polymer_inputs_raise_at_their_field(t_max, delays, keep, field):
    with pytest.raises(ValidationError) as info:
        simulate_beta_polymer(6.0, 1.5, t_max, delays, seed=0, count=4, keep_points=keep)
    assert info.value.field == field


def test_beta_polymer_accepts_whole_floats():
    ints = simulate_beta_polymer(6.0, 1.5, 4, [0, 1], seed=3, count=50, keep_points=[(1, 2, 4)])
    floats = simulate_beta_polymer(6.0, 1.5, 4.0, [0.0, 1.0], seed=3, count=50,
                                   keep_points=[(1.0, 2.0, 4.0)])
    assert list(floats.values) == [(1, 2, 4)]
    assert np.array_equal(ints.value(1, 2, 4), floats.value(1, 2, 4))


def test_empty_batches_and_no_workers_raise():
    for count, workers in ((0, 1), (10, 0)):
        with pytest.raises(ValidationError):
            simulate_beta_polymer(6.0, 1.5, 4, {0}, seed=0, count=count, workers=workers)
        with pytest.raises(ValidationError):
            sample_higher_spin(HS_PARAMS, (2, 2), seed=0, count=count, workers=workers)


def test_prop_9_1_drift_toward_beta_polymer():
    # q-Hahn with q=e^-eps, s^2=q^sigma, z^2=q^rho, l_i=i: exp(-eps h) drifts
    # toward the Beta-polymer moment as eps decreases
    sigma, rho = 4.0, 1.0
    for (c, m, t) in [(0, 2, 4), (1, 2, 5)]:
        exact = beta_first_moment(sigma, rho, c, m, t)
        errs = []
        for eps in (0.2, 0.1):
            q = float(np.exp(-eps))
            batch = sample_qhahn(q, q ** (sigma / 2), q ** (rho / 2),
                                 (t - 1, max(m - 1, 1)), tuple(range(1, t + 1)),
                                 seed=5, count=40000, track=[(m - 0.5, t - 0.5, c)],
                                 keep_edges=False)
            emp = (q ** batch.tracked_heights[(m - 0.5, t - 0.5, c)].astype(float)).mean()
            errs.append(abs(emp - exact))
        assert errs[1] < errs[0], (c, m, t, errs)


# ---------------------------------------------------------------------------
# golden digests: (seed, workers) fixes every batch bit for bit
# ---------------------------------------------------------------------------


def _digest(*arrays):
    """SHA-256 of dtype, shape and C-order bytes, whatever the memory order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _golden_sc6v(count, workers):
    params = ModelParams(q=0.4, row_rapidities=(2.0, 2.1, 2.2), col_rapidities=(1.0, 1.05, 1.1))
    b = sample_sc6v(rectangle_domain(3, 3, (1, 2, 3, 4, 5, 6)), params, seed=41, count=count,
                    workers=workers)
    return _digest(b.h_edges, b.v_edges)


def _golden_hs(count, workers):
    b = sample_higher_spin(HS_PARAMS, (2, 2), seed=42, count=count, workers=workers)
    return _digest(b.h_edges, b.v_edges)


def _golden_qhahn(count, workers):
    b = sample_qhahn(0.4, 0.4, 0.7, (2, 3), (1, 2), seed=43, count=count, workers=workers,
                     track=[(1.5, 2.5, 0), (3.5, 1.5, 1)], keep_edges=True)
    return _digest(b.h_edges, b.v_edges, *(b.tracked_heights[k] for k in sorted(b.tracked_heights)))


def _golden_beta(count, workers):
    b = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=count, workers=workers)
    return _digest(*(b.values[k] for k in sorted(b.values)))


GOLDEN_CASES = [(20000, 1), (20000, 2), (20000, 3), (5, 8)]  # the last leaves three streams empty
GOLDEN = {  # per GOLDEN_CASES entry; moving one re-seeds the Monte Carlo tests
    "sc6v": (
        "954ea699731e8622e4ec9f5243d17c066e9a0089cde06b2d15357b26c1a3b41b",
        "937a5bd180809acf98da3501c62eb8a67ef994549573defcd3c6eeebb5c13f43",
        "76b8491278bea4838f42eacd7400e278f61a9752e0c56ba472e6bd54d8104838",
        "e9a586910fe79a56c57e0dc7a331f4e9870c52f511328c34e1ade27ce5a4e9d4",
    ),
    "hs": (
        "a10bdec219bd4abbbfbc6527f46e76aef989a1c48c09db9b6c5fd125e9da1d66",
        "c64585cf39ffd9e58fc185d9b612d60970ff5b576749ea6a3a28d20add42c74f",
        "7bb4ec65a8001aee744fb236f4c6c254caa0159d8c321d6d3fb46624239ed5c1",
        "1265ebc8b76b1975a0eee672556c07a99e0dd5623e38de0d4ffdbb506a8873c7",
    ),
    "qhahn": (
        "a80c949def45419eeb10e5e9f56867cde8d952af2b7f56fd8450f92f0aec6fa8",
        "e742a7b408bfa01b3f5dcbab6e55ab0a18c3847f5a5537350ff234d98a8fb2d5",
        "e7f6015f2c9c2b618e414cc5afb13fea29c687e3f5bc702c3fd7e7058fc2e7f5",
        "699d4776a385878d118afcc1c8dfaea694300bfe8ed5bc8d30f2d61e7b9a7ab6",
    ),
    "beta": (
        "547062f8016eb629fef10d09b14ed0d0ecf6788fea2b60419bd02193311375c1",
        "739d17919744d480d0db2904e56a51578dc0862d58e24aa2f2ee473c5a3cd1cc",
        "2f0021373efeefeff54efd7fafaeecd8671199e8db5eb2d61e14ed7833cf1674",
        "fbb309adfcfda113aedca3298786cb58d2bb7dec9acecf9476a98220dce18eeb",
    ),
}


@pytest.mark.parametrize("count, workers", GOLDEN_CASES)
@pytest.mark.parametrize("model", ["sc6v", "hs", "qhahn", "beta"])
def test_golden_digests(model, count, workers):
    # streams share the row cache and the output arrays; switching threads often
    # would let a lost update or a stray write show in the digest
    draw = globals()[f"_golden_{model}"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        digest = draw(count, workers)
    finally:
        sys.setswitchinterval(interval)
    assert digest == GOLDEN[model][GOLDEN_CASES.index((count, workers))]


INT16_DIGESTS = {  # per worker count
    1: "8b8a2baa06a0dafa53660adc7e81a44fe8825a333ff3fb7fa81c3bf6797baec5",
    2: "b2c072e568107565d9d38e9bf929eeb8e9f0ffce37eac3fac7345922c735e15b",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_sc6v_int16_labels_digest(workers):
    # 128 colors need int16 labels, which no GOLDEN case (at most 6 colors) reaches; the
    # generic row search over every (bottom, left) state gives the same digests
    params = ModelParams(q=0.4, row_rapidities=tuple(2.0 + 0.02 * i for i in range(64)),
                         col_rapidities=tuple(1.0 + 0.01 * j for j in range(64)))
    b = sample_sc6v(rectangle_domain(64, 64, tuple(range(1, 129))), params, seed=20, count=50,
                    workers=workers)
    assert b.h_edges.dtype == np.int16
    assert _digest(b.h_edges, b.v_edges) == INT16_DIGESTS[workers]


# ---------------------------------------------------------------------------
# bounded scratch: blocked sweeps and the Beta recursion in place
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count, workers", GOLDEN_CASES)
@pytest.mark.parametrize("model", ["sc6v", "hs", "qhahn"])
def test_golden_digests_do_not_depend_on_the_block(monkeypatch, model, count, workers):
    # vertex i of a stream reads draws [i * size, (i + 1) * size) of it however the
    # sweep is cut into blocks; 777 leaves a short last block in every stream
    monkeypatch.setattr(sampler, "BLOCK", 777)
    test_golden_digests(model, count, workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("model", ["sc6v", "hs", "qhahn"])
def test_one_sample_blocks_give_the_same_batch(monkeypatch, model, workers):
    # every sample its own block: each vertex generator is placed at every offset
    draw = globals()[f"_golden_{model}"]
    want = draw(200, workers)
    monkeypatch.setattr(sampler, "BLOCK", 1)
    assert draw(200, workers) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_beta_polymer_keep_points_do_not_change_values(workers):
    # Z is carried only up to the largest m a keep point reads: fewer points, same bits
    region = [(d, m, t) for d in (0, 1) for t in range(d + 1, 6) for m in range(1, t - d + 1)]
    full = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000, keep_points=region,
                                 workers=workers)
    for keep in (None, [(0, 2, 5), (1, 1, 5)], [(0, 1, 3), (1, 2, 4), (0, 5, 5)]):
        part = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000, keep_points=keep,
                                     workers=workers)
        for point, values in part.values.items():
            assert np.array_equal(values, full.value(*point)), (keep, point)


@pytest.mark.parametrize("workers", [1, 2])
def test_beta_polymer_stops_after_the_last_cell_it_reads(workers, monkeypatch):
    # no keep point below reads cell (4, 5), the last of t_max = 5: each stream makes 9 of
    # the 10 Gamma pairs, and its values are the bits of a run that keeps every point
    region = [(d, m, t) for d in (0, 1) for t in range(d + 1, 6) for m in range(1, t - d + 1)]
    full = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000, keep_points=region,
                                 workers=workers)
    draws, make_rng = [], sampler.make_rng

    class Counted:
        def __init__(self, rng):
            self.rng, self.gammas = rng, 0
            draws.append(self)

        def standard_gamma(self, shape, out):
            self.gammas += 1
            return self.rng.standard_gamma(shape, out=out)

    monkeypatch.setattr(sampler, "make_rng", lambda *key: Counted(make_rng(*key)))
    part = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000,
                                 keep_points=[(0, 1, 4), (0, 3, 5), (1, 2, 5)], workers=workers)
    assert [c.gammas for c in draws] == [2 * 9] * workers
    for point, values in part.values.items():
        assert np.array_equal(values, full.value(*point)), point


@pytest.mark.parametrize("keep, cells", [([(0, 5, 5)], 0), ([(0, 5, 5), (1, 2, 5)], 8)])
def test_beta_polymer_keep_points_on_the_boundary_draw_nothing(monkeypatch, keep, cells):
    # Z_(d)^(t-d,t) = 1 reads no eta: (0, 5, 5) adds no cell, and (1, 2, 5) alone reads the
    # 8 cells of m <= 2 up to t = 5; the values are the bits of a run keeping every point
    region = [(d, m, t) for d in (0, 1) for t in range(d + 1, 6) for m in range(1, t - d + 1)]
    full = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000, keep_points=region,
                                 workers=2)
    draws, make_rng = [], sampler.make_rng

    class Counted:
        def __init__(self, rng):
            self.rng, self.gammas = rng, 0
            draws.append(self)

        def standard_gamma(self, shape, out):
            self.gammas += 1
            return self.rng.standard_gamma(shape, out=out)

    monkeypatch.setattr(sampler, "make_rng", lambda *key: Counted(make_rng(*key)))
    part = simulate_beta_polymer(4.0, 1.0, 5, {0, 1}, seed=44, count=3000, keep_points=keep,
                                 workers=2)
    assert [c.gammas for c in draws] == [2 * cells] * 2
    for point, values in part.values.items():
        assert np.array_equal(values, full.value(*point)), point


def _traced_peak(run):
    """Peak bytes that numpy and Python allocate during ``run()``, after one warm-up
    call has made its imports."""
    run(10)
    tracemalloc.start()
    try:
        out = run(None)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_beta_polymer_scratch_is_bounded(workers):
    # per stream: eta, 1 - eta and one product, and per delay its Z up to the largest m
    # a keep point reads plus one saved Z; never every m of a time step, old and new
    n, keep = 50000, [(0, 2, 8), (1, 1, 8), (2, 3, 8)]
    peak, _ = _traced_peak(lambda count: simulate_beta_polymer(
        4.0, 1.0, 8, {0, 1, 2}, seed=44, count=count or n, keep_points=keep, workers=workers))
    arrays = len(keep) + 3 + (2 + 1) + (1 + 1) + (3 + 1)
    assert peak <= (arrays + 1) * 8 * n  # one more array's worth for Python objects


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", ["sc6v", "qhahn"])
def test_sweep_scratch_is_bounded_by_the_block(model, workers):
    # beyond the batch, a few block-sized arrays per stream, however large the batch
    params = ModelParams(q=0.4, row_rapidities=(2.0, 2.1, 2.2), col_rapidities=(1.0, 1.05, 1.1))
    dom = rectangle_domain(3, 3, (1, 2, 3, 4, 5, 6))
    sweeps = {  # the models of _golden_sc6v and _golden_qhahn
        "sc6v": lambda count: sample_sc6v(dom, params, seed=41, count=count, workers=workers),
        "qhahn": lambda count: sample_qhahn(0.4, 0.4, 0.7, (2, 3), (1, 2), seed=43, count=count,
                                            workers=workers),
    }
    peak, batch = _traced_peak(lambda count: sweeps[model](count or 4 * sampler.BLOCK))
    assert peak - batch.h_edges.nbytes - batch.v_edges.nbytes <= 48 * sampler.BLOCK * workers


HS3 = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1, 1.2),
                  col_spins=(4.0,) * 3, boundary_levels=(1, 2, 3))


def test_fused_models_live_on_the_quadrant_domain():
    # the higher-spin and q-Hahn models fuse SC6V on the quadrant: one region type for all
    for record in (Configuration, SampleBatch):
        names = {f.name for f in dataclasses.fields(record)}
        assert "domain" in names and not names & {"n_rows", "m_cols"}
    hs = sample_higher_spin(HS_PARAMS, (2, 2), seed=2, count=20)
    ens = enumerate_higher_spin(HS_PARAMS, (2, 2))
    want = sc6v_quadrant_domain(2, 2, HS_PARAMS)
    assert hs.domain == want
    assert all(hs.config(i).domain == want for i in range(hs.count))
    assert all(cfg.domain == want for _, cfg in ens.entries)
    qhahn = sample_qhahn(0.4, 0.4, 0.7, (3, 2), (1, 1, 3), seed=2, count=20, keep_edges=True)
    want = sc6v_quadrant_domain(3, 2, ModelParams(q=0.4, boundary_levels=(1, 1, 3)))
    assert qhahn.domain == want
    assert all(qhahn.config(i).domain == want for i in range(qhahn.count))


def _edge_count(h_edges, a, b, c):
    """h_{>c} at the face (a + 1/2, b + 1/2) of a quadrant batch, counted on the
    h-edges (a, 1..b) straight from the edge array."""
    labels = h_edges[:, a, 1:b + 1]
    if h_edges.ndim == 4:
        return labels[..., c:].sum(axis=(1, 2))
    return (labels > c).sum(axis=1)


@pytest.mark.parametrize("model", ["hs", "qhahn"])
def test_fused_heights_through_the_domain_match_edge_counts(model):
    if model == "hs":
        batch = sample_higher_spin(HS3, (3, 3), seed=4, count=400)
    else:
        batch = sample_qhahn(0.4, 0.4, 0.7, (3, 3), (1, 2, 3), seed=4, count=400, keep_edges=True)
    configs = [batch.config(i) for i in range(5)]
    for a in range(4):
        for b in range(4):
            for c in range(batch.n_colors + 1):
                want = _edge_count(batch.h_edges, a, b, c)
                assert np.array_equal(batch.heights((a + 0.5, b + 0.5), c), want), (a, b, c)
                assert [height(cfg, (a + 0.5, b + 0.5), c) for cfg in configs] == list(want[:5])
    assert _edge_count(batch.h_edges, 0, 3, 0).any()


def test_qhahn_boundary_law_fails_the_vertex_row_check(monkeypatch):
    # one stochasticity check: a boundary law that does not sum to 1 is reported as a
    # non-stochastic vertex row is
    monkeypatch.setattr(sampler, "_poch_inf", lambda x, q: x)  # prefactor 1/z^2: the sum passes 1
    wording = "are not a probability distribution"
    with pytest.raises(ParameterRangeError, match=wording):
        qhahn_boundary_probs(0.4, 0.4, 0.7)
    with pytest.raises(ParameterRangeError, match=wording):
        sample_qhahn(0.4, 0.4, 0.7, (2, 2), (1, 2), seed=0, count=10)
    params = ModelParams(q=0.4, row_rapidities=(0.5,), col_rapidities=(1.0,))  # z < 1
    with pytest.raises(ParameterRangeError, match=wording):
        sample_sc6v(rectangle_domain(1, 1, (0, 1)), params, seed=0, count=10)


def test_rows_above_the_last_level_raise_at_boundary_levels():
    # the quadrant coloring is nondecreasing along Q: no empty row above a colored one.
    # Theorem 8.1 reads such rows as carrying a larger color, not as empty.
    params = ModelParams(q=0.5, row_rapidities=(5.0, 6.0), col_rapidities=(1.0, 1.1),
                         col_spins=(4.0, 4.0), boundary_levels=(1,))
    for draw in (lambda: sample_higher_spin(params, (2, 2), seed=0, count=10),
                 lambda: enumerate_higher_spin(params, (2, 2)),
                 lambda: sample_qhahn(0.4, 0.4, 0.7, (2, 2), (1,), seed=0, count=10)):
        with pytest.raises(ValidationError) as info:
            draw()
        assert info.value.field == "params/boundary_levels"
    assert sc6v_quadrant_domain(2, 2, ModelParams(q=0.5)).coloring == (0,) * 4  # no colors at all
