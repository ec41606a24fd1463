"""Monte Carlo samplers for every model variant plus exhaustive-enumeration oracles.

RNG contract: Philox-4x64-10 counter-based generators, keyed (seed, stream).
A batch of ``count`` samples is split across ``workers`` streams (stream id =
worker index, sizes count//workers with the remainder spread over the first
workers) and merged in worker order, so results are bit-identical for fixed
(seed, workers).  Beta variates come from two Gamma draws.

Samplers sweep vertices in a fixed order (diagonals for skew domains, rows for
quadrant windows) with all per-vertex draws vectorized across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError, ParameterRangeError, ValidationError
from .lattice import (
    Configuration,
    ModelParams,
    SkewDomain,
    dbl,
    quadrant_coloring,
)
from .weights import l_weight, q_pochhammer, r_weight

PROB_TOL = 1e-10


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) key pair."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _worker_sizes(count: int, workers: int) -> list[int]:
    base, rem = divmod(count, workers)
    return [base + (1 if i < rem else 0) for i in range(workers)]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@dataclass
class SampleBatch:
    """A batch of sampled configurations stored as dense edge arrays.

    ``h_edges[i, x, y]`` / ``v_edges[i, x, y]`` give sample i's labels; fused
    vertical (and for q-Hahn also horizontal) edges carry a trailing color
    axis.  ``tracked_heights`` maps (alpha, beta, c) to per-sample heights for
    observables requested at sampling time.
    """

    model_kind: str
    seed: int
    params: object
    count: int
    n_rows: int
    m_cols: int
    n_colors: int
    domain: SkewDomain | None = None
    h_edges: np.ndarray | None = None
    v_edges: np.ndarray | None = None
    tracked_heights: dict = field(default_factory=dict)

    def config(self, i: int) -> Configuration:
        if self.h_edges is None:
            raise ValidationError("edge arrays were not retained for this batch")
        h = {}
        v = {}
        fused_h = self.h_edges.ndim == 4
        fused_v = self.v_edges.ndim == 4
        for x in range(self.m_cols + 1):
            for y in range(self.n_rows + 1):
                hv = self.h_edges[i, x, y]
                vv = self.v_edges[i, x, y]
                h[(x, y)] = tuple(int(t) for t in hv) if fused_h else int(hv)
                v[(x, y)] = tuple(int(t) for t in vv) if fused_v else int(vv)
        return Configuration(self.n_rows, self.m_cols, h, v, self.domain, self.n_colors)

    @property
    def configs(self):
        return _ConfigSeq(self)

    def heights(self, point, c: int) -> np.ndarray:
        """Per-sample h_{>c} at a dual point, from tracked or stored edges."""
        key = (float(point[0]), float(point[1]), int(c))
        if key in self.tracked_heights:
            return self.tracked_heights[key]
        if self.h_edges is None:
            raise ValidationError("request this height via track= at sampling time")
        a2, b2 = dbl(*point)
        x = (a2 - 1) // 2
        if self.domain is not None:
            lo, hi = self.domain.face_range(a2)
            if not lo <= b2 <= hi:
                raise ValidationError("point outside the domain")
            base = self.domain.boundary_height((a2, lo), c)
            y_from = lo // 2 + 1
        else:
            base = 0
            y_from = 1
        out = np.full(self.count, base, dtype=np.int64)
        for y in range(y_from, b2 // 2 + 1):
            lab = self.h_edges[:, x, y]
            if self.h_edges.ndim == 4:
                out += lab[:, c:].sum(axis=1)
            else:
                out += lab > c
        return out


class _ConfigSeq:
    def __init__(self, batch: SampleBatch):
        self._batch = batch

    def __len__(self):
        return self._batch.count

    def __getitem__(self, i):
        return self._batch.config(i)

    def __iter__(self):
        return (self._batch.config(i) for i in range(len(self)))


@dataclass
class WeightedEnsemble:
    """All configurations of a finite model with their exact product weights."""

    entries: list  # (weight, Configuration)

    def total_weight(self):
        return sum(w for w, _ in self.entries)

    def moment(self, points, colors, q) -> complex:
        """sum_config weight * q^{sum_a h_{>c_a}(p_a)} over the ensemble."""
        from .lattice import height

        out = 0
        for w, cfg in self.entries:
            expo = sum(height(cfg, p, c) for p, c in zip(points, colors))
            out = out + w * q**expo
        return out

    def config_keys(self) -> dict:
        """Map hashable edge snapshots to their probabilities."""
        out = {}
        for w, cfg in self.entries:
            key = (tuple(sorted(cfg.h_edges.items())), tuple(sorted(cfg.v_edges.items())))
            out[key] = out.get(key, 0) + w
        return out


# ---------------------------------------------------------------------------
# SC6V on skew domains
# ---------------------------------------------------------------------------


def _sc6v_validate(domain: SkewDomain, params: ModelParams) -> None:
    x, y = params.row_rapidities, params.col_rapidities
    q = params.q
    for (cx, cy) in domain.vertices():
        z = x[cy - 1] / y[cx - 1]
        vals = [
            q * (z - 1) / (z - q),
            z * (1 - q) / (z - q),
            (z - 1) / (z - q),
            (1 - q) / (z - q),
        ]
        for v in vals:
            if abs(np.imag(v)) > 1e-12 or not (-1e-12 <= np.real(v) <= 1 + 1e-12):
                raise ParameterRangeError(
                    f"vertex ({cx}, {cy}): weight {v} is not a probability"
                )


def sample_sc6v(domain: SkewDomain, params: ModelParams, seed: int, count: int,
                workers: int = 1) -> SampleBatch:
    """Diagonal-sweep sampler for the SC6V model on a skew domain."""
    _sc6v_validate(domain, params)
    q = params.q
    xr, yc = params.row_rapidities, params.col_rapidities
    n_colors = max(domain.coloring, default=1) or 1
    sizes = _worker_sizes(count, workers)
    h_parts, v_parts = [], []
    for stream, size in enumerate(sizes):
        if size == 0:
            continue
        rng = make_rng(seed, stream)
        h = np.zeros((size, domain.m_cols + 1, domain.n_rows + 1), dtype=np.int8)
        v = np.zeros_like(h)
        for kind, (x, y), color in domain.incoming_edges():
            (h if kind == "h" else v)[:, x, y] = color
        for (x, y) in domain.vertices():
            z = xr[y - 1] / yc[x - 1]
            i_in = v[:, x, y - 1]
            j_in = h[:, x - 1, y]
            p_turn = np.where(i_in < j_in, (1 - q) / (z - q), z * (1 - q) / (z - q))
            turn = rng.random(size) < p_turn
            same = i_in == j_in
            k_out = np.where(same, i_in, np.where(turn, j_in, i_in))
            l_out = np.where(same, j_in, np.where(turn, i_in, j_in))
            v[:, x, y] = k_out
            h[:, x, y] = l_out
        h_parts.append(h)
        v_parts.append(v)
    return SampleBatch(
        "sc6v_skew", seed, params, count, domain.n_rows, domain.m_cols, n_colors,
        domain, np.concatenate(h_parts), np.concatenate(v_parts),
    )


def enumerate_sc6v(domain: SkewDomain, params: ModelParams, cap: int = 16) -> WeightedEnsemble:
    """Exact ensemble: every configuration with its product weight (complex ok)."""
    verts = domain.vertices()
    if len(verts) > cap:
        raise EnumerationCapError(f"{len(verts)} vertices exceeds the cap {cap}")
    xr, yc = params.row_rapidities, params.col_rapidities
    q = params.q
    n_colors = max(domain.coloring, default=1) or 1
    h0, v0 = {}, {}
    for x in range(domain.m_cols + 1):
        for y in range(domain.n_rows + 1):
            h0[(x, y)] = 0
            v0[(x, y)] = 0
    for kind, (x, y), color in domain.incoming_edges():
        (h0 if kind == "h" else v0)[(x, y)] = color
    entries = []

    def sweep(idx, h, v, acc):
        if idx == len(verts):
            entries.append((acc, Configuration(domain.n_rows, domain.m_cols, dict(h), dict(v), domain, n_colors)))
            return
        x, y = verts[idx]
        z = xr[y - 1] / yc[x - 1]
        i_in, j_in = v[(x, y - 1)], h[(x - 1, y)]
        outcomes = {(i_in, j_in), (j_in, i_in)}
        for k_out, l_out in outcomes:
            w = r_weight(i_in, j_in, k_out, l_out, z, q)
            if w == 0:
                continue
            h[(x, y)] = l_out
            v[(x, y)] = k_out
            sweep(idx + 1, h, v, acc * w)
        h[(x, y)] = 0
        v[(x, y)] = 0

    sweep(0, h0, v0, 1 + 0j if any(isinstance(t, complex) for t in (*xr, *yc)) else 1.0)
    return WeightedEnsemble(entries)


# ---------------------------------------------------------------------------
# Higher-spin quadrant model
# ---------------------------------------------------------------------------


def _hs_prob_table(I: np.ndarray, j_in: np.ndarray, z, s, q) -> np.ndarray:
    """Per-sample probability vector over the outgoing right color l = 0..n."""
    count, n = I.shape
    tails = np.zeros((count, n + 1))  # tails[:, i] = I_[i+1; n]
    tails[:, :n] = np.cumsum(I[:, ::-1], axis=1)[:, ::-1]
    tot = I.sum(axis=1)
    sz = s * z
    den = 1 - sz
    probs = np.empty((count, n + 1))
    probs[:, 0] = np.where(j_in == 0, (1 - sz * q**tot), (1 - s * s * q**tot)) / den
    for l in range(1, n + 1):
        il = I[:, l - 1]
        qt = q ** tails[:, l]
        base = (q**il - 1) * qt / den
        pass_through = (s * s * q**il - sz) * qt / den
        probs[:, l] = np.where(
            j_in == l, pass_through, np.where(l > j_in, sz * base, s * s * base)
        )
    return probs


def sample_higher_spin(params: ModelParams, rect: tuple[int, int], seed: int, count: int,
                       workers: int = 1) -> SampleBatch:
    """Row-sweep sampler for the colored higher-spin quadrant model.

    Boundary: color c enters at rows l_{c-1}+1 .. l_c, empty bottom; vertex
    (x, y) uses spectral parameter u_x / y_y and spin s_y of its column.
    """
    n_rows, m_cols = rect
    u, ys, ss = params.row_rapidities, params.col_rapidities, params.col_spins
    if len(u) < n_rows or len(ys) < m_cols or len(ss) < m_cols:
        raise ValidationError("not enough rapidities/spins for the window")
    q = params.q
    n_colors = max((params.row_color(r) for r in range(1, n_rows + 1)), default=1) or 1
    sizes = _worker_sizes(count, workers)
    h_parts, v_parts = [], []
    for stream, size in enumerate(sizes):
        if size == 0:
            continue
        rng = make_rng(seed, stream)
        h = np.zeros((size, m_cols + 1, n_rows + 1), dtype=np.int8)
        v = np.zeros((size, m_cols + 1, n_rows + 1, n_colors), dtype=np.int16)
        for y in range(1, n_rows + 1):
            h[:, 0, y] = params.row_color(y)
        for y in range(1, n_rows + 1):
            for x in range(1, m_cols + 1):
                z = u[y - 1] / ys[x - 1]
                I = v[:, x, y - 1, :].astype(np.int64)
                j_in = h[:, x - 1, y].astype(np.int64)
                probs = _hs_prob_table(I, j_in, z, ss[x - 1], q)
                if probs.min() < -PROB_TOL or abs(probs.sum(axis=1) - 1).max() > PROB_TOL:
                    raise ParameterRangeError(
                        f"vertex ({x}, {y}): outgoing distribution leaves [0,1] "
                        f"(min {probs.min():.3g})"
                    )
                cdf = np.cumsum(np.clip(probs, 0, None), axis=1)
                l_out = (rng.random(size)[:, None] * cdf[:, -1:] > cdf).sum(axis=1)
                K = I.copy()
                nz = j_in > 0
                K[np.nonzero(nz)[0], j_in[nz] - 1] += 1
                lz = l_out > 0
                K[np.nonzero(lz)[0], l_out[lz] - 1] -= 1
                v[:, x, y, :] = K
                h[:, x, y] = l_out
        h_parts.append(h)
        v_parts.append(v)
    return SampleBatch(
        "higher_spin_quadrant", seed, params, count, n_rows, m_cols, n_colors,
        None, np.concatenate(h_parts), np.concatenate(v_parts),
    )


def enumerate_higher_spin(params: ModelParams, rect: tuple[int, int], cap: int = 4) -> WeightedEnsemble:
    """Exact ensemble of the higher-spin quadrant window (small rect only)."""
    n_rows, m_cols = rect
    if n_rows * m_cols > cap:
        raise EnumerationCapError(f"{n_rows * m_cols} vertices exceeds the cap {cap}")
    u, ys, ss = params.row_rapidities, params.col_rapidities, params.col_spins
    q = params.q
    n_colors = max((params.row_color(r) for r in range(1, n_rows + 1)), default=1) or 1
    zero = (0,) * n_colors
    h0 = {(x, y): 0 for x in range(m_cols + 1) for y in range(n_rows + 1)}
    v0 = {(x, y): zero for x in range(m_cols + 1) for y in range(n_rows + 1)}
    for y in range(1, n_rows + 1):
        h0[(0, y)] = params.row_color(y)
    verts = [(x, y) for y in range(1, n_rows + 1) for x in range(1, m_cols + 1)]
    entries = []

    def sweep(idx, h, v, acc):
        if idx == len(verts):
            entries.append((acc, Configuration(n_rows, m_cols, dict(h), dict(v), None, n_colors)))
            return
        x, y = verts[idx]
        z = u[y - 1] / ys[x - 1]
        I = v[(x, y - 1)]
        j_in = h[(x - 1, y)]
        for l_out in range(n_colors + 1):
            K = list(I)
            if j_in > 0:
                K[j_in - 1] += 1
            if l_out > 0:
                K[l_out - 1] -= 1
            if any(t < 0 for t in K):
                continue
            w = l_weight(I, j_in, K, l_out, z, ss[x - 1], q)
            if w == 0:
                continue
            h[(x, y)] = l_out
            v[(x, y)] = tuple(K)
            sweep(idx + 1, h, v, acc * w)
        h[(x, y)] = 0
        v[(x, y)] = zero

    sweep(0, h0, v0, 1.0)
    return WeightedEnsemble(entries)


# ---------------------------------------------------------------------------
# q-Hahn quadrant model
# ---------------------------------------------------------------------------


def qhahn_boundary_probs(q: float, s: float, z: float, tail: float = 1e-14,
                         cap: int = 10000) -> np.ndarray:
    """Per-row path-count distribution, truncated once the tail is < ``tail``.

    Prob(k) = (s^2/z^2; q)_inf / (s^2; q)_inf * (z^2; q)_k / (q; q)_k * (s^2/z^2)^k.
    """
    if not (0 < s * s < z * z < 1):
        raise ParameterRangeError("q-Hahn boundary needs 0 < s^2 < z^2 < 1")
    r = s * s / (z * z)
    pref = _poch_inf(r, q) / _poch_inf(s * s, q)
    probs = []
    total = 0.0
    k = 0
    while k < cap:
        p = pref * q_pochhammer(z * z, q, k) / q_pochhammer(q, q, k) * r**k
        probs.append(p)
        total += p
        if 1 - total < tail:
            break
        k += 1
    probs = np.array(probs)
    if probs.min() < -PROB_TOL or abs(probs.sum() - 1) > 1e-10:
        raise ParameterRangeError(
            f"boundary distribution failed to normalize (sum {probs.sum():.15g})"
        )
    return probs


def _poch_inf(x, q, eps: float = 1e-18):
    out = 1.0
    p = 1.0
    while p > eps:
        out *= 1 - p * x
        p *= q
    return out


def sample_qhahn(q: float, s: float, z: float, rect: tuple[int, int], boundary_levels,
                 seed: int, count: int, workers: int = 1, track=(),
                 keep_edges: bool | None = None) -> SampleBatch:
    """Sampler for the fully fused q-Hahn quadrant model.

    Interior vertices draw D <= A from the q-Hahn weights (left-entering paths
    forced upward); per-row entering multiplicities are i.i.d. from the
    boundary law.  ``track`` lists (alpha, beta, c) height observables to
    accumulate during the sweep, which avoids storing fused edge arrays for
    large batches.
    """
    n_rows, m_cols = rect
    params = ModelParams(q=q, boundary_levels=tuple(boundary_levels))
    n_colors = max((params.row_color(r) for r in range(1, n_rows + 1)), default=1) or 1
    bprobs = qhahn_boundary_probs(q, s, z)
    bcdf = np.cumsum(bprobs)
    if keep_edges is None:
        keep_edges = count * (m_cols + 1) * (n_rows + 1) * n_colors <= 4_000_000
    track = [(float(a), float(b), int(c)) for (a, b, c) in track]
    weight_cache: dict = {}
    poch_cache: dict = {}

    def _tables(size: int):
        # (s^2/z^2; q)_j, (z^2; q)_j, (q; q)_j for j <= size
        if size not in poch_cache:
            r = s * s / (z * z)
            t1 = np.ones(size + 1)
            t2 = np.ones(size + 1)
            fq = np.ones(size + 1)
            for j in range(1, size + 1):
                t1[j] = t1[j - 1] * (1 - q ** (j - 1) * r)
                t2[j] = t2[j - 1] * (1 - q ** (j - 1) * z * z)
                fq[j] = fq[j - 1] * (1 - q**j)
            poch_cache[size] = (t1, t2, fq)
        return poch_cache[size]

    def d_support(a_key):
        """Support and CDF of D <= A under the q-Hahn weights, vectorized."""
        if a_key not in weight_cache:
            tot = sum(a_key)
            t1, t2, fq = _tables(max(tot, 1))
            grids = np.meshgrid(*[np.arange(ai + 1) for ai in a_key], indexing="ij")
            supp = np.stack([g.ravel() for g in grids], axis=1)  # (#D, n)
            tot_d = supp.sum(axis=1)
            r = s * s / (z * z)
            ws = r**tot_d * t1[tot - tot_d] * t2[tot_d] / q_pochhammer(s * s, q, tot)
            expo = np.zeros(len(supp))
            for i in range(n_colors):
                for j in range(i + 1, n_colors):
                    expo += supp[:, i] * (a_key[j] - supp[:, j])
            ws = ws * q**expo
            for i in range(n_colors):
                ws = ws * fq[a_key[i]] / (fq[supp[:, i]] * fq[a_key[i] - supp[:, i]])
            if ws.min() < -PROB_TOL or abs(ws.sum() - 1) > 1e-8:
                raise ParameterRangeError(f"vertex distribution invalid for A={a_key}")
            weight_cache[a_key] = (supp.astype(np.int64), np.cumsum(ws))
        return weight_cache[a_key]

    sizes = _worker_sizes(count, workers)
    h_parts, v_parts = [], []
    tracked = {key: [] for key in track}
    for stream, size in enumerate(sizes):
        if size == 0:
            continue
        rng = make_rng(seed, stream)
        acc = {key: np.zeros(size, dtype=np.int64) for key in track}
        left = np.zeros((size, n_rows + 1, n_colors), dtype=np.int64)
        for y in range(1, n_rows + 1):
            c = params.row_color(y)
            if c == 0:
                continue
            draws = np.searchsorted(bcdf, rng.random(size), side="right")
            left[:, y, c - 1] = draws
        for key in track:
            a2, b2 = dbl(key[0], key[1])
            if (a2 - 1) // 2 == 0:  # boundary column contributions
                for y in range(1, b2 // 2 + 1):
                    acc[key] += left[:, y, key[2]:].sum(axis=1)
        if keep_edges:
            h_arr = np.zeros((size, m_cols + 1, n_rows + 1, n_colors), dtype=np.int16)
            v_arr = np.zeros_like(h_arr)
            h_arr[:, 0, :, :] = left
        vert = np.zeros((size, m_cols, n_colors), dtype=np.int64)  # columns 1..M
        for y in range(1, n_rows + 1):
            b_comp = left[:, y, :]
            for x in range(1, m_cols + 1):
                A = vert[:, x - 1, :]
                uniq, inverse = np.unique(A, axis=0, return_inverse=True)
                D = np.empty_like(A)
                u_draw = rng.random(size)
                for gi in range(len(uniq)):
                    mask = inverse == gi
                    supp, cdf = d_support(tuple(int(t) for t in uniq[gi]))
                    picks = np.searchsorted(cdf, u_draw[mask] * cdf[-1], side="right")
                    picks = np.minimum(picks, len(supp) - 1)
                    D[mask] = supp[picks]
                C = A + b_comp - D
                vert[:, x - 1, :] = C
                if keep_edges:
                    h_arr[:, x, y, :] = D
                    v_arr[:, x, y, :] = C
                for key in track:
                    a2, b2 = dbl(key[0], key[1])
                    if (a2 - 1) // 2 == x and y <= b2 // 2:
                        acc[key] += D[:, key[2]:].sum(axis=1)
                b_comp = D
        for key in track:
            tracked[key].append(acc[key])
        if keep_edges:
            h_parts.append(h_arr)
            v_parts.append(v_arr)
    batch = SampleBatch(
        "qhahn_quadrant", seed, (q, s, z, tuple(boundary_levels)), count, n_rows, m_cols,
        n_colors, None,
        np.concatenate(h_parts) if h_parts else None,
        np.concatenate(v_parts) if v_parts else None,
    )
    batch.tracked_heights = {k: np.concatenate(v) for k, v in tracked.items()}
    return batch


# ---------------------------------------------------------------------------
# Beta polymer
# ---------------------------------------------------------------------------


@dataclass
class BetaPolymerBatch:
    """Per-sample delayed partition functions at the requested points."""

    sigma: float
    rho: float
    seed: int
    count: int
    values: dict  # (delay, m, t) -> (count,) array

    def value(self, delay: int, m: int, t: int) -> np.ndarray:
        return self.values[(delay, m, t)]


def simulate_beta_polymer(sigma: float, rho: float, t_max: int, delays, seed: int,
                          count: int, keep_points=None, workers: int = 1) -> BetaPolymerBatch:
    """Shared-noise simulation of delayed Beta-polymer partition functions.

    One Beta(sigma-rho, rho) field eta_{m,t} is drawn per sample and shared by
    all delays.  Z_{(k)}^{(m,t)} = eta Z_{(k)}^{(m,t-1)} + (1-eta) Z_{(k)}^{(m-1,t-1)}
    with Z_{(k)}^{(t-k,t)} = 1 and Z_{(k)}^{(1,t)} = prod_{i=k+2}^t eta_{1,i}.
    ``keep_points`` lists (delay, m, t) to record; default: all m at t = t_max.
    """
    if not sigma > rho > 0:
        raise ParameterRangeError("need sigma > rho > 0")
    delays = sorted(set(int(d) for d in delays))
    if any(d < 0 for d in delays):
        raise ValidationError("delays must be nonnegative")
    if keep_points is None:
        keep_points = [(d, m, t_max) for d in delays for m in range(1, t_max - d + 1)]
    keep_points = [(int(d), int(m), int(t)) for d, m, t in keep_points]
    for d, m, t in keep_points:
        if d not in delays or not (1 <= m <= t - d) or t > t_max:
            raise ValidationError(f"point {(d, m, t)} outside the simulated region")
    sizes = _worker_sizes(count, workers)
    parts = {pt: [] for pt in keep_points}
    for stream, size in enumerate(sizes):
        if size == 0:
            continue
        rng = make_rng(seed, stream)
        state = {}  # delay -> list Z[m], index m from 1
        for t in range(1, t_max + 1):
            eta = {}
            for m in range(1, t):
                ga = rng.gamma(sigma - rho, size=size)
                gb = rng.gamma(rho, size=size)
                eta[m] = ga / (ga + gb)
            for d in delays:
                if t == d + 1:
                    state[d] = [np.ones(size)]
                elif t > d + 1:
                    old = state[d]
                    width = t - d
                    new = []
                    for m in range(1, width + 1):
                        if m == width:
                            new.append(np.ones(size))
                        elif m == 1:
                            new.append(eta[1] * old[0])
                        else:
                            new.append(eta[m] * old[m - 1] + (1 - eta[m]) * old[m - 2])
                    state[d] = new
            for (d, m, tt) in keep_points:
                if tt == t and d in state and m <= t - d:
                    parts[(d, m, tt)].append(state[d][m - 1].copy())
    values = {pt: np.concatenate(chunks) for pt, chunks in parts.items()}
    return BetaPolymerBatch(sigma, rho, seed, count, values)


def beta_first_moment(sigma: float, rho: float, delay: int, m: int, t: int) -> float:
    """Exact E[Z_{(k)}^{(m,t)}] from the linear recursion (independence of eta)."""
    mu = (sigma - rho) / sigma
    table = {}

    def rec(mm, tt):
        if mm == tt - delay:
            return 1.0
        if mm <= 0:
            return 0.0
        if (mm, tt) not in table:
            table[(mm, tt)] = mu * rec(mm, tt - 1) + (1 - mu) * rec(mm - 1, tt - 1)
        return table[(mm, tt)]

    if not (1 <= m <= t - delay):
        raise ValidationError("point outside the polymer region")
    return rec(m, t)


# ---------------------------------------------------------------------------
# convenience: quadrant window of the SC6V model as a skew domain
# ---------------------------------------------------------------------------


def sc6v_quadrant_domain(n_rows: int, m_cols: int, params: ModelParams) -> SkewDomain:
    """Rectangle with the quadrant boundary coloring induced by boundary_levels."""
    from .lattice import rectangle_domain

    return rectangle_domain(n_rows, m_cols, quadrant_coloring(n_rows, m_cols, params))
