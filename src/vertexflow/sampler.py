"""Monte Carlo samplers for every model variant plus exhaustive-enumeration oracles.

RNG contract: Philox-4x64-10 counter-based generators, keyed (seed, stream).
``_stream_slices`` splits a batch of ``count`` samples across ``workers`` streams
(stream id = worker index, sizes count//workers with the remainder spread over the
first workers), each owning one slice of the sample axis.  Each sampler allocates
its whole batch once; one runner, ``_run_streams``, runs the streams on threads
(numpy releases the GIL in the kernels, RNG fills and ``take``) and each writes its
own slice, so there is no merge step and results are bit-identical for fixed (seed,
workers).  Every lattice sampler is one vertex sweep, ``_sweep``, in a fixed order
(diagonals for SC6V, rows for the rectangles), each step vectorized across the
batch; q-Hahn's first steps draw its left-boundary edges, one per colored row in
row order.  Step i of a stream of ``size`` samples reads draws
[i * size, (i + 1) * size) of it: Philox is counter-based, so ``_rng_at`` places a
generator at any draw, and a sweep walks each stream's slice in blocks of ``BLOCK``
samples with one generator per step.  Its scratch is a few block-sized arrays per
stream, whatever the batch size, and the batch does not depend on ``BLOCK``.  Beta
variates come from two Gamma draws; a Gamma draw by rejection takes a varying
number of uniforms, so a Beta stream cannot be placed and is not blocked: its
recursion runs in place over a few stream-sized arrays per delay, allocated for all
streams on the calling thread, since a stream thread's own arrays stay resident in
its glibc arena after the call.

Every model lives on a ``SkewDomain``: SC6V on any, the higher-spin and q-Hahn
models, fusions of SC6V on the quadrant, on ``sc6v_quadrant_domain`` (a rectangle
with an empty bottom and the colors entering on the left).  Each vertex model has one
``transitions(state)``: ``weights._sc6v_transitions``, ``weights._hs_transitions``
or, for q-Hahn, whose weights read only the composition A entering from below,
``weights.qhahn_row(A)``.  A vertex law builds and checks each row once for all
streams (SC6V: one law per distinct (z, q) of a call; q-Hahn: once per A for all
calls with the same (q, s, z)); ``_probabilities`` is the only stochasticity check,
of every vertex row and of the q-Hahn boundary law.
A row stores the least uniform that reaches each cumulative weight (``_thresholds``),
so a draw compares u alone with it and picks what a search for u times the row total
picks, bit for bit.  The higher-spin and q-Hahn vertices draw through ``_VertexLaw``:
it groups the batch by a mixed-radix key of the incoming state built in place, makes
a binary search per sample in place on one index array, and one ``take`` from an
outcome table already in the edge dtype; ``_QHahnLaw.draw`` adds the forced-up rule.
R reads only the order of its two labels, so an SC6V vertex (``_SC6VLaw``) keeps the
swap thresholds of rows (0, 1) and (1, 0) and draws by mask arithmetic on the labels,
with no grouping, search or ``take``.  The enumerators are the package's one lattice
sum, ``weights.lattice_sum``, over the same transitions with a slot per edge, without
the check, since complex weights are legal there; one ``_Model`` record per model
feeds both.  Every height is read where ``lattice.height_anchor`` says.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import EnumerationCapError, ParameterRangeError, ValidationError
from .lattice import (
    Configuration,
    ModelParams,
    SkewDomain,
    _read_height,
    check_beta_regime,
    check_qhahn_regime,
    dbl,
    height_anchor,
    quadrant_coloring,
    rectangle_domain,
    whole,
)
from .weights import _hs_transitions, _poch_terms, _sc6v_transitions, lattice_sum, qhahn_row

PROB_TOL = 1e-10
BLOCK = 1 << 16  # samples a stream carries through every vertex of a sweep at a time
QHAHN_BOUNDARY_TERMS = 10**6  # the most terms a q-Hahn boundary law may take
SC6V_ENUM_CAP = 16  # the most vertices enumerate_sc6v sums over


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) key pair."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rng_at(seed: int, stream: int, offset: int) -> np.random.Generator:
    """``make_rng(seed, stream)`` moved to draw ``offset`` of its stream, bit for bit.

    Philox is counter-based: its counter counts blocks of four 64-bit draws (one per
    double of ``Generator.random``), so ``advance`` skips the whole blocks and the
    rest of the last one is drawn and dropped."""
    rng = make_rng(seed, stream)
    rng.bit_generator.advance(offset // 4)
    rng.bit_generator.random_raw(offset % 4)
    return rng


def _stream_slices(count: int, workers: int) -> list:
    """(stream id, slice of the sample axis) of each non-empty stream: stream id =
    worker index, sizes count//workers with the remainder spread over the first
    workers, slices in worker order."""
    if count < 1 or workers < 1:
        raise ValidationError(f"count and workers must be positive, got {count} and {workers}")
    base, rem = divmod(count, workers)
    starts = [w * base + min(w, rem) for w in range(min(workers, count) + 1)]
    return [(w, slice(a, b)) for w, (a, b) in enumerate(zip(starts, starts[1:]))]


def _run_streams(streams, draw) -> None:
    """``draw(stream, sl)`` for each stream, writing the slice ``sl`` of arrays the caller
    allocated for the whole batch.  Streams run on min(streams, CPUs) threads, a single
    one inline; an error raised in a stream reaches the caller in worker order."""
    if len(streams) == 1:
        draw(*streams[0])
        return
    from concurrent.futures import ThreadPoolExecutor  # imports logging: only where threads run

    with ThreadPoolExecutor(min(len(streams), os.cpu_count() or 1)) as pool:
        list(pool.map(lambda stream: draw(*stream), streams))


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@dataclass
class SampleBatch:
    """A batch of sampled configurations stored as dense edge arrays.

    ``h_edges[i, x, y]`` / ``v_edges[i, x, y]`` give sample i's labels; fused
    vertical (and for q-Hahn also horizontal) edges carry a trailing color
    axis.  In memory they are ``np.moveaxis`` views of arrays indexed
    [x, y, (color,) sample], so one edge across the batch is a contiguous row.
    ``tracked_heights`` maps (alpha, beta, c) to per-sample heights for
    observables requested at sampling time.  The shape is the domain's.
    """

    seed: int
    params: object
    count: int
    n_colors: int
    domain: SkewDomain
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
        for x in range(self.domain.m_cols + 1):
            for y in range(self.domain.n_rows + 1):
                hv = self.h_edges[i, x, y]
                vv = self.v_edges[i, x, y]
                h[(x, y)] = tuple(int(t) for t in hv) if fused_h else int(hv)
                v[(x, y)] = tuple(int(t) for t in vv) if fused_v else int(vv)
        return Configuration(h, v, self.domain, self.n_colors)

    def heights(self, point, c: int) -> np.ndarray:
        """Per-sample h_{>c} at a dual point, from tracked or stored edges."""
        key = (float(point[0]), float(point[1]), int(c))
        if key in self.tracked_heights:
            return self.tracked_heights[key]
        if self.h_edges is None:
            raise ValidationError("request this height via track= at sampling time")
        base, x, rows = height_anchor(self.domain, dbl(*point), c)
        out = np.full(self.count, base, dtype=np.int64)
        for y in rows:
            lab = self.h_edges[:, x, y]
            if self.h_edges.ndim == 4:
                out += lab[:, c:].sum(axis=1)
            else:
                out += lab > c
        return out


@dataclass
class WeightedEnsemble:
    """All configurations of a finite model with their exact product weights."""

    entries: list  # (weight, Configuration)

    def total_weight(self):
        return sum(w for w, _ in self.entries)

    def moment(self, points, colors, q) -> complex:
        """sum_config weight * q^{sum_a h_{>c_a}(p_a)} over the ensemble."""
        domain = self.entries[0][1].domain  # every entry has the same domain
        anchors = [(height_anchor(domain, dbl(*p), c), c) for p, c in zip(points, colors)]
        out = 0
        for w, cfg in self.entries:
            expo = sum(_read_height(cfg, anchor, c) for anchor, c in anchors)
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
# transition layer: one transitions(state) per model, one inverse-CDF kernel
# ---------------------------------------------------------------------------


def _group(parts):
    """(group per sample, state per group) for the incoming-state columns ``parts``.

    The mixed-radix key is built in place on one ``intp`` array and re-ranked whenever
    its space outgrows the batch, so it stays below batch size times one radix (no
    int64 overflow) and one dense table numbers the states present, whatever the
    number of columns.  The states are decoded from the keys present."""
    key, span, radices = parts[0].astype(np.intp), 1, []
    for i, c in enumerate(parts):
        r = int(c.max()) + 1
        if i:
            key *= r
            key += c
        span *= r
        ranks = None
        if span > len(c):
            ranks, key = np.unique(key, return_inverse=True)
            span = len(ranks)
        radices.append((r, ranks))
    present = np.flatnonzero(np.bincount(key, minlength=span))
    lookup = np.empty(span, dtype=np.intp)
    lookup[present] = np.arange(len(present))
    digits = []
    for r, ranks in reversed(radices):
        if ranks is not None:
            present = ranks[present]
        present, digit = np.divmod(present, r)
        digits.append(digit.tolist())
    return lookup.take(key), list(zip(*reversed(digits)))


def _thresholds(cdf):
    """For each cumulative weight c of a row with total t, the least double u with
    u * t >= c in floating point.  Rounding is monotone, so u * t >= c holds exactly
    when u >= that threshold, and a draw compares u with it, not u * t with c.  c / t
    is within a few ulps of it for the totals near 1 of checked rows (t in [0.5, 2])."""
    t = cdf[-1]
    thr = cdf / t
    while True:
        up = thr * t < cdf  # too small
        down = ~up & (np.nextafter(thr, -np.inf) * t >= cdf)  # a smaller u also passes
        if not (up.any() or down.any()):
            return thr
        thr[up] = np.nextafter(thr[up], np.inf)
        thr[down] = np.nextafter(thr[down], -np.inf)


def _probabilities(weights, what: str) -> np.ndarray:
    """The real parts of ``weights``, once they pass the samplers' one stochasticity
    check: finite, real and in [0, 1] to 1e-12, with a sum within PROB_TOL of 1;
    otherwise ParameterRangeError says that ``what`` are not a probability distribution."""
    w = np.asarray(weights, dtype=complex)
    p = w.real
    if (not np.isfinite(w).all() or np.abs(w.imag).max() > 1e-12 or p.min() < -1e-12
            or p.max() > 1 + 1e-12 or abs(p.sum() - 1) > PROB_TOL):
        with np.errstate(invalid="ignore"):  # weights of inf and -inf sum to nan
            raise ParameterRangeError(
                f"{what} are not a probability distribution (min {p.min():.3g}, "
                f"sum {p.sum():.15g}, max |imag| {np.abs(w.imag).max():.3g})")
    return p


class _VertexLaw:
    """Inverse-CDF draws from ``transitions``; each incoming state's row is built on
    first use, checked (``_probabilities``) and cached.  The padded table of the last
    set of states present is kept too: the blocks of a higher-spin or q-Hahn sweep meet
    one vertex's law again and again, nearly always with the same states.  Streams on
    different threads share the caches; a row miss builds the row under a lock, so
    each row is built once."""

    def __init__(self, transitions):
        self.transitions = transitions
        self.rows = {}  # state -> (outgoing states (#out, length), _thresholds of the cdf)
        self.last = None, None  # (dtype, states present), table() of them
        self.lock = threading.Lock()

    def row(self, state, vertex):
        cached = self.rows.get(state)
        if cached is not None:
            return cached
        with self.lock:
            if state not in self.rows:
                outs, ws = self.transitions(state)
                p = _probabilities(ws, f"vertex {vertex}: weights out of state {state}")
                self.rows[state] = (np.array(outs, dtype=np.int64),
                                    _thresholds(np.cumsum(np.clip(p, 0, None))))
            return self.rows[state]

    def table(self, states, vertex, dtype):
        """The rows of ``states`` padded with their last threshold and outcome to one
        power-of-two width: (outcomes (length, #states * width) in ``dtype``,
        thresholds, width)."""
        key = (np.dtype(dtype), tuple(states))
        last_key, last = self.last
        if last_key == key:
            return last
        rows = [self.row(st, vertex) for st in states]
        lengths = np.array([len(thr) for _, thr in rows])
        width = 1 << int(lengths.max() - 1).bit_length()
        where = ((np.cumsum(lengths) - lengths)[:, None]
                 + np.minimum(np.arange(width), lengths[:, None] - 1)).ravel()
        outs = np.concatenate([o for o, _ in rows]).T.astype(dtype, order="C")[:, where]
        thr = np.concatenate([thr for _, thr in rows])[where]
        self.last = key, (outs, thr, width)
        return outs, thr, width

    def draw(self, parts, u, vertex, dtype=np.int64):
        """Outgoing states (length, samples) in ``dtype``: sample i takes the first
        outcome whose cumulative weight exceeds u_i times its row total.

        A branchless binary search moves each sample's group index into the padded
        threshold ``table`` in place, and one ``take`` from the outcome table, already
        in ``dtype``, reads the outcomes."""
        group, states = _group(parts)
        outs, thr, width = self.table(states, vertex, dtype)
        if width > 1:
            probe, hit = np.empty(len(u)), np.empty(len(u), dtype=bool)
            step = width >> 1
            while step:  # 2 * step * group is the first padded index not yet ruled out
                np.take(thr[step - 1::2 * step], group, out=probe, mode="clip")  # indices are in range
                np.less_equal(probe, u, out=hit)
                group <<= 1
                group += hit
                step >>= 1
        return outs.take(group, axis=1)


@dataclass(frozen=True)
class _Model:
    """A vertex model on a skew domain, read by both ``_sweep`` and ``_enumerate``: each
    vertex's transitions in sweep order (q-Hahn: its row of D given A, the forced-up
    rule living in ``_QHahnLaw.draw``), the label of every edge before the sweep
    (``h``/``v`` keyed by edge in x-major order; boundary colors, else empty; a
    fused label is a color composition), the color count and the domain."""

    transitions: dict
    h: dict
    v: dict
    n_colors: int
    domain: SkewDomain


def _sweep(model: _Model, laws, seed: int, count: int, workers: int, fused=np.int16):
    """Sample-major (h_edges, v_edges) of a sweep of ``laws`` over ``model`` from its
    boundary labels: views of arrays indexed [x, y, (color,) sample], so vertices read
    rows; fused labels are stored as ``fused``.

    Each stream walks its slice in blocks of ``BLOCK`` samples, every step in ``laws``
    order within a block.  Step i of a stream of ``size`` samples reads draws
    [i * size, (i + 1) * size) of that stream, from its own generator placed there
    (``_rng_at``), so the batch does not depend on ``BLOCK``.  Step (x, y) draws the
    (top..., right...) labels of vertex (x, y) from its (bottom..., left...) ones; at
    x = 0 it draws only the left-boundary edge h[0, y] and reads no labels."""

    def edges(labels):
        first = next(iter(labels.values()))
        dtype = fused if isinstance(first, tuple) else _label_dtype(model.n_colors)
        shape = (model.domain.m_cols + 1, model.domain.n_rows + 1, *np.shape(first), count)
        arr = np.zeros(shape, dtype=dtype)
        samples_first = np.moveaxis(arr, -1, 0)
        for (x, y), label in labels.items():
            if np.any(label):  # pages of zeros the sweep never writes stay unallocated
                samples_first[:, x, y] = label
        return arr

    h, v = edges(model.h), edges(model.v)
    width = h.shape[2] if h.ndim == 4 else 1  # the last rows of a drawn state are h's

    def draw(stream, sl):
        size = sl.stop - sl.start
        rngs = [_rng_at(seed, stream, i * size) for i in range(len(laws))]
        buf = np.empty(min(size, BLOCK))
        for start in range(sl.start, sl.stop, BLOCK):
            block = slice(start, min(start + BLOCK, sl.stop))
            u = buf[:block.stop - start]
            for rng, ((x, y), law) in zip(rngs, laws.items()):
                out = law.draw([*v[x, y - 1, ..., block].reshape(-1, len(u)),
                                *h[x - 1, y, ..., block].reshape(-1, len(u))],
                               rng.random(out=u), (x, y), v.dtype)
                if x:  # v[0, y] is no edge: its pages stay unallocated
                    v[x, y, ..., block] = out[:-width]
                h[x, y, ..., block] = out[-width:]

    _run_streams(_stream_slices(count, workers), draw)
    return np.moveaxis(h, -1, 0), np.moveaxis(v, -1, 0)


def _label_dtype(n_colors: int):
    """Smallest signed integer type that holds the colors 0..n_colors."""
    return np.min_scalar_type(-n_colors - 1)


def _enumerate(model: _Model) -> WeightedEnsemble:
    """Every configuration with its product weight (complex ok): one lattice sum over
    the model's vertices from its edge labels.  The state lists the ``h`` labels, then
    the ``v`` labels, in key order, with one slot per color of a fused ``v`` label."""
    h, v = model.h, model.v
    fused = isinstance(next(iter(v.values())), tuple)
    v_labels = [label if fused else (label,) for label in v.values()]
    width = len(v_labels[0])
    h_slot = {edge: t for t, edge in enumerate(h)}
    v_slots = {edge: tuple(range(len(h) + i * width, len(h) + (i + 1) * width)) for i, edge in enumerate(v)}
    state = (*h.values(), *(c for label in v_labels for c in label))
    steps = [(t, v_slots[x, y - 1] + (h_slot[x - 1, y],), v_slots[x, y] + (h_slot[x, y],))
             for (x, y), t in model.transitions.items()]

    def config(final):
        labels = final[len(h):]
        if fused:
            labels = [labels[t:t + width] for t in range(0, len(labels), width)]
        return Configuration(dict(zip(h, final)), dict(zip(v, labels)), model.domain, model.n_colors)

    return WeightedEnsemble([(w, config(final)) for final, w in lattice_sum(steps, state).items()])


# ---------------------------------------------------------------------------
# SC6V on skew domains
# ---------------------------------------------------------------------------


def _boundary(domain: SkewDomain) -> tuple:
    """(h, v, n_colors): the label of every edge of ``domain`` before a sweep, keyed in
    x-major order (the boundary color where Q crosses the edge, else 0), and the
    number of colors, at least 1."""
    h = {(x, y): 0 for x in range(domain.m_cols + 1) for y in range(domain.n_rows + 1)}
    v = dict(h)
    for kind, edge, color in domain.incoming_edges():
        (h if kind == "h" else v)[edge] = color
    return h, v, max(domain.coloring, default=1) or 1


def _sc6v_model(domain: SkewDomain, params: ModelParams) -> _Model:
    vertices = list(domain.vertices())
    params.require("domain", row_rapidities=max((y for _, y in vertices), default=0),
                   col_rapidities=max((x for x, _ in vertices), default=0))
    xr, yc = params.row_rapidities, params.col_rapidities
    return _Model({(x, y): partial(_sc6v_transitions, xr[y - 1] / yc[x - 1], params.q)
                   for (x, y) in vertices}, *_boundary(domain), domain)


class _SC6VLaw(_VertexLaw):
    """R_z reads only whether its bottom label b is below, equal to or above its left
    label l, so a vertex needs two rows, (0, 1) and (1, 0), built and checked here, on
    the calling thread.  The swap is outcome 0 of a row, taken exactly when u is below
    the row's first threshold; equal labels have one outcome and nothing to swap.  So
    ``draw`` needs neither grouping nor search: it sends b up and l right, moved by
    d = (l - b) * swap in the edge dtype, with the same bits as ``_VertexLaw.draw``."""

    def __init__(self, transitions, vertex):
        super().__init__(transitions)
        self.below = self.row((0, 1), vertex)[1][0]  # swap threshold for b < l
        self.above = self.row((1, 0), vertex)[1][0]  # and for b > l

    def draw(self, parts, u, vertex, dtype):
        b, l = parts
        swap = np.less(u, self.above)
        swap &= b > l
        below = np.less(u, self.below)
        below &= b < l
        swap |= below
        out = np.empty((2, len(u)), dtype=dtype)  # (top, right)
        d = np.subtract(l, b, out=out[1])
        d *= swap
        np.add(b, d, out=out[0])
        np.subtract(l, d, out=d)
        return out


def sample_sc6v(domain: SkewDomain, params: ModelParams, seed: int, count: int,
                workers: int = 1) -> SampleBatch:
    """Diagonal-sweep sampler for the SC6V model on a skew domain."""
    model = _sc6v_model(domain, params)
    shared = {}  # a law reads only the (z, q) of its partial(_sc6v_transitions, z, q)
    laws = {vertex: shared.get(t.args) or shared.setdefault(t.args, _SC6VLaw(t, vertex))
            for vertex, t in model.transitions.items()}
    return SampleBatch(seed, params, count, model.n_colors, domain,
                       *_sweep(model, laws, seed, count, workers))


def enumerate_sc6v(domain: SkewDomain, params: ModelParams) -> WeightedEnsemble:
    """Exact ensemble: every configuration with its product weight (complex ok)."""
    model = _sc6v_model(domain, params)
    if len(model.transitions) > SC6V_ENUM_CAP:
        raise EnumerationCapError(f"{len(model.transitions)} vertices exceeds the cap {SC6V_ENUM_CAP}")
    return _enumerate(model)


# ---------------------------------------------------------------------------
# Higher-spin quadrant model
# ---------------------------------------------------------------------------


def sc6v_quadrant_domain(n_rows: int, m_cols: int, params: ModelParams) -> SkewDomain:
    """Rectangle with the quadrant boundary coloring induced by boundary_levels: the
    domain of the higher-spin and q-Hahn models, which fuse SC6V on it."""
    return rectangle_domain(n_rows, m_cols, quadrant_coloring(n_rows, m_cols, params))


def _hs_model(params: ModelParams, rect: tuple[int, int]) -> _Model:
    """The model on ``sc6v_quadrant_domain(*rect, params)``, vertices in row-sweep order:
    color c enters at rows l_{c-1}+1 .. l_c from the left, the bottom is empty and
    vertical labels are compositions."""
    n_rows, m_cols = rect
    params.require("domain", row_rapidities=n_rows, col_rapidities=m_cols, col_spins=m_cols)
    u, ys, ss = params.row_rapidities, params.col_rapidities, params.col_spins
    domain = sc6v_quadrant_domain(n_rows, m_cols, params)
    h, v, n_colors = _boundary(domain)
    return _Model({(x, y): partial(_hs_transitions, u[y - 1] / ys[x - 1], ss[x - 1], params.q)
                   for y in range(1, n_rows + 1) for x in range(1, m_cols + 1)},
                  h, {edge: (0,) * n_colors for edge in v}, n_colors, domain)


def sample_higher_spin(params: ModelParams, rect: tuple[int, int], seed: int, count: int,
                       workers: int = 1) -> SampleBatch:
    """Row-sweep sampler for the colored higher-spin quadrant model of ``_hs_model``:
    vertex (x, y) uses its row rapidity over its column's, and its column's spin."""
    model = _hs_model(params, rect)
    laws = {vertex: _VertexLaw(t) for vertex, t in model.transitions.items()}
    return SampleBatch(seed, params, count, model.n_colors, model.domain,
                       *_sweep(model, laws, seed, count, workers))


def enumerate_higher_spin(params: ModelParams, rect: tuple[int, int]) -> WeightedEnsemble:
    """Exact ensemble of the higher-spin quadrant model, on at most 4 vertices."""
    n_rows, m_cols = rect
    if n_rows * m_cols > 4:
        raise EnumerationCapError(f"{n_rows * m_cols} vertices exceeds the cap 4")
    return _enumerate(_hs_model(params, rect))


# ---------------------------------------------------------------------------
# q-Hahn quadrant model
# ---------------------------------------------------------------------------


def qhahn_boundary_probs(q: float, s: float, z: float) -> np.ndarray:
    """Per-row path-count distribution
    Prob(k) = (s^2/z^2; q)_inf / (s^2; q)_inf * (z^2; q)_k / (q; q)_k * (s^2/z^2)^k.

    It stops once 1 - total < 1e-14 or the tail is provably below 1e-16; the bound
    serves s near z, where roundoff keeps 1 - total above 1e-14.  For j >= k the term
    ratio r (1 - q^j z^2) / (1 - q^{j+1}), r = s^2/z^2, is at most rho = r / (1 - q^{k+1}),
    so if rho < 1 the terms after Prob(k) sum to at most Prob(k) rho / (1 - rho).  A law
    longer than ``QHAHN_BOUNDARY_TERMS`` (length grows like 1 / (1 - r)) raises at params/s.
    """
    check_qhahn_regime(s, z)
    r = s * s / (z * z)
    pref = _poch_inf(r, q) / _poch_inf(s * s, q)
    probs, total = [], 0.0
    for k, (num, qk), (den, _) in zip(range(QHAHN_BOUNDARY_TERMS), _poch_terms(z * z, q), _poch_terms(q, q)):
        p = pref * num / den * r**k
        probs.append(p)
        total += p
        rho = r / (1 - qk * q)
        if 1 - total < 1e-14 or (rho < 1 and p * rho / (1 - rho) < 1e-16):
            break
    else:
        raise ParameterRangeError(
            f"the q-Hahn boundary law for (q, s, z) = {(q, s, z)} needs more than "
            f"{QHAHN_BOUNDARY_TERMS} terms: s is too close to z", field="params/s")
    _probabilities(probs, f"q-Hahn boundary weights for (q, s, z) = {(q, s, z)}")
    return np.array(probs)


def _poch_inf(x, q):
    """(x; q)_inf, to the first factor with q^i <= 1e-18."""
    return next(out for out, p in _poch_terms(x, q) if p <= 1e-18)


class _QHahnLaw(_VertexLaw):
    """Rows ``qhahn_row(A)`` keyed by the composition A entering from below, the D <= A
    leaving right as outcomes.  Paths entering from the left go straight up, so ``draw``
    groups on A alone and takes state (*A, *B) to (*(A + B - D), *D)."""

    def draw(self, parts, u, vertex, dtype):
        n = len(parts) // 2
        d = super().draw(parts[:n], u, vertex, dtype)
        return np.concatenate([np.add(parts[:n], parts[n:], dtype=dtype) - d, d])


@lru_cache(maxsize=8)
def _qhahn_law(q: float, s: float, z: float) -> _QHahnLaw:
    """The q-Hahn vertex law, one per (q, s, z) for every vertex and call: its row lock
    lets calls on different threads share it."""
    return _QHahnLaw(partial(qhahn_row, s=s, z=z, q=q))


@dataclass(frozen=True)
class _EntryLaw:
    """A drawn left-boundary edge as a sweep step: ``searchsorted(cdf, u, side="right")``
    paths of one color, in row ``at`` of an otherwise empty state shaped as the inputs."""

    cdf: np.ndarray
    at: int

    def draw(self, parts, u, vertex, dtype):
        out = np.zeros((len(parts), len(u)), dtype=dtype)
        out[self.at] = np.searchsorted(self.cdf, u, side="right")
        return out


def sample_qhahn(q: float, s: float, z: float, rect: tuple[int, int], boundary_levels,
                 seed: int, count: int, workers: int = 1, track=(),
                 keep_edges: bool = True) -> SampleBatch:
    """Sampler for the fully fused q-Hahn quadrant model on ``sc6v_quadrant_domain``.

    One sweep: first each colored row's entering multiplicity, i.i.d. from the boundary
    law, then every vertex in row order, drawing D <= A from the q-Hahn weights
    (left-entering paths forced upward).  ``track`` lists (alpha, beta, c) heights to
    read into ``tracked_heights``; ``keep_edges=False`` then drops the edge arrays.
    """
    n_rows, m_cols = rect
    domain = sc6v_quadrant_domain(n_rows, m_cols, ModelParams(q=q, boundary_levels=tuple(boundary_levels)))
    h, v, n_colors = _boundary(domain)
    bcdf = np.cumsum(qhahn_boundary_probs(q, s, z))
    track = [(float(a), float(b), int(c)) for a, b, c in track]
    for a, b, c in track:  # a height outside the domain fails before the sweep
        height_anchor(domain, dbl(a, b), c)
    law, empty = _qhahn_law(q, s, z), (0,) * n_colors
    model = _Model({(x, y): law.transitions for y in range(1, n_rows + 1) for x in range(1, m_cols + 1)},
                   dict.fromkeys(h, empty), dict.fromkeys(v, empty), n_colors, domain)
    laws = {edge: _EntryLaw(bcdf, n_colors + color - 1) for edge, color in h.items() if color}
    laws.update(dict.fromkeys(model.transitions, law))
    fused = np.promote_types(np.int16, _label_dtype(n_rows * len(bcdf)))  # every path that can enter
    batch = SampleBatch(seed, (q, s, z, tuple(boundary_levels)), count, n_colors, domain,
                        *_sweep(model, laws, seed, count, workers, fused))
    batch.tracked_heights = {key: batch.heights(key[:2], key[2]) for key in track}
    if not keep_edges:
        batch.h_edges = batch.v_edges = None
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
    As each eta_{m,t} arrives, every delay's Z^{(m,t)} is updated in place, only up
    to the largest m of that delay's keep points with m < t - d, since Z^{(m,t)} reads
    no larger m; the boundary Z = 1 stays the scalar 1.0.  The eta of the cells after the
    last one updated are never drawn: no kept value and no earlier draw reads them, so
    the values are the same bits as with every point kept.
    ``t_max``, the delays and the keep points are whole numbers, each delay in
    0 <= d < t_max; ValidationError names the CLI field at fault.
    """
    check_beta_regime(sigma, rho)
    t_max = whole(t_max, "params/t_max")
    if t_max < 1:
        raise ValidationError(f"need t_max >= 1, got {t_max}", field="params/t_max")
    delays = sorted({whole(d, "params/delays") for d in delays})
    if any(not 0 <= d < t_max for d in delays):
        raise ValidationError(f"delays {delays} must lie in 0 <= d < t_max = {t_max}",
                              field="params/delays")
    if keep_points is None:
        keep_points = [(d, m, t_max) for d in delays for m in range(1, t_max - d + 1)]
    keep_points = [tuple(whole(v, "keep_points") for v in point) for point in keep_points]
    for d, m, t in keep_points:
        if d not in delays or not (1 <= m <= t - d) or t > t_max:
            raise ValidationError(f"point {(d, m, t)} outside the simulated region",
                                  field="keep_points")
    values = {point: np.empty(count) for point in keep_points}
    reach = {}  # delay -> the largest m < t - d its keep points read
    for d, m, t in keep_points:
        if m < t - d:
            reach[d] = max(m, reach.get(d, 0))
    # cells run in order of t, then m; the last one a delay updates is (last_m, t_max), or
    # none at last_m = 0, and no keep point reads a draw after it, so none is made
    last_m = max(reach.values(), default=0)
    # eta, 1 - eta, a product, and per delay its saved Z and each Z it carries
    scratch = np.empty((3 + sum(1 + r for r in reach.values()), count))

    def draw(stream, sl):
        rng, spare = make_rng(seed, stream), iter(scratch[:, sl])
        eta, rest, tmp = next(spare), next(spare), next(spare)
        z = {d: [] for d in reach}  # z[d][m - 1] = Z_(d)^(m,t) for m < t - d, m <= reach[d]
        saved = {d: next(spare) for d in reach}  # Z_(d)^(m-1,t-1) while m is updated
        for t in range(1, t_max + 1):
            for m in range(1, t if t < t_max and last_m else last_m + 1):
                rng.standard_gamma(sigma - rho, out=eta)
                rng.standard_gamma(rho, out=rest)
                live = [d for d in reach if m < t - d and m <= reach[d]]
                if not live:
                    continue
                rest += eta
                eta /= rest  # ga / (ga + gb)
                np.subtract(1, eta, out=rest)
                for d in live:  # Z^(m,t) = eta Z^(m,t-1) + (1 - eta) Z^(m-1,t-1)
                    zs, new = z[d], saved[d]
                    old = zs[m - 1] if m <= len(zs) else None  # None: Z^(t-1-d,t-1) = 1
                    if m == 1:
                        np.multiply(eta, 1.0 if old is None else old, out=new)
                    else:  # new holds Z^(m-1,t-1)
                        new *= rest
                        new += eta if old is None else np.multiply(eta, old, out=tmp)
                    if old is None:
                        zs.append(new)
                        saved[d] = next(spare)
                    else:
                        zs[m - 1], saved[d] = new, old
            for (d, m, tt) in keep_points:
                if tt == t:
                    values[d, m, tt][sl] = z[d][m - 1] if m < t - d else 1.0

    _run_streams(_stream_slices(count, workers), draw)
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

