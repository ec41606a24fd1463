"""Iterated contour integration and the exact q-moment formulas.

The pairing <Phi, Psi> = oint ... oint prod_{a<b} X(w_a, w_b) Phi Psi
prod_a dw_a/(2 pi i w_a) is evaluated on tensor-product trapezoid grids over
the contour circles.  Applying T_pi to a per-variable product Phi expands,
via the kappa recursion, into a sum of terms that factor into per-variable
vectors and pairwise matrices; each term is then a contraction over its pair
graph, one vector per variable and one matrix per edge.  The operator variant is
two functions of ``hecke._variant``: a_i = a_num(w_i, w_{i+1})/(w_{i+1} - w_i),
b_i = den(w_i, w_{i+1})/(w_{i+1} - w_i), and the cross factor of a pair x < y is
(Y - X)/den(X, Y) with X = w_x, Y = w_y.  So a b-factor on (x, y) is the inverse of
the cross factor, and the edge is dropped; any other first DL factor cancels
Y - X, leaving one table in closed form with one division (``_Grid.cross_times``):
a_num(X, Y), -a_num(Y, X) or -den(Y, X) over den(X, Y) for a on (x, y), a on (y, x)
or b on (y, x).  A later factor on that edge multiplies its table in.  The cross
table of a pair is built only where a term contracts the pair untouched.
``_contract`` sums out a variable with at most two edges by a matvec or one
GEMM; this covers every graph with k <= 3.  When every variable has three or
more edges, it splits the edge of least numerical rank r into r rank-1 terms,
each a graph with one edge fewer.  An edge is ranked by a complete-pivot cross
approximation of its stride-2 submatrix, a quarter of the work per pivot step,
capped at half the order of the full matrix; only an edge the contraction
chooses is factored at full size, seeded with the submatrix pivots doubled.
Every factorization stops at roundoff: the largest entry of the explicit
residual is at most 1e-15 of the largest entry of the matrix.  Pair matrices
on q-nested circles are smooth, so their rank is low: 28 to 32 at 192 nodes
per variable for a pair a, b at distance |a - b| >= 2, but 51 to 53 for
adjacent variables, whose circles lie closest.  So the edges at distance 2 or
more are ranked first, and an adjacent pair only on demand: when no ranked edge
serves the split, or a degree-two step of its terms.  The split passes its
rankings of the other edges down to its terms, and a degree-two variable v
between a and b is summed out through the factors of its edge of lower rank
r < N_v / 2: M_av diag(u_v) M_vb becomes x @ ((y u_v) @ M_vb) (or the
mirrored form), two thin GEMMs of 2 r N^2 multiply-adds in place of one square
GEMM of N^3.  For K4 that is both GEMMs of every term, at r = 31 against
N = 192: of its six edges, only the three at distance 2 or 3 are ranked, and
they are the split edge and the two edges of those steps, the only ones
factored at full size.  A graph that
never splits is never ranked and keeps the square GEMM, but the DL terms of
every pi on a grid are one expansion: a product of an edge with an a- or b-table
and a (phi term, slot, variable) vector are each built once per evaluation, and a
degree-two product M_av diag(u_v) M_vb of a term's top-level contraction is
built once per distinct (u_v, M_av, M_vb), so the nine triangles of each level
of a k = 3 all-pi query take three square GEMMs.  Split terms and conditioned
subgraphs build their vectors anew and share nothing.  Only when no edge has
rank below half its order does the contraction condition on one variable, one
subgraph per node.  The stride-2 submatrix of a cross matrix is the cross
matrix of the next coarser level, which takes that ranking as its factors.

The terms of a top-level split, and the subgraphs of a top-level conditioning loop,
are independent sums: ``_in_order`` runs them on the package's thread runner,
``threads.run_tasks``, on as many threads as the process may use CPUs, the calling
thread among them, each taking the next term as it finishes one.  It adds their
values in term order, so an integral has the same bits whatever the number of CPUs.
A running term holds a scratch (``_Scratch``), one per thread, of the buffers its
degree-two steps write through ``np.matmul`` and ``np.multiply`` with ``out=``: it
takes buffers and gives each back once it has read it for the last time, so the
terms, and the terms of their own splits (k >= 5), run on the same few buffers.  A
split keeps its scratches while it runs: the first term runs alone on one that the
calling thread allocates, and a helper thread that finds none free allocates its
own.  A helper builds no cache at k = 4: the split's pre-pass ranks and factors
every edge its terms read, and the first term, on the calling thread, fills
anything else they share.  The splits of a k >= 5 term may meet a table, a ranking
or full-size factors that no one built yet; the lock of the grid (``_Grid._lock``)
and of the ranking record (``_Cross.lock``) make each such build happen once.  The
terms' threads take every CPU the process may use, so a BLAS that starts a thread
per CPU of its own competes with them; the gain is measured with BLAS on one thread
per call.

A grid holds its tables for as long as it lives, and each integral builds its
own, except inside a ``shared_grids`` scope: there ``_Grid.build`` hands out the
grid the scope already built for the same circles per variable, node count,
turn, variant and q, tables and all.  ``verify.check_shift_invariance`` opens
one around the two integrals of a shift pair; their rapidities are the same up
to a permutation, so their contour families (taken in the canonical pole order
of ``contours``) are equal and the second integral ranks and factors nothing.
The tables depend on the grid alone, so the values are the same bit for bit.
No grid outlives the scope that built it.

One adaptive loop serves every integral.  Node phases do not change with
the node count, so the grids at n/2 and n/4 are stride-2 subsets of the grid
at n and are read from the same tables.  The loop starts at the requested
count n, or, when none is given, at the least power of two >= 8 that the
contour family's margin rule accepts (``ContourFamily.start_count``).  It
returns I(n) when |I(n) - I(n/2)| < tol.  That difference is the error of
I(n/2), one level behind; trapezoid sums on circles converge geometrically,
so on a miss the loop reads I(n/4) too (free after a doubling).  When the
three levels contract, |I(n) - I(n/2)| < |I(n/2) - I(n/4)|, the three-level
estimate max(|I(n) - I(n/2)|^2 / |I(n/2) - I(n/4)|, 64 eps max|I|) predicts
the error of I(n).  Differences of nested levels cannot see a roundoff floor
above 64 eps |I|, which integrands with large cancellation have (1e-10 on a
k = 3 skew query whose prediction read 5e-17), so a prediction below tol is
confirmed on I~(n), the n-grid turned by half a spacing: its nodes are new
and its leading aliasing term flips sign, so |I(n) - I~(n)| is about twice
the error of I(n), roundoff included.  The loop returns I(n) when the larger
of the two is below tol; that costs one more evaluation at n, where a
doubling costs 2^k of them.  Otherwise n doubles and the old levels move down
one.  The estimate is taken on the quantity returned: moment prefactors such
as q^{k(k-1)/2 - l(pi)} ride in the ``pi_terms`` coefficients, and summed
integrals are priced as sums.  A run that would pass the node cap, or whose
next level's cross tables would pass ``TABLE_BUDGET`` bytes, stops where it is
and returns ``converged=False`` with |I(n) - I(n/2)|; ``converged=True``
always means ``error_estimate < tol``.  On a miss, I(n/4) and I~(n) are
evaluated only for the keys (pi) that need them.

The formula layer (theorems 6.1, 8.1 with its kappa route, 8.4, 8.5 and 9.2)
turns a query into lattice indices in one place, ``_read_query``: the ranks of
colors and pi, every color through ``lattice.whole`` and their order are checked
by ``_read_colors``, which ``MomentQuery`` runs when it is built; every point
passes through ``lattice.dbl`` and the order of the points is checked, each error
naming its query field.  It returns the doubled points (a2, b2) and the int
colors.  Every row and column count is read from them: (b2 - 1) // 2 rows lie
below beta and (a2 - 1) // 2 columns left of alpha.  The Beta polymer maps its
integer (m, t) to (m - 1/2, t - 1/2) first.  Phi and Psi of the q-variant formulas
are lists of one (zeros, poles) pair of ``ratio_product`` per point, and one
runner, ``_q_formula``, takes them with the model's contour family to the moment
prefactors and the adaptive loop for 6.1, 8.1 and 8.5.  Each model builds its
family in one place: 6.1 in ``qmoment_skew_multi``, the higher-spin formulas 8.1,
its kappa route and 8.4 in ``_hs_factors``, 8.5 in ``build_contours_qhahn``.  The
rapidities a formula reads pass ``lattice.check_pole_separation`` once: the step
rapidities for 6.1, the rows the query reads in ``_hs_factors`` for 8.1, its
kappa route and 8.4.  The DL terms of T_pi expand by ``hecke._push``, the push
rule that ``kappa_table`` runs on scalars.  The Beta polymer's factors are powers
of ratios linear in w, kept as closures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, permutations, product

import numpy as np

from . import threads
from .contours import ContourFamily, build_contours, build_contours_beta, build_contours_qhahn
from .errors import (ContourResolutionError, ParameterSingularityError, UnsupportedRegimeError,
                     ValidationError)
from .hecke import Permutation, PointFunction, _coeffs, _push, _variant, apply_T_pi
from .lattice import (ModelParams, SkewDomain, check_beta_regime, check_pole_separation,
                      check_qhahn_regime, dbl, whole)
from .weights import qidentity_coef

NODE_CAP = 4096
TABLE_BUDGET = 2**28  # bytes of one level's cross tables (``_table_bytes``) the loop may build
DEFAULT_TOL = 1e-10
ROUNDOFF = 64 * np.finfo(float).eps  # relative floor of the three-level estimate


@dataclass
class MomentQuery:
    """Points, colors, and permutation of a joint q-moment observable; the colors and
    pi pass ``_read_colors`` when it is built."""

    points: list  # (alpha, beta) half-integer pairs
    colors: list
    pi: Permutation | None = None

    def __post_init__(self):
        if self.pi is None:
            self.pi = Permutation.identity(len(self.points))
        _read_colors(len(self.points), self.colors, [self.pi])

    @property
    def k(self) -> int:
        return len(self.points)


@dataclass
class MomentResult:
    """An integral value I(n), its error estimate, the final node count n, and
    whether the estimate met the tolerance before the node cap or table budget.

    The estimate is |I(n) - I(n/2)|, or, where that misses the tolerance, the
    larger of the three-level estimate and |I(n) - I~(n)| (see the module
    docstring) if that one meets it.
    """

    value: complex
    error_estimate: float
    nodes_per_circle: int
    converged: bool = True

    def real_checked(self, tol: float = 1e-8) -> float:
        if abs(self.value.imag) > tol:
            raise ValidationError(f"imaginary part {self.value.imag} exceeds {tol}")
        return self.value.real


@dataclass
class PairingIntegrand:
    """Structured integrand (sum_i c_i T_{pi_i} Phi) * Psi with product factors.

    phi_terms: list of (coef, [per-variable callables]) whose sum is Phi;
    psi_factors: per-variable callables multiplying to Psi;
    pi_terms: list of (coef, Permutation) applied to Phi inside the pairing.
    """

    phi_terms: list
    psi_factors: list
    pi_terms: list
    variant: str = "q"


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------


# {grid key: _Grid} of the innermost open ``shared_grids`` scope; None outside every scope
_SHARED: ContextVar[dict | None] = ContextVar("vertexflow_shared_grids", default=None)


@contextmanager
def shared_grids():
    """A scope in which integrals on the same contour circles share their grids.

    Inside it, ``_Grid.build`` returns the grid it already built for the same circles
    per variable, node count, turn, variant and q, with every table that grid holds:
    cross tables, edge rankings, full-size factors and DL pair tables.  A grid lives
    until the scope that built it closes; a nested scope starts empty.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


class _Grid:
    """Nodes, weights and pair-factor tables of one quadrature level: cross tables, their
    closed-form products with a first DL factor, DL tables and edge rankings.  Each is
    built on first use, and a coarse level reads a stride-2 view of its finer's."""

    def __init__(self, nodes: list, dws: list, variant: str, q, finer: "_Grid | None" = None):
        self.k = len(nodes)
        self.nodes = nodes
        self.dws = dws
        self.variant = variant
        self.q = q
        self.den, self.a_num = _variant(variant, q)
        self._finer = finer
        self._tables = {}
        # held while a table or an edge ranking is looked up and built: the terms of a
        # k >= 5 split may meet the same one on two threads.  A grid shares it with its
        # coarser levels, which read its tables.
        self._lock = finer._lock if finer is not None else threading.RLock()

    @classmethod
    def build(cls, fam: ContourFamily, nodes_per_circle: int, variant: str, q,
              turn: float = 0.0) -> "_Grid":
        """The grid of ``fam`` at ``nodes_per_circle``; inside a ``shared_grids`` scope,
        the one that scope already built for the same key, if any."""
        shared = _SHARED.get()
        key = (tuple(map(tuple, fam.per_variable)), nodes_per_circle, turn, variant, q)
        if shared is not None and key in shared:
            return shared[key]
        nodes, dws = zip(*(fam.nodes(a, nodes_per_circle, turn) for a in range(1, fam.k + 1)))
        grid = cls(list(nodes), list(dws), variant, q)
        if shared is not None:
            shared[key] = grid
        return grid

    def coarse(self) -> "_Grid":
        """The n/2 level, the stride-2 subset of this one (n even), read from its tables."""
        return _Grid([w[::2] for w in self.nodes], [2 * dw[::2] for dw in self.dws],
                     self.variant, self.q, finer=self)

    def _table(self, key, build):
        """``build(grid)`` on the finest level; a coarser level reads the stride-2 view of
        its finer's."""
        with self._lock:
            if key not in self._tables:
                self._tables[key] = (build(self) if self._finer is None
                                     else self._finer._table(key, build)[::2, ::2])
            return self._tables[key]

    def cross(self, a: int, b: int) -> np.ndarray:
        """prod factor (w_b - w_a) / den(w_a, w_b) for the pair a < b (0-based): rows index
        var a, cols var b."""
        def build(grid):
            wa, wb = grid.nodes[a][:, None], grid.nodes[b][None, :]
            return (wb - wa) / grid.den(wa, wb)

        return self._table(("cross", a, b), build)

    def cross_times(self, tag: str, u: int, v: int) -> np.ndarray:
        """``cross(x, y) * pair_matrix(tag, u, v)`` for {x, y} = {u, v}, x < y, with one
        division: the factor's denominator w_y - w_x cancels against the cross factor's
        numerator.  With X = w_x, Y = w_y that leaves a_num(X, Y), -a_num(Y, X) or -den(Y, X)
        over den(X, Y) for a on (x, y), a on (y, x) or b on (y, x); b on (x, y) is exactly 1,
        an edge the caller drops.  Rows index x."""
        def build(grid):
            x, y = sorted((u, v))
            wx, wy = grid.nodes[x][:, None], grid.nodes[y][None, :]
            num = grid.a_num(wx, wy) if u < v else -(grid.a_num if tag == "a" else grid.den)(wy, wx)
            den = grid.den(wx, wy)
            return np.divide(num, den, out=den)

        return self._table(("cross", tag, u, v), build)

    def cross_factors(self, a: int, b: int):
        """``_ranked(cross(a, b))``.  On the finest level it factors the stride-2
        submatrix, which is the cross matrix of the next coarser level: that level reads
        it as its own factors.  A level further down ranks its own cross matrix."""
        key = ("factors", a, b)
        with self._lock:
            if key not in self._tables:
                finer = self._finer
                self._tables[key] = (finer.cross_factors(a, b)
                                     if finer is not None and finer._finer is None
                                     else _ranked(self.cross(a, b)))
            return self._tables[key]

    def pair_matrix(self, tag: str, u: int, v: int) -> np.ndarray:
        """Coefficient matrix for DL-recursion factors on the variable pair (u, v), with
        rows indexing min(u, v) and columns max(u, v)."""
        def build(grid):
            fn = _coeffs(grid.variant, grid.q)[tag == "b"]
            wu, wv = grid.nodes[u], grid.nodes[v]
            return fn(wu[:, None], wv[None, :]) if u < v else fn(wu[None, :], wv[:, None])

        return self._table((tag, u, v), build)


class _Cross(tuple):
    """Factors (x, y) of a cross approximation; ``pivots`` holds the (row, column) of each
    step.  ``_factored`` keeps on a ranking record its full-size factors as ``full``,
    built under the record's ``lock``: the terms of a k >= 5 split may read one record
    on two threads."""

    def __new__(cls, x, y, pivots):
        cross = super().__new__(cls, (x, y))
        cross.pivots = pivots
        cross.lock = threading.Lock()
        return cross


def _cross_approx(mat: np.ndarray, cap: int | None = None, seed=()):
    """Cross approximation (rank-revealing LU): factors (x, y) with
    max|mat - x @ y| <= 1e-15 max|mat| on the explicit residual, with their pivots, or
    None once the rank would pass ``cap``; by default that is at half the smaller
    dimension, where splitting the edge no longer pays.

    The ``seed`` pivots come first, each from one residual row and column at O(N r);
    a seed whose residual pivot is at roundoff is skipped.  Complete pivoting on the
    explicit residual mat - x @ y finishes, and goes on until that residual passes.
    Row r of ``xt`` and of ``y`` take the column and the scaled row of pivot r in
    place; x = xt[:r].T, so every product reads the factors in the layout returned.
    """
    mat = np.asarray(mat, dtype=complex)
    if cap is None:
        cap = (min(mat.shape) - 1) // 2
    stop = 1e-15 * np.abs(mat).max()
    xt, y = np.empty((cap, mat.shape[0]), complex), np.empty((cap, mat.shape[1]), complex)
    pivots = []
    for i, j in seed:
        r = len(pivots)
        col = mat[:, j] - xt[:r].T @ y[:r, j]
        if abs(col[i]) <= stop:
            continue
        if r == cap:
            return None
        y[r] = (mat[i] - xt[:r, i] @ y[:r]) / col[i]
        xt[r] = col
        pivots.append((i, j))
    res, mag, outer = np.empty_like(mat), np.empty(mat.shape), np.empty_like(mat)
    while True:
        r = len(pivots)
        np.subtract(mat, np.matmul(xt[:r].T, y[:r], out=res), out=res)
        np.abs(res, out=mag)
        i, j = divmod(int(mag.argmax()), res.shape[1])
        if mag[i, j] <= stop:
            return _Cross(xt[:r].copy().T, y[:r].copy(), pivots)
        while mag[i, j] > stop:
            if r == cap:
                return None
            xt[r] = res[:, j]
            y[r] = res[i] / res[i, j]
            pivots.append((i, j))
            res -= np.multiply(xt[r][:, None], y[r][None, :], out=outer)
            r += 1
            np.abs(res, out=mag)
            i, j = divmod(int(mag.argmax()), res.shape[1])


def _ranked(mat: np.ndarray):
    """The record an edge is ranked by: ``_cross_approx`` of the stride-2 submatrix of
    ``mat`` with the cap of ``mat``, or of ``mat`` itself if a dimension is odd."""
    if mat.shape[0] % 2 or mat.shape[1] % 2:
        return _cross_approx(mat)
    return _cross_approx(mat[::2, ::2], (min(mat.shape) - 1) // 2)


def _factored(f, mat: np.ndarray):
    """Factors of ``mat`` from its record ``f``: ``f`` itself if it has the size of ``mat``,
    else ``mat`` factored from the pivots of ``f`` doubled to (2i, 2j), once per record."""
    if len(f[0]) == len(mat):
        return f
    with f.lock:
        if not hasattr(f, "full"):
            f.full = _cross_approx(mat, seed=[(2 * i, 2 * j) for i, j in f.pivots])
        return f.full


def _least_rank(records: dict, mats: dict, keys, n: int | None = None):
    """(key, factors of ``mats[key]``) for the edge of least rank r among ``keys`` that
    ``records`` ranks, with 2r below ``n`` (by default the order of its matrix) and a
    full-size factorization that stays below half rank; None if there is none."""
    ranked = sorted((f[0].shape[1], key) for key in keys if (f := records.get(key)) is not None
                    and 2 * f[0].shape[1] < (n or min(mats[key].shape)))
    for _, key in ranked:
        if (f := _factored(records[key], mats[key])) is not None:
            return key, f
    return None


def _edge(a: int, b: int) -> tuple:
    """The key of the edge {a, b}: (min, max)."""
    return (min(a, b), max(a, b))


def _neighbours(vs, edges) -> dict:
    """The sorted neighbours of each variable of ``vs`` in the graph of ``edges``."""
    nbrs = {v: [] for v in vs}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return {v: sorted(ws) for v, ws in nbrs.items()}


@lru_cache(maxsize=1024)
def _eliminations(vs: frozenset, edges: frozenset) -> tuple:
    """(v, neighbours of v) for each variable that ``_contract`` sums out of the graph of
    ``vs`` and ``edges``, in turn: the last variable of least degree, while it has at most
    two edges.  Summing out v between a and b leaves the edge (a, b).  Every term of a
    split has the same graph, so the plan is made once per graph."""
    vs, edges, steps = set(vs), set(edges), []
    while vs:
        nbrs = _neighbours(vs, edges)
        v = max(vs, key=lambda v: (-len(nbrs[v]), v))
        if len(nbrs[v]) > 2:
            break
        vs.remove(v)
        edges.difference_update(_edge(v, w) for w in nbrs[v])
        if len(nbrs[v]) == 2:
            edges.add(tuple(nbrs[v]))
        steps.append((v, tuple(nbrs[v])))
    return tuple(steps)


def _oriented(mats: dict, a: int, b: int) -> np.ndarray:
    """The matrix of the edge {a, b} with rows indexing variable a."""
    return mats[(a, b)] if a < b else mats[(b, a)].T


# the edge of a DL term that no factor has touched yet: its cross factor, still unbuilt
_UNTOUCHED = object()


class _Scratch:
    """The complex buffers of one thread's degree-two steps, kept by shape: a step takes
    what it writes and gives back what it has read for the last time, so the terms of a
    split, and the terms of their own splits, run on the same few buffers."""

    def __init__(self):
        self.free = {}

    def take(self, shape) -> np.ndarray:
        """A C-contiguous buffer of ``shape``: a free one if there is one, else a new one."""
        bufs = self.free.get(shape)
        return bufs.pop() if bufs else np.empty(shape, complex)

    def scaled(self, mat: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``mat * u`` (``u`` scales the columns) in a buffer of the layout numpy gives it:
        the transpose of a C-contiguous buffer where ``mat`` is a transpose."""
        transposed = mat.strides[0] < mat.strides[1]
        out = self.take(mat.shape[::-1]).T if transposed else self.take(mat.shape)
        return np.multiply(mat, u, out=out)

    def product(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``left @ right`` in a C-contiguous buffer."""
        return np.matmul(left, right, out=self.take((left.shape[0], right.shape[1])))

    def give(self, *bufs):
        for buf in bufs:
            buf = buf if buf.flags.c_contiguous else buf.T
            self.free.setdefault(buf.shape, []).append(buf)


# the scratch of the running ``_in_order`` term, which its own splits share; None outside
_SCRATCH: ContextVar[_Scratch | None] = ContextVar("vertexflow_scratch", default=None)


def _in_order(term, count: int) -> complex:
    """term(0) + term(1) + ... + term(count - 1), added in that order whichever thread
    computes each term, so the sum has the same bits on any number of CPUs.

    Inside a task of this routine the terms run in turn on its scratch.  Otherwise
    term 0 runs first, alone on the calling thread and a scratch allocated here, and
    the rest are the tasks of ``threads.run_tasks``, which runs at most
    min(count - 1, CPUs) at a time, each thread taking the next term as it finishes
    one, so a slower CPU takes fewer.  A task runs on a free scratch of the split, or
    on one its thread allocates if none is free.
    """
    if _SCRATCH.get() is not None:
        values = [term(t) for t in range(count)]
    else:
        pool = [_Scratch()]

        def run(t):  # in the task's own context
            scratch = pool.pop() if pool else _Scratch()  # a helper allocates its own
            _SCRATCH.set(scratch)
            try:
                return term(t)
            finally:
                pool.append(scratch)

        values = [copy_context().run(run, t) for t in range(min(count, 1))]
        values += threads.run_tasks(partial(run, t) for t in range(1, count))
    total = 0j
    for value in values:
        total += value
    return total


def _contract(us: dict, mats: dict, factors, cached: dict | None = None,
              memo: dict | None = None) -> complex:
    """sum over the grid of prod_a us[a][n_a] * prod_{(a,b) in mats} mats[(a,b)][n_a, n_b].

    ``us`` maps each variable to its node vector and ``mats`` maps a pair a < b
    to its matrix (rows index a); a pair not in ``mats`` is an absent edge.  An
    edge's record is factors (x, y) from ``_cross_approx``, either of its matrix
    or, with their pivots, of its stride-2 submatrix (as ``_ranked`` gives); the
    rank of x ranks the edge, and only an edge chosen by that rank is factored at
    full size (``_factored``).  ``cached`` maps some pairs to their records.  The
    variables are summed out in the order of ``_eliminations`` while one has at
    most two edges: by a sum, a matvec into its neighbour, or into the edge between
    its two neighbours a and b.  That edge is M_av diag(u_v) M_vb: two thin GEMMs
    through the factors of the cached edge of v of lower rank r if 2r < N_v, else one
    square GEMM.  Once every variable has three or more edges, the edges at distance
    |a - b| >= 2 are ranked, by ``factors(key, mat)`` unless cached, and the edge of
    least rank r below half its order is split into its r rank-1 terms, each a graph
    with that edge gone.  A distance-1 edge, of higher rank on q-nested circles, is
    ranked only on demand: for the split when no ranked edge qualifies, and for a
    degree-two step of the terms whose edges include no ranked edge that qualifies.
    The split walks the terms' eliminations once to find those, so each edge is ranked
    once for all terms, and the records go down to the terms as ``cached``; an edge
    left unranked is in neither.  Only when no edge has rank below half its order
    does the routine condition on the first variable of most edges, one subgraph per
    node.  The terms of a split and the subgraphs of that loop go to ``_in_order``:
    at the top level they run on every CPU the process may use, and their values are
    added in term order, as a serial loop would, so the result has the same bits on
    any number of CPUs.  A degree-two step without ``memo`` writes its products into
    buffers of the running term's ``_Scratch`` (a new one outside every term) and
    gives back each edge it sums out; the buffers still held go back when the call
    returns.

    ``memo``, which only top-level calls pass (``_pairing_on_grid`` passes its own),
    maps (a, v, b, id(u_v), id(M_av), id(M_vb)) to (u_v, M_av, M_vb, M_av diag(u_v) M_vb):
    each degree-two product is taken from it, and a memoised edge is multiplied out of
    place.  Split terms and conditioned subgraphs memoise nothing.
    """
    us, mats, cached = dict(us), dict(mats), dict(cached or {})
    scratch = _SCRATCH.get()
    held = {}  # {id: buffer} of the scratch buffers in ``mats``

    def release(*spent):  # edges read for the last time: their buffers go back
        for buf in spent:
            if held.pop(id(buf), None) is not None:
                scratch.give(buf)

    scale = 1
    for v, nbrs in _eliminations(frozenset(us), frozenset(mats)):
        uv = us.pop(v)
        if not nbrs:
            scale = scale * uv.sum()
        elif len(nbrs) == 1:
            (w,) = nbrs
            us[w] = us[w] * (_oriented(mats, w, v) @ uv)
            release(mats.pop(_edge(v, w)))
        elif memo is not None:  # top level: nothing is cached, so the product is square
            a, b = nbrs
            av, vb = _edge(a, v), _edge(v, b)
            ident = (a, v, b, id(uv), id(mats[av]), id(mats[vb]))
            if ident not in memo:  # the entry holds its inputs, so their ids stay theirs
                memo[ident] = (uv, mats[av], mats[vb],
                               (_oriented(mats, a, v) * uv) @ _oriented(mats, v, b))
            edge = memo[ident][-1]
            del mats[av], mats[vb]
            mats[(a, b)] = mats[(a, b)] * edge if (a, b) in mats else edge
        else:
            a, b = nbrs
            scratch = scratch or _Scratch()
            thin = _least_rank(cached, mats, (_edge(a, v), _edge(v, b)), len(uv))
            m_av, m_vb = _oriented(mats, a, v), _oriented(mats, v, b)
            spent = mats.pop(_edge(a, v)), mats.pop(_edge(v, b))
            if thin is None:  # one square GEMM
                temp = left = scratch.scaled(m_av, uv)
                right = m_vb
            else:
                key, (x, y) = thin
                if a in key:  # M_av = left @ right
                    left, right = (x, y) if a < v else (y.T, x.T)
                    scaled = scratch.scaled(right, uv)
                    temp = right = scratch.product(scaled, m_vb)
                else:  # M_vb = left @ right
                    left, right = (x, y) if v < b else (y.T, x.T)
                    scaled = scratch.scaled(m_av, uv)
                    temp = left = scratch.product(scaled, left)
                # the N^2 edges summed out go back before the new one is taken: a term
                # then holds one N^2 buffer at a time
                scratch.give(scaled)
                release(*spent)
            edge = scratch.product(left, right)
            scratch.give(temp)
            if thin is None:  # read by the square GEMM
                release(*spent)
            cached.pop((a, b), None)
            if (a, b) in mats:
                np.multiply(mats[(a, b)], edge, out=edge)
                release(mats[(a, b)])
            mats[(a, b)] = held[id(edge)] = edge
    if not us:
        return scale

    # adjacent pairs have the highest rank on nested circles: ranked only when needed
    records = {key: cached[key] if key in cached else factors(key, mat)
               for key, mat in mats.items() if key in cached or key[1] - key[0] > 1}
    split = _least_rank(records, mats, records)
    if split is None:
        later = {key: factors(key, mat) for key, mat in mats.items() if key not in records}
        records.update(later)
        split = _least_rank(records, mats, later)
    if split:
        (a, b), (x, y) = split
        del mats[(a, b)], records[(a, b)]
        # every term takes the same degree-two steps: one that finds no ranked edge to
        # thin through ranks its edges here, once for all terms
        built = set()  # edges an earlier step rebuilt, which the terms never cache
        for v, nbrs in _eliminations(frozenset(us), frozenset(mats)):
            if len(nbrs) == 2:
                keys = [key for key in (_edge(nbrs[0], v), _edge(v, nbrs[1])) if key not in built]
                if _least_rank(records, mats, keys, len(us[v])) is None:
                    records.update({key: factors(key, mats[key]) for key in keys
                                    if key not in records})
                built.add(tuple(nbrs))

        def term(t):
            return _contract({**us, a: us[a] * x[:, t], b: us[b] * y[t]}, mats, factors, records)

        total = _in_order(term, x.shape[1])
    else:
        nbrs = _neighbours(us, mats)
        v = min(us, key=lambda v: (-len(nbrs[v]), v))
        uv = us.pop(v)
        rest = {key: m for key, m in mats.items() if v not in key}

        def term(i):
            rows = {w: us[w] * _oriented(mats, v, w)[i] for w in nbrs[v]}
            return uv[i] * _contract({**us, **rows}, rest, factors, {})

        total = _in_order(term, len(uv))
    release(*held.values())
    return scale * total


def _pairing_on_grid(grid: _Grid, integrand: PairingIntegrand, keys=None) -> dict:
    """Values of the pairing for each pi in integrand.pi_terms, on a fixed grid; with
    ``keys``, only for the pi whose images are in ``keys``.

    Each DL term's edges start untouched, marked ``_UNTOUCHED``.  A b-factor on (u, v)
    with u < v cancels an untouched cross(u, v) exactly, so that edge is dropped; any
    other first factor on an untouched edge reads the closed-form product
    ``grid.cross_times``, and a factor on a touched or dropped edge multiplies it by
    the a- or b-table.  An edge still untouched when its term is contracted becomes
    ``grid.cross``, so a cross table is built only where a term reads it, and the grid
    ranks it once.  The terms of every pi are one expansion: each product of an edge
    with an a- or b-table, and each (phi term, slot, variable) vector, is built once
    per call, so equal chains in different terms are the same objects, and the
    top-level ``_contract`` calls share one ``memo``, which builds one degree-two
    product per distinct (u_v, M_av, M_vb).  Only the grid's tables outlive the call.
    """
    k = grid.k
    base_u = [grid.dws[a] / grid.nodes[a] for a in range(k)]
    psi_vals = [np.asarray(f(grid.nodes[a])) + 0j for a, f in enumerate(integrand.psi_factors)]
    # per phi term, its vector of slot s on variable b
    phi_us = [(coef, [[base_u[b] * psi_vals[b] * (np.asarray(f(grid.nodes[b])) + 0j)
                       for b in range(k)] for f in factors])
              for coef, factors in integrand.phi_terms]
    products = {}  # {(id(edge), id(table)): edge * table}; every edge and table outlives it
    memo = {}  # the degree-two products of the top-level ``_contract`` calls

    def edge_factors(key, mat):  # the grid ranks its own cross tables once
        return grid.cross_factors(*key) if mat is grid._tables.get(("cross", *key)) else _ranked(mat)

    def times(mats, tag, u, v):
        key = (min(u, v), max(u, v))
        if mats.get(key) is _UNTOUCHED:
            return {**mats, key: grid.cross_times(tag, u, v)}
        table = grid.pair_matrix(tag, u, v)  # a b-table is built only here, where it is read
        if key not in mats:
            return {**mats, key: table}
        ident = (id(mats[key]), id(table))
        if ident not in products:
            products[ident] = mats[key] * table
        return {**mats, key: products[ident]}

    def a_step(tlist, u, v):
        return [times(mats, "a", u - 1, v - 1) for mats in tlist]

    def b_step(tlist, u, v):
        key = (u - 1, v - 1)
        return [{edge: m for edge, m in mats.items() if edge != key}
                if u < v and mats.get(key) is _UNTOUCHED else times(mats, "b", u - 1, v - 1)
                for mats in tlist]

    def contracted(mats):  # an edge still untouched reads its cross table
        return {key: grid.cross(*key) if m is _UNTOUCHED else m for key, m in mats.items()}

    untouched = {(a, b): _UNTOUCHED for a in range(k) for b in range(a + 1, k)}
    out = {}
    for picoef, pi in integrand.pi_terms:
        if keys is not None and pi.images not in keys:
            continue
        total = 0j
        for rho, tlist in _push(pi, [untouched], a_step, b_step).items():
            tlist = [contracted(mats) for mats in tlist]
            for phi_coef, slots in phi_us:
                # variable b reads the slot s with rho(s) = b
                us = {b: slots[rho.index(b + 1)][b] for b in range(k)}
                for mats in tlist:
                    total += phi_coef * _contract(us, mats, edge_factors, memo=memo)
        out[pi.images] = out.get(pi.images, 0j) + picoef * total
    return out


def _start(fam: ContourFamily, nodes_per_circle: int | None) -> int:
    """The start count: ``nodes_per_circle`` if given, else the family's own.  The
    entry points resolve it before they call ``pairing_values``, so the count that
    ``pairing_values`` receives is the one the loop starts at."""
    return fam.start_count() if nodes_per_circle is None else nodes_per_circle


def _table_bytes(fam: ContourFamily, n: int) -> int:
    """Bytes of the cross tables of level n, one complex (N_a, N_b) table per pair of
    variables a < b, where N_a is n times the circle count of variable a."""
    sizes = [n * len(circles) for circles in fam.per_variable]
    return 16 * sum(sizes[a] * sizes[b]
                    for a in range(len(sizes)) for b in range(a + 1, len(sizes)))


def _three_level(fine: complex, coarse: complex, coarser: complex) -> float:
    """max(|I(n) - I(n/2)|^2 / |I(n/2) - I(n/4)|, 64 eps max|I|) for I(n) = ``fine``,
    I(n/2) = ``coarse`` and I(n/4) = ``coarser``; inf unless the levels contract."""
    two, back = abs(fine - coarse), abs(coarse - coarser)
    if not two < back:
        return np.inf
    return max(two * two / back, ROUNDOFF * max(abs(fine), abs(coarse), abs(coarser)))


def _reads_quarter(n: int) -> bool:
    """Whether level n may be certified through I(n/4): only if that level has at
    least 8 nodes per circle, the least start count.  Predictions from 4 nodes per
    circle were off by up to 4x on the enumeration sweep of the test corpus."""
    return n % 4 == 0 and n // 4 >= 8


def _estimate(fine: complex, coarse: complex, coarser, turned, tol: float) -> float:
    """The error estimate of I(n) = ``fine``: |I(n) - I(n/2)|, unless that misses ``tol``
    and the larger of the three-level estimate and |I(n) - I~(n)| meets it.  I~(n) =
    ``turned`` is I on the n-grid turned by half a spacing; ``coarser`` or ``turned``
    is None where that level is not read."""
    two = abs(fine - coarse)
    if two < tol or coarser is None or turned is None:
        return two
    sharp = max(_three_level(fine, coarse, coarser), abs(fine - turned))
    return sharp if sharp < tol else two


@np.errstate(all="ignore")  # a level that overflows is reported below, not warned about
def _adaptive(fam: ContourFamily, variant: str, q, evaluate, nodes_per_circle: int | None,
              tol: float, cap: int) -> dict:
    """The adaptive loop: {key: MomentResult} for ``evaluate(grid) -> {key: value}``;
    ``evaluate(grid, keys)`` may return only the listed keys.  A non-finite value
    raises ContourResolutionError at ``params``: the nodes stay off every pole, so
    only the parameters can overflow the integrand, and no node count helps.

    Level n is priced against its stride-2 subset n/2 (an odd start count is
    first doubled, so the requested grid is that subset).  Where some key misses
    ``tol`` and ``_reads_quarter(n)``, I(n/4) is read too (at the first level it
    is evaluated then, for the missed keys), and for the keys whose three-level
    estimate meets ``tol``, I~(n) on the turned grid is evaluated to confirm it
    (see ``_estimate``).  Until every key's estimate is below ``tol``, n doubles
    and the old levels become the coarse ones; it stops unconverged where doubling
    would pass ``cap`` or the doubled level's pair tables would pass
    ``TABLE_BUDGET`` bytes (``_table_bytes``).
    """
    n = _start(fam, nodes_per_circle)
    fam.validate(n)
    if n % 2:
        n *= 2
    grid = _Grid.build(fam, n, variant, q)
    half = grid.coarse()
    fine, coarse, coarser = evaluate(grid), evaluate(half), None
    while True:
        for v in fine.values():
            if not np.isfinite(v):
                raise ContourResolutionError(f"non-finite integral value at {n} nodes per "
                                             f"circle: the parameters overflow the integrand",
                                             field="params")
        missed = [key for key in fine if not abs(fine[key] - coarse[key]) < tol]
        turned = None
        if missed and _reads_quarter(n):
            if coarser is None:
                coarser = evaluate(half.coarse(), missed)
            sharp = [key for key in missed
                     if _three_level(fine[key], coarse[key], coarser[key]) < tol]
            if sharp:
                turned = evaluate(_Grid.build(fam, n, variant, q, turn=0.5), sharp)
        est = {key: _estimate(fine[key], coarse[key], coarser and coarser.get(key),
                              turned and turned.get(key), tol) for key in fine}
        if max(est.values()) < tol or 2 * n > cap or _table_bytes(fam, 2 * n) > TABLE_BUDGET:
            return {key: MomentResult(fine[key], est[key], n, bool(est[key] < tol))
                    for key in fine}
        n *= 2
        coarser, coarse = coarse, fine
        fine = evaluate(_Grid.build(fam, n, variant, q))


def pairing_values(fam: ContourFamily, integrand: PairingIntegrand, q,
                   nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                   cap: int = NODE_CAP) -> dict:
    """Adaptive evaluation; returns {pi images: MomentResult}, each pi's value
    carrying its ``pi_terms`` coefficient.  With no node count the loop starts at
    ``fam.start_count()``."""
    def evaluate(grid, keys=None):
        return _pairing_on_grid(grid, integrand, keys)

    return _adaptive(fam, integrand.variant, q, evaluate, nodes_per_circle, tol, cap)


def iterated_integral(f: PointFunction, contours: ContourFamily, nodes_per_circle: int | None = None,
                      q=None, tol: float = DEFAULT_TOL, cap: int = NODE_CAP) -> MomentResult:
    """The pairing integral of the PointFunction ``f`` over the contour family,
    evaluated on the dense node mesh (k <= 3) with the cross factor
    prod_{a<b}(w_b - w_a)/(w_b - q w_a) and the measure dw_a/(2 pi i w_a).
    Factored integrands go through ``pairing_values``."""
    def evaluate(grid, keys=None):
        return {None: _mesh_integral(grid, f)}

    return _adaptive(contours, "q", q, evaluate, nodes_per_circle, tol, cap)[None]


def _mesh_integral(grid: _Grid, f: PointFunction) -> complex:
    k = grid.k
    if k > 3:
        raise ValidationError("mesh evaluation supports k <= 3; use pairing_values")
    base = [grid.dws[a] / grid.nodes[a] for a in range(k)]
    if k == 1:
        vals = f([grid.nodes[0]])
        return (vals * base[0]).sum()
    if k == 2:
        w0 = grid.nodes[0][:, None] + 0 * grid.nodes[1][None, :]
        w1 = grid.nodes[1][None, :] + 0 * grid.nodes[0][:, None]
        vals = f([w0, w1]) * grid.cross(0, 1)
        return (vals * base[0][:, None] * base[1][None, :]).sum()
    total = 0j  # one w_0 node at a time over the whole (w_1, w_2) mesh: O(N^2) memory
    c01, c02 = grid.cross(0, 1), grid.cross(0, 2)
    w1, w2 = np.meshgrid(grid.nodes[1], grid.nodes[2], indexing="ij")
    inner = grid.cross(1, 2) * base[1][:, None] * base[2][None, :]
    for i, w0 in enumerate(grid.nodes[0]):
        vals = f([np.full_like(w1, w0), w1, w2])
        total += (vals * c01[i][:, None] * c02[i][None, :] * inner).sum() * base[0][i]
    return total


# ---------------------------------------------------------------------------
# per-variable factor builders
# ---------------------------------------------------------------------------


def ratio_product(zeros, poles):
    """w -> prod_i (1 - zeros[i] w) / prod_i (1 - poles[i] w)."""
    zs = list(zeros)
    ps = list(poles)

    def f(w):
        out = np.ones_like(np.asarray(w, dtype=complex))
        for t in zs:
            out = out * (1 - t * w)
        for t in ps:
            out = out / (1 - t * w)
        return out

    return f


def _read_colors(k: int, colors, pis=()) -> list:
    """The int colors of a k-point query: ``colors`` and every permutation in ``pis``
    have k entries and each color is a whole number (``lattice.whole``), the colors
    nondecreasing; otherwise ValidationError names the query field ``colors`` or ``pi``.
    """
    if len(colors) != k:
        raise ValidationError(f"{len(colors)} colors for {k} points", field="colors")
    for pi in pis:
        if len(pi) != k:
            raise ValidationError(f"permutation rank {len(pi)} for {k} points", field="pi")
    colors = [whole(c, "colors") for c in colors]
    if any(c1 > c2 for c1, c2 in zip(colors, colors[1:])):
        raise ValidationError("colors must be nondecreasing", field="colors")
    return colors


def _read_query(points, colors, pis=()) -> tuple:
    """The doubled points (2 alpha, 2 beta) and the int colors of a query, after its
    one check.

    The colors and ``pis`` pass ``_read_colors``; each point is a half-integer pair
    in the open quadrant (``lattice.dbl``), alphas are nondecreasing and betas
    nonincreasing; otherwise ValidationError names the query field ``points``.
    """
    colors = _read_colors(len(points), colors, pis)
    try:
        pts = [dbl(*p) for p in points]
    except (TypeError, ValidationError):
        raise ValidationError(f"points must be half-integer (alpha, beta) pairs, got {points}",
                              field="points") from None
    if any(a2 < 0 or b2 < 0 for a2, b2 in pts):
        raise ValidationError("points must lie in the open quadrant", field="points")
    if any(p[0] > r[0] for p, r in zip(pts, pts[1:])):
        raise ValidationError("alphas must be nondecreasing", field="points")
    if any(p[1] < r[1] for p, r in zip(pts, pts[1:])):
        raise ValidationError("betas must be nonincreasing", field="points")
    return pts, colors


# ---------------------------------------------------------------------------
# Theorem: skew-domain q-moments (main integral formula)
# ---------------------------------------------------------------------------


def _moment_prefactor(q, pi: Permutation) -> float:
    """q^{k(k-1)/2 - l(pi)}, the factor between the pairing and the q-moment."""
    k = len(pi)
    return q ** (k * (k - 1) / 2 - pi.length())


def _moment_terms(q, pis) -> list:
    """``pi_terms`` that carry the moment prefactor into the adaptive loop."""
    return [(_moment_prefactor(q, pi), pi) for pi in pis]


def _q_formula(phi, psi, fam: ContourFamily, q, pis, nodes_per_circle: int | None, tol: float,
               cap: int) -> dict:
    """{pi images: MomentResult} of a q-variant formula for every pi in ``pis``.

    ``phi`` and ``psi`` hold one (zeros, poles) pair of ``ratio_product`` per point,
    the factors of Phi and Psi.  ``fam`` is the model's contour family, built where
    its poles are known and handed unchanged to ``pairing_values``; any family of the
    q-nested class gives the same value (``ContourFamily.scaled`` deforms one).  Each
    pairing carries its moment prefactor.
    """
    integrand = PairingIntegrand([(1.0, [ratio_product(*f) for f in phi])],
                                 [ratio_product(*f) for f in psi], _moment_terms(q, pis))
    return pairing_values(fam, integrand, q, _start(fam, nodes_per_circle), tol, cap)


def qmoment_skew_multi(domain: SkewDomain, params: ModelParams, points, colors, pis,
                       nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                       cap: int = NODE_CAP) -> dict:
    """E[q^{H_{pi.c}}] for every pi in ``pis``, sharing one quadrature grid."""
    pts, colors = _read_query(points, colors, pis)
    q = params.q
    p_points = set(domain.p_path.points())
    for p in pts:
        if p not in p_points:
            raise ValidationError(f"point {p} does not lie on P", field="points")
    zetas = domain.step_rapidities(params)
    check_pole_separation(zetas, q)
    xs = params.row_rapidities[: domain.n_rows]
    ys = params.col_rapidities[: domain.m_cols]

    def crossed(a2, b2):
        """x_i for the rows i < beta, then y_j for the columns j > alpha."""
        return list(xs[: (b2 - 1) // 2]) + list(ys[(a2 - 1) // 2:])

    phi = [(zp, [q * t for t in zp])  # at (gamma(c), delta(c))
           for zp in (crossed(*domain.threshold(c)) for c in colors)]
    psi = [([q * t for t in zp], zp) for zp in (crossed(*p) for p in pts)]
    fam = build_contours([1 / t for t in zetas], [1 / (q * t) for t in zetas], len(pts), q)
    return _q_formula(phi, psi, fam, q, pis, nodes_per_circle, tol, cap)


def qmoment_skew(domain: SkewDomain, params: ModelParams, query: MomentQuery,
                 nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                 cap: int = NODE_CAP) -> MomentResult:
    """E[exp_q(H^{(A,B)}_{pi.c})] for the SC6V model on a skew domain."""
    res = qmoment_skew_multi(domain, params, query.points, query.colors, [query.pi],
                             nodes_per_circle, tol, cap)
    return res[query.pi.images]


# ---------------------------------------------------------------------------
# Theorem: higher-spin quadrant q-moments (vertical fusion)
# ---------------------------------------------------------------------------


def _level_factor(params: ModelParams, c: int) -> tuple:
    """Phi factor of color c, prod over the rows i <= l_c of (1 - u_i w)/(1 - q u_i w),
    as its (zeros, poles)."""
    us = params.row_rapidities[: params.level(c)]
    return us, [params.q * u for u in us]


def _hs_factors(params: ModelParams, pts, colors):
    """Phi and Psi (zeros, poles) lists and the contour family of the higher-spin
    formula for the doubled points ``pts``.

    Phi of color c is ``_level_factor``.  Psi of (alpha, beta) has the zeros and
    poles of (1 - q u_i w)/(1 - u_i w) for each row i < beta and of
    (1 - s_j y_j w)/(1 - y_j w / s_j) = s_j (w s_j - 1/y_j)/(w - s_j/y_j) for each
    column j < alpha.  The contours (``build_contours``) encircle 1/u_i and exclude
    1/(q u_i) for the rows up to the highest beta or level, and s_j/y_j for the
    columns up to the rightmost alpha; those rows must pass ``check_pole_separation``.
    """
    q, us, ys, ss = params.q, params.row_rapidities, params.col_rapidities, params.col_spins
    n_cols = max((a2 - 1) // 2 for a2, _ in pts)
    n_rows = max([(b2 - 1) // 2 for _, b2 in pts] + [params.level(c) for c in colors])
    params.require("query", row_rapidities=n_rows, col_rapidities=n_cols, col_spins=n_cols)
    check_pole_separation(us[:n_rows], q)
    cols = list(zip(ys, ss))[:n_cols]  # (y_j, s_j)

    psi = []
    for a2, b2 in pts:
        below, left = us[: (b2 - 1) // 2], cols[: (a2 - 1) // 2]
        psi.append(([q * u for u in below] + [s * y for y, s in left],
                    list(below) + [y / s for y, s in left]))
    fam = build_contours([1 / u for u in us[:n_rows]],
                         [1 / (q * u) for u in us[:n_rows]] + [s / y for y, s in cols], len(pts), q)
    return [_level_factor(params, c) for c in colors], psi, fam


def qmoment_higher_spin_multi(params: ModelParams, points, colors, pis,
                              nodes_per_circle: int | None = None,
                              tol: float = DEFAULT_TOL, cap: int = NODE_CAP) -> dict:
    pts, colors = _read_query(points, colors, pis)
    return _q_formula(*_hs_factors(params, pts, colors), params.q, pis, nodes_per_circle, tol, cap)


def qmoment_higher_spin(params: ModelParams, query: MomentQuery,
                        nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                        cap: int = NODE_CAP) -> MomentResult:
    """E[q^{sum_i h_{>c_i}(alpha_pi(i), beta_pi(i))}] on the higher-spin quadrant."""
    res = qmoment_higher_spin_multi(params, query.points, query.colors, [query.pi],
                                    nodes_per_circle, tol, cap)
    return res[query.pi.images]


def qmoment_higher_spin_kappa(params: ModelParams, query: MomentQuery,
                              nodes_per_circle: int | None = None,
                              tol: float = DEFAULT_TOL, cap: int = NODE_CAP) -> MomentResult:
    """Alternative kappa-expansion route: sum over rho of kappa-weighted integrals.

    Evaluates pref * (T_pi Phi) * Psi pointwise on the mesh through ``apply_T_pi``
    instead of the factored engine; a cross-check of the same formula (k <= 3).
    """
    pts, colors = _read_query(query.points, query.colors, [query.pi])
    q, pi, k = params.q, query.pi, query.k
    phi, psi, fam = _hs_factors(params, pts, colors)
    phi_fn, psi_fn = (PointFunction.from_per_variable([ratio_product(*f) for f in factors])
                      for factors in (phi, psi))
    f = PointFunction.constant(k, _moment_prefactor(q, pi)) * apply_T_pi(pi, phi_fn, q=q) * psi_fn
    return iterated_integral(f, fam, nodes_per_circle, q, tol, cap)


# ---------------------------------------------------------------------------
# Shifted q-moment observables (Borodin-Wheeler style)
# ---------------------------------------------------------------------------


def _coset(pi: Permutation, mults):
    """[pi]_c = pi * S_c for color blocks of sizes mults, sorted by images: pi * sigma
    permutes pi's images within each block."""
    ends = list(accumulate(mults, initial=0))
    blocks = [permutations(pi.images[a:b]) for a, b in zip(ends, ends[1:])]
    return [Permutation(sum(parts, ())) for parts in sorted(product(*blocks))]


def shifted_observable(params: ModelParams, points, base_colors, pi: Permutation,
                       exact: bool = True, batch=None,
                       nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                       cap: int = NODE_CAP):
    """E[O^p_{pi.c}] for the shifted q-moment observable.

    ``base_colors`` is the monotone c = [1]^{m_1} ... [n]^{m_n} (entries >= 1).
    exact=True evaluates the coset/T-sum integral formula; exact=False computes
    the empirical mean from a higher-spin SampleBatch.  A color with m_c = 0 adds a
    factor of exactly 1, so the exact formula reads only the (c, m_c) present.
    """
    pts, colors = _read_query(points, base_colors, [pi])
    if colors and colors[0] < 1:
        raise ValidationError("base colors must be nondecreasing and >= 1", field="colors")
    if exact:
        blocks = [(c, colors.count(c)) for c in sorted(set(colors))]
        return _shifted_exact(params, pts, pi, blocks, nodes_per_circle, tol, cap)
    if batch is None:
        raise ValidationError("empirical evaluation needs a SampleBatch")
    return _shifted_empirical(batch, points, colors, pi)


def _shifted_exact(params, pts, pi, blocks, nodes_per_circle, tol, cap):
    q = params.q
    k = len(pts)
    n = blocks[-1][0] if blocks else 0
    _, psi, fam = _hs_factors(params, pts, [n] * k)

    # expand prod_c (sum_{j_c=0}^{m_c} coef * slot assignment) into phi terms
    phi_terms = [(1.0, [])]
    for c, m_c in blocks:
        lower = ratio_product(*_level_factor(params, c - 1))
        upper = ratio_product(*_level_factor(params, c))
        phi_terms = [(coef * qidentity_coef(q, m_c, j), factors + [lower] * j + [upper] * (m_c - j))
                     for coef, factors in phi_terms for j in range(m_c + 1)]
    pref = (1 - q) ** k
    integrand = PairingIntegrand(phi_terms, [ratio_product(*f) for f in psi],
                                 [(pref, tau) for tau in _coset(pi, [m for _, m in blocks])])

    def evaluate(grid, keys=None):  # one value: the sum over the coset, priced as a sum
        return {None: sum(_pairing_on_grid(grid, integrand).values())}

    return _adaptive(fam, integrand.variant, q, evaluate, nodes_per_circle, tol, cap)[None]


def _shifted_empirical(batch, points, colors, pi):
    """Mean of O^p_{pi.c} over a higher-spin SampleBatch, with standard error."""
    q = batch.params.q
    k = len(points)
    perm_colors = pi.act(colors)  # pi.c
    r_gt = [sum(1 for j in range(i + 1, k) if perm_colors[j] > perm_colors[i]) for i in range(k)]
    r_ge = [sum(1 for j in range(i + 1, k) if perm_colors[j] >= perm_colors[i]) for i in range(k)]
    prod = np.ones(batch.count) if k == 0 else None  # the product is formed in place
    for i in range(k):
        c = perm_colors[i]
        factor = _q_power(q, batch.heights(points[i], c), r_gt[i])
        factor -= _q_power(q, batch.heights(points[i], c - 1), r_ge[i])
        prod = factor if prod is None else np.multiply(prod, factor, out=prod)
    return prod.mean(), prod.std(ddof=1) / np.sqrt(batch.count)


def _q_power(q, h, r):
    """q ** (h - r) per sample, read from a table of the same float powers over the
    heights present."""
    lo = int(h.min())
    return (q ** (np.arange(lo, int(h.max()) + 1, dtype=float) - r)).take(h - lo)


# ---------------------------------------------------------------------------
# q-Hahn q-moments (full fusion)
# ---------------------------------------------------------------------------


def qmoment_qhahn(q: float, s: float, z: float, boundary_levels, query: MomentQuery,
                  nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                  cap: int = NODE_CAP) -> MomentResult:
    """E[q^{sum h}] for the q-Hahn quadrant model via the fully fused formula.

    The formula divides by z^2 and by s: ParameterSingularityError names ``params/z``
    where z * z is 0 (z = 0, or z^2 underflows) and ``params/s`` where s is 0.  Outside
    the model's regime 0 < s^2 < z^2 < 1 the integral is no expectation, and
    ``lattice.check_qhahn_regime``, the check its sampler runs, raises at ``params``.
    """
    pts, colors = _read_query(query.points, query.colors, [query.pi])
    if z * z == 0:
        raise ParameterSingularityError(f"z = {z}: z^2 is 0", field="params/z")
    if s == 0:
        raise ParameterSingularityError("s = 0", field="params/s")
    check_qhahn_regime(s, z)
    return _qhahn_fused(q, s, z, boundary_levels, pts, colors, query.pi, nodes_per_circle, tol, cap)


def _qhahn_fused(q, s, z, boundary_levels, pts, colors, pi, nodes_per_circle, tol, cap):
    """The fused 8.5 integral at doubled points ``pts`` for any s != 0 and z^2 != 0.  Inside
    the regime it is the moment; at z^2 = q^{-L} it is the integral of L fused rows."""
    params = ModelParams(q=q, boundary_levels=tuple(boundary_levels))
    levels = [params.level(c) for c in colors]
    if not pts[-1][1] > 2 * levels[-1]:
        raise UnsupportedRegimeError("the implemented formula requires beta_k > l_{c_k}",
                                     field="points")
    zi2 = 1 / (z * z)
    phi = [([s] * lc, [zi2 * s] * lc) for lc in levels]
    # Psi: (1 - s w/z^2)/(1 - s w) per row below beta, (1 - s w)/(1 - w/s) per column
    # left of alpha, and the measure factor s/(s - w) = 1/(1 - w/s)
    psi = [([zi2 * s] * ((b2 - 1) // 2) + [s] * ((a2 - 1) // 2),
            [s] * ((b2 - 1) // 2) + [1 / s] * ((a2 + 1) // 2)) for a2, b2 in pts]
    return _q_formula(phi, psi, build_contours_qhahn(s, z, q, len(pts)), q, [pi],
                      nodes_per_circle, tol, cap)[pi.images]


# ---------------------------------------------------------------------------
# Beta polymer moments
# ---------------------------------------------------------------------------


def beta_moment(sigma: float, rho: float, points, delays, pi: Permutation | None = None,
                nodes_per_circle: int | None = None, tol: float = DEFAULT_TOL,
                cap: int = NODE_CAP) -> MomentResult:
    """E[prod_i Z_(c_i)^(m_pi(i), t_pi(i))] for the delayed Beta polymer.

    ``points`` are integer (m, t) pairs mapped to dual points
    (alpha, beta) = (m - 1/2, t - 1/2); ``delays`` are the c_i.  The contours are
    ``build_contours_beta``'s, passed to ``pairing_values`` as they are.
    """
    check_beta_regime(sigma, rho)
    k = len(points)
    pi = pi or Permutation.identity(k)
    try:
        pts, delays = _read_query([(m - 0.5, t - 0.5) for m, t in points], delays, [pi])
    except ValidationError as exc:
        if exc.field != "points":
            raise
        raise ValidationError(f"points must be integer (m, t) pairs with m >= 1 nondecreasing "
                              f"and t nonincreasing, got {points}", field="points") from None
    ms = [(a2 + 1) // 2 for a2, _ in pts]
    ts = [(b2 + 1) // 2 for _, b2 in pts]
    if delays and delays[0] < 0:
        raise ValidationError("delays must be nonnegative", field="colors")
    if delays and delays[-1] >= ts[-1]:
        raise ValidationError("need c_k < beta_k", field="colors")
    for i in range(k):
        if ms[pi(i + 1) - 1] + delays[i] > ts[pi(i + 1) - 1]:
            raise ValidationError("need alpha_pi(i) + c_i <= beta_pi(i)", field="colors")

    half = sigma / 2

    def phi_for(c):
        def f(w):
            w = np.asarray(w, dtype=complex)
            return ((w - half) / (w - half + rho)) ** c

        return f

    def psi_for(m, t):
        def f(w):
            w = np.asarray(w, dtype=complex)
            out = ((w - half + rho) / (w - half)) ** (t - 1)
            out = out * ((w - half) / (w + half)) ** (m - 1)
            return out * w / (w + half)  # fold measure 1/(w + sigma/2) over 1/w

        return f

    fam = build_contours_beta(sigma, rho, k)
    integrand = PairingIntegrand(
        [(1.0, [phi_for(c) for c in delays])],
        [psi_for(m, t) for m, t in zip(ms, ts)],
        [(1.0, pi)], "polymer",
    )
    return pairing_values(fam, integrand, None, _start(fam, nodes_per_circle), tol,
                          cap)[pi.images]
