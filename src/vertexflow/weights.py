"""Vertex-weight families and the q-special-function layer they share.

All weight functions are written with plain arithmetic operators, so they
accept floats, complex numbers or ``fractions.Fraction`` instances alike.
The Fraction path is the exact-rational mode used by the identity tests.
Unlisted or conservation-violating edge configurations get weight 0 rather
than raising.

Each vertex model lists its outgoing states with their weights in one
``transitions(state)`` (``_sc6v_transitions``, ``_hs_transitions``), and every
sum of weight products over a small lattice reads it in one of two ways:

* ``lattice_sum`` walks the transitions over a sparse front of edge labels from
  one boundary state.  It keeps exact ``Fraction`` weights exact, so it serves
  the one-boundary sums (the partition functions ``hecke.z_partition``, the
  fusion blocks here) and the exhaustive enumerators (``sampler``).
* ``tensor_sweep`` applies ``vertex_tensor``s, the transitions tabulated as dense
  complex arrays over a fixed label alphabet, to a dense state with one axis per
  edge.  It sums every boundary state at once, so it serves the checks that
  need them all: the row operators (``hecke.row_operator``) and the
  Yang-Baxter check (``verify``).  Its state has labels^slots entries per start,
  which fits those checks and not an enumeration.

Every q-Pochhammer product here and in ``sampler`` reads the one recurrence of
``_poch_terms``, written once since its multiplication order fixes the bits of every
weight built on it, and so of the sampler digests.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from itertools import permutations as _it_permutations
from itertools import product as _it_product

import numpy as np

from .errors import ParameterSingularityError

# ---------------------------------------------------------------------------
# q-special functions
# ---------------------------------------------------------------------------


def _poch_terms(x, q):
    """((x; q)_n, q^n) for n = 0, 1, 2, ...: (x; q)_{n+1} = (x; q)_n (1 - q^n x), from
    the 1 of q's type, so Fractions stay exact."""
    out = p = _one_like(q)
    while True:
        yield out, p
        out = out * (1 - p * x)
        p = p * q


def q_pochhammer(x, q, n: int):
    """(x; q)_n = prod_{i=0}^{n-1} (1 - q^i x).  Requires n >= 0."""
    if n < 0:
        raise ValueError("q-Pochhammer order must be >= 0")
    return next(islice(_poch_terms(x, q), n, None))[0]


def q_binom(n: int, m: int, q):
    """Gaussian binomial [n choose m]_q; 0 when m < 0 or m > n."""
    if m < 0 or m > n:
        return 0 * _one_like(q)
    num = q_pochhammer(q, q, n)
    den = q_pochhammer(q, q, m) * q_pochhammer(q, q, n - m)
    return num / den


def qidentity_coef(q, m: int, j: int):
    """c_j = (-1)^j q^{binom(m-j, 2)} / ((q;q)_j (q;q)_{m-j}), the coefficient of the
    q-identity that expands a shifted observable into m + 1 slot assignments."""
    den = q_pochhammer(q, q, j) * q_pochhammer(q, q, m - j)
    return (-1) ** j * q ** ((m - j) * (m - j - 1) // 2) / den


def _poch_prefix(x, q, n: int) -> list:
    """[(x; q)_k for k = 0..n], each entry computed exactly as q_pochhammer(x, q, k)."""
    return [out for out, _ in islice(_poch_terms(x, q), n + 1)]


def inv(word) -> int:
    """Number of inversions: pairs a < b with word[a] > word[b]."""
    w = list(word)
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def tinv(word) -> int:
    """Number of co-inversions: pairs a < b with word[a] < word[b]."""
    w = list(word)
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] < w[b])


def z_q(n_slots: int, comp, q):
    """Inversion generating function of words with color multiset ``comp``.

    z_q(N, I) = (q;q)_N / ((q;q)_{I_0} (q;q)_{I_1} ... (q;q)_{I_n}) where
    I_0 = N - |I| counts the zeros filling the word.
    """
    total = sum(comp)
    if total > n_slots:
        raise ValueError("composition exceeds the number of slots")
    den = q_pochhammer(q, q, n_slots - total)
    for c in comp:
        den = den * q_pochhammer(q, q, c)
    return q_pochhammer(q, q, n_slots) / den


def phi_factor(a_comp, b_comp, x, y, q):
    """The two-composition factor entering the fused weight.

    Phi(A, B; x, y) = (x;q)_{|A|} (y/x;q)_{|B|-|A|} / (y;q)_{|B|}
                      * (y/x)^{|A|} q^{sum_{i<j}(B_i - A_i) A_j}
                      * prod_i binom(B_i, A_i)_q
    Vanishes whenever A_i > B_i for some i.
    """
    a = list(a_comp)
    b = list(b_comp)
    if len(a) != len(b):
        raise ValueError("compositions must have equal length")
    if any(ai > bi for ai, bi in zip(a, b)):
        return 0 * _one_like(q)
    ta, tb = sum(a), sum(b)
    den = q_pochhammer(y, q, tb)
    if den == 0:
        raise ParameterSingularityError("(y;q)_{|B|} vanishes in Phi")
    ratio = y / x
    expo = sum((b[i] - a[i]) * a[j] for i in range(len(a)) for j in range(i + 1, len(a)))
    val = q_pochhammer(x, q, ta) * q_pochhammer(ratio, q, tb - ta) / den
    val = val * ratio**ta * q**expo
    for ai, bi in zip(a, b):
        val = val * q_binom(bi, ai, q)
    return val


def _one_like(q):
    # Fraction(1) if q is a Fraction, else plain 1; keeps exact mode exact.
    return q**0


# ---------------------------------------------------------------------------
# Stochastic colored six-vertex weights R_z
# ---------------------------------------------------------------------------


def r_weight(i: int, j: int, k: int, l: int, z, q):
    """Weight R_z(i, j; k, l): i bottom-in, j left-in, k top-out, l right-out.

    Colors live in {0, ..., n} with 0 meaning no path.  Conservation-violating
    or unlisted configurations return 0.  Raises at the pole z = q.
    """
    if z == q:
        raise ParameterSingularityError("r_weight has a pole at z = q")
    zero = 0 * _one_like(q)
    if sorted((i, j)) != sorted((k, l)):
        return zero
    if i == j:
        # single diagonal entry (i,i;i,i) = 1
        return _one_like(q)
    if (k, l) == (i, j):  # pass through
        if i > j:
            return q * (z - 1) / (z - q)
        return (z - 1) / (z - q)
    if (k, l) == (j, i):  # the two paths swap lanes
        if i > j:
            return z * (1 - q) / (z - q)
        return (1 - q) / (z - q)
    return zero


# ---------------------------------------------------------------------------
# Higher-spin weights L_z^(s)
# ---------------------------------------------------------------------------


def l_weight(comp_i, j: int, comp_k, l: int, z, s, q):
    """Higher-spin weight L_z^(s)(I, j; K, l).

    I, K are color compositions on the vertical edges, j/l single colors on
    the horizontal edges (0 = no path).  Returns 0 unless K = I + e^j - e^l
    with e^0 = 0 and all entries of K nonnegative.
    """
    if s * z == 1:
        raise ParameterSingularityError("l_weight has a pole at s z = 1")
    big_i = list(comp_i)
    big_k = list(comp_k)
    n = len(big_i)
    zero = 0 * _one_like(q)
    if len(big_k) != n:
        return zero
    expect = list(big_i)
    if j > 0:
        expect[j - 1] += 1
    if l > 0:
        expect[l - 1] -= 1
    if expect != big_k or min(big_k, default=0) < 0:
        return zero
    den = 1 - s * z

    def tail(a: int) -> int:
        # I_[a; n] with 1-based a
        return sum(big_i[a - 1 : n])

    if j == 0 and l == 0:
        return (1 - s * z * q ** tail(1)) / den
    if j == l:
        return (s * s * q ** big_i[j - 1] - s * z) * q ** tail(j + 1) / den
    if j == 0:  # l >= 1, vertical path exits right
        return s * z * (q ** big_i[l - 1] - 1) * q ** tail(l + 1) / den
    if l == 0:  # left path turns up
        return (1 - s * s * q ** tail(1)) / den
    if l > j:  # smaller color enters left, larger exits right
        return s * z * (q ** big_i[l - 1] - 1) * q ** tail(l + 1) / den
    # l < j: larger color enters left, smaller exits right
    return s * s * (q ** big_i[l - 1] - 1) * q ** tail(l + 1) / den


# ---------------------------------------------------------------------------
# Model transitions and the one lattice sum over them
# ---------------------------------------------------------------------------


def _sc6v_transitions(z, q, state):
    """(i, j) bottom/left in -> (k, l) top/right out: swap, then pass."""
    i, j = state
    outs = [(i, j)] if i == j else [(j, i), (i, j)]
    return outs, [r_weight(i, j, k, l, z, q) for k, l in outs]


def _hs_transitions(z, s, q, state):
    """(*I, j) -> (*K, l), K = I + e^j - e^l >= 0: l is 0, j or a color present in I."""
    *comp_i, j = state
    outs = []
    for l in sorted({0, j} | {t for t, c in enumerate(comp_i, start=1) if c}):
        comp_k = list(comp_i)
        if j:
            comp_k[j - 1] += 1
        if l:
            comp_k[l - 1] -= 1
        outs.append((*comp_k, l))
    return outs, [l_weight(comp_i, j, out[:-1], out[-1], z, s, q) for out in outs]


def lattice_sum(steps, state) -> dict:
    """{final state: summed weight} of a front of edge labels swept through ``steps``.

    ``state`` is a tuple of labels, one slot per edge (a fused label takes one slot
    per color).  Each step ``(transitions, in_slots, out_slots)`` reads the incoming
    (bottom..., left) labels of every front state at ``in_slots`` and writes each
    outgoing (top..., right) state of ``transitions`` to ``out_slots``, multiplied by
    its weight.  Zero weights are dropped and states that meet are summed.  Weights
    start at the int 1, so Fractions stay exact; states keep first-reached order.
    """
    front = {tuple(state): 1}
    for transitions, in_slots, out_slots in steps:
        new = {}
        for labels, acc in front.items():
            outs, ws = transitions(tuple(labels[t] for t in in_slots))
            for out, w in zip(outs, ws):
                if w == 0:
                    continue
                nxt = list(labels)
                for t, label in zip(out_slots, out):
                    nxt[t] = label
                nxt = tuple(nxt)
                new[nxt] = new[nxt] + acc * w if nxt in new else acc * w
        front = new
    return front


def vertex_tensor(transitions, labels: int) -> np.ndarray:
    """Complex T[k, l, i, j] = weight of (i, j) -> (k, l) under ``transitions``, for
    incoming and outgoing labels 0..labels-1 (i, k bottom/top, j, l left/right)."""
    t = np.zeros((labels,) * 4, dtype=complex)
    for i, j in _it_product(range(labels), repeat=2):
        for (k, l), w in zip(*transitions((i, j))):
            t[k, l, i, j] += w
    return t


def tensor_sweep(steps, state: np.ndarray) -> np.ndarray:
    """The dense counterpart of ``lattice_sum``: ``state`` has one axis per edge slot
    (and may carry more, untouched), indexed by label, and each step
    ``(tensor, (a, b))`` maps the labels at axes (a, b) through a ``vertex_tensor``.
    Slot a reads the bottom and writes the top label, slot b the left and right ones.
    """
    for tensor, (a, b) in steps:
        state = np.moveaxis(np.tensordot(tensor, state, axes=([2, 3], [a, b])), (0, 1), (a, b))
    return state


# ---------------------------------------------------------------------------
# Fully fused weights W_z^(N,M) and the q-Hahn degeneration
# ---------------------------------------------------------------------------


def fused_weight(comp_a, comp_b, comp_c, comp_d, z, q_n, q_m, q):
    """Fused weight W_z^(N,M)(A, B; C, D) with q^N, q^M as free parameters.

    A bottom, B left, C top, D right; all are color compositions.  The value
    is the explicit rational expression (sum over P <= min(B, C) of two Phi
    factors); q_n and q_m stand for q^N and q^M, which enter only rationally,
    so analytic continuation amounts to passing arbitrary values here.
    """
    a, b, c, d = (list(t) for t in (comp_a, comp_b, comp_c, comp_d))
    n = len(a)
    if not (len(b) == len(c) == len(d) == n):
        raise ValueError("compositions must share one length")
    zero = 0 * _one_like(q)
    if any(ai + bi != ci + di for ai, bi, ci, di in zip(a, b, c, d)):
        return zero  # per-color conservation; covers |A|+|B| != |C|+|D| too
    if any(v < 0 for t in (a, b, c, d) for v in t):
        return zero
    pref = z ** (sum(d) - sum(b)) * q_n ** sum(a) * q_m ** (-sum(d))
    total = zero
    for p in _it_product(*(range(min(bi, ci) + 1) for bi, ci in zip(b, c))):
        c_minus_p = [ci - pi for ci, pi in zip(c, p)]
        c_plus_d_minus_p = [ci + di - pi for ci, di, pi in zip(c, d, p)]
        t1 = phi_factor(c_minus_p, c_plus_d_minus_p, q_n / q_m * z, z / q_m, q)
        t2 = phi_factor(p, b, 1 / (q_n * z), 1 / q_n, q)
        total = total + t1 * t2
    return pref * total


def qhahn_weight(comp_a, comp_b, comp_c, comp_d, s, z, q):
    """q-Hahn weight W^qH_{s,z}(A, B; C, D).

    Paths entering from the left (B) are forced upward, so the weight depends
    on A and D only; the value is 0 unless D <= A componentwise and
    C = A + B - D.  Singular when (s^2; q)_{|A|} vanishes.
    """
    if not len(comp_a) == len(comp_b) == len(comp_c) == len(comp_d):
        return 0 * _one_like(q)
    for ai, bi, ci, di in zip(comp_a, comp_b, comp_c, comp_d):
        if not (0 <= di <= ai and bi >= 0 and ci == ai + bi - di):
            return 0 * _one_like(q)
    return qhahn_row(comp_a, s, z, q, [comp_d])[1][0]


def qhahn_row(comp_a, s, z, q, outs=None):
    """(D, W^qH_{s,z}(A, B; A + B - D, D)) for each row D of ``outs`` (default: every
    D <= A in lexicographic order); B drops out.  Weights are an array of the
    arithmetic type of (s, z, q), so exact Fractions stay exact.

    W = (s^2/z^2)^{|D|} (s^2/z^2; q)_{|A|-|D|} (z^2; q)_{|D|} / (s^2; q)_{|A|}
        * q^{sum_{i<j} D_i (A_j - D_j)} * prod_i binom(A_i, A_i - D_i)_q
    """
    ta = sum(comp_a)
    den = _poch_prefix(s * s, q, ta)[-1]
    if den == 0:
        raise ParameterSingularityError("(s^2; q)_{|A|} vanishes in qhahn_weight")
    ratio = s * s / (z * z)
    p_ratio, p_z = _poch_prefix(ratio, q, ta), _poch_prefix(z * z, q, ta)
    p_q = _poch_prefix(q, q, max(comp_a, default=0))
    if outs is None:
        outs = list(_it_product(*(range(ai + 1) for ai in comp_a)))
    d = np.array(outs, dtype=np.intp).reshape(len(outs), len(comp_a))
    # rest[:, i] = sum_{j >= i} (A_j - D_j)
    rest = np.cumsum((np.array(comp_a, dtype=np.intp) - d)[:, ::-1], axis=1)[:, ::-1]
    expo = (d[:, :-1] * rest[:, 1:]).sum(axis=1)
    val = np.array([ratio**k * p_ratio[ta - k] * p_z[k] / den for k in range(ta + 1)])[d.sum(axis=1)]
    val = val * np.array([q**e for e in range(int(expo.max()) + 1)])[expo]
    for i, ai in enumerate(comp_a):
        val = val * np.array([p_q[ai] / (p_q[ai - di] * p_q[di]) for di in range(ai + 1)])[d[:, i]]
    return d, val


# ---------------------------------------------------------------------------
# Reference-by-definition fused weight (stochastic fusion of an NxM block)
# ---------------------------------------------------------------------------


def fused_weight_by_fusion(comp_a, comp_b, comp_c, comp_d, z, n_rows: int, m_cols: int, q):
    """W_z^(N,M) computed from its defining lattice sum, for cross-checking.

    The block has rows with rapidities x, qx, ..., q^(N-1)x bottom to top and
    columns q^(M-1)y, ..., y left to right, z = x/y.  Representative words for
    C and D are fixed as the sorted ones; q-exchangeability makes the result
    independent of that choice.  Each block is one ``lattice_sum`` from the words
    of A and B, read at the words of C and D; the color count is implied by
    the compositions.  Exponential in N*M, so keep N, M <= 2.
    """
    a, b, c, d = (list(t) for t in (comp_a, comp_b, comp_c, comp_d))
    if sum(a) > m_cols or sum(c) > m_cols or sum(b) > n_rows or sum(d) > n_rows:
        return 0 * _one_like(q)
    if sum(a) + sum(b) != sum(c) + sum(d):
        return 0 * _one_like(q)
    k_word = _sorted_word(c, m_cols)
    l_word = _sorted_word(d, n_rows)
    pref = (
        z_q(m_cols, c, q)
        * z_q(n_rows, d, q)
        * q ** (-inv(k_word))
        * q ** (-tinv(l_word))
        / (z_q(m_cols, a, q) * z_q(n_rows, b, q))
    )
    # rapidity of row r (1-based, bottom to top): q^(r-1) x; column m: q^(M-m) y.  Slots
    # 0..M-1 hold the column labels, M..M+N-1 the row labels.
    steps = [(partial(_sc6v_transitions, q ** (row - 1) * z / q ** (m_cols - col), q),
              (col - 1, m_cols + row - 1), (col - 1, m_cols + row - 1))
             for row in range(1, n_rows + 1) for col in range(1, m_cols + 1)]
    total = 0 * _one_like(q)
    for i_word in _words_with_comp(a, m_cols):
        for j_word in _words_with_comp(b, n_rows):
            block = lattice_sum(steps, i_word + j_word).get(k_word + l_word, 0)
            total = total + q ** inv(i_word) * q ** tinv(j_word) * block
    return pref * total


def _sorted_word(comp, slots: int):
    word = []
    for color, mult in enumerate(comp, start=1):
        word.extend([color] * mult)
    word = [0] * (slots - len(word)) + word
    return tuple(sorted(word))


def _words_with_comp(comp, slots: int):
    base = _sorted_word(comp, slots)
    return sorted(set(_it_permutations(base)))


# ---------------------------------------------------------------------------
# Color merging on compositions
# ---------------------------------------------------------------------------


def merge_composition(comp, theta, m_colors: int):
    """Push a composition through a monotone color map theta: {1..n} -> {0..m}.

    theta is a sequence with theta[i-1] = image of color i; color 0 deletes.
    """
    out = [0] * m_colors
    for color_index, count in enumerate(comp, start=1):
        image = theta[color_index - 1]
        if image > 0:
            out[image - 1] += count
    return out
