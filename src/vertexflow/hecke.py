"""Permutations, Demazure-Lusztig operators, kappa coefficients, Z partition functions.

Two operator variants share all machinery here:

* ``"q"``:        T_i = q + (w_{i+1} - q w_i)/(w_{i+1} - w_i) (t_i - 1)
* ``"polymer"``:  T_i = 1 + (w_{i+1} - w_i + 1)/(w_{i+1} - w_i) (t_i - 1)

Each variant is stated once, as the two functions den and a_num of ``_variant``:
a_i = a_num(w_i, w_{i+1})/(w_{i+1} - w_i) and b_i = den(w_i, w_{i+1})/(w_{i+1} - w_i).

Writing T_i = a_i(w) + b_i(w) t_i, the expansion T_pi = sum_rho kappa_pi^rho t_rho
obeys the push rule: a source kappa^rho contributes to target rho with factor
a_i evaluated at (w_{rho(i)}, w_{rho(i+1)}) and to target rho*sigma_i with the
b_i factor at the same pair.  Everything evaluates pointwise; no symbolic algebra.
``_push`` walks that rule once, for the scalar ``kappa_table`` and for the DL terms
that ``qmoments`` contracts as lists of pair tables.

The lattice partition functions Z_pi^rho and the row operators C_k are sums of
R-weight products over the SC6V transitions: Z_pi^rho, one boundary state, is one
``weights.lattice_sum``; C_k, a matrix over every column state, is one
``weights.tensor_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations as _all_perms

import numpy as np

from .errors import SingularEvaluationError, ValidationError
from .weights import _sc6v_transitions, inv, lattice_sum, tensor_sweep, vertex_tensor

COINCIDENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Permutation:
    """Element of S_k in one-line notation: images = (pi(1), ..., pi(k))."""

    images: tuple

    def __post_init__(self):
        imgs = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValidationError(f"{imgs} is not a permutation of 1..{len(imgs)}")

    # -- basics -------------------------------------------------------------

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition of maps: (pi * tau)(i) = pi(tau(i))
        return Permutation(tuple(self.images[other.images[i - 1] - 1] for i in range(1, len(self) + 1)))

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = i
        return Permutation(tuple(out))

    def length(self) -> int:
        return inv(self.images)

    def act(self, values):
        """pi.(v_1..v_k) = (v_{pi^{-1}(1)}, ..., v_{pi^{-1}(k)})."""
        pre = self.inverse().images
        return tuple(values[pre[i - 1] - 1] for i in range(1, len(self) + 1))

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(1, k + 1)))

    @staticmethod
    def transposition(k: int, i: int) -> "Permutation":
        """sigma_i in S_k (swaps i and i+1)."""
        imgs = list(range(1, k + 1))
        imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        return Permutation(tuple(imgs))

    @staticmethod
    def all(k: int):
        return [Permutation(p) for p in _all_perms(range(1, k + 1))]

    # -- words and order ------------------------------------------------------

    def reduced_word(self) -> tuple:
        """Canonical reduced word from bubble-sorting the one-line form.

        Right-multiplying by sigma_i swaps positions i, i+1; repeatedly fixing
        the first descent sorts pi to the identity in l(pi) swaps, and the
        reversed swap list is a reduced word for pi.
        """
        p = list(self.images)
        swaps = []
        while True:
            for i in range(len(p) - 1):
                if p[i] > p[i + 1]:
                    p[i], p[i + 1] = p[i + 1], p[i]
                    swaps.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(swaps))

    def all_reduced_words(self) -> list[tuple]:
        """Every reduced word; exponential, keep k small."""
        if self.length() == 0:
            return [()]
        out = []
        k = len(self)
        for i in range(1, k):
            if self.images[i - 1] > self.images[i]:  # descent: l(pi sigma_i) < l(pi)
                shorter = self * Permutation.transposition(k, i)
                out.extend(w + (i,) for w in shorter.all_reduced_words())
        return out

    def bruhat_leq(self, other: "Permutation") -> bool:
        """self <= other in strong Bruhat order (dominance criterion)."""
        k = len(self)
        if len(other) != k:
            raise ValidationError("permutations must have equal rank")
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                a = sum(1 for t in range(i) if self.images[t] >= j)
                b = sum(1 for t in range(i) if other.images[t] >= j)
                if a > b:
                    return False
        return True


# ---------------------------------------------------------------------------
# variant coefficient pairs  T_i = a_i + b_i t_i
# ---------------------------------------------------------------------------


def _variant(variant: str, q):
    """(den, a_num) of an operator variant: a_i = a_num(w_i, w_{i+1}) / (w_{i+1} - w_i),
    b_i = den(w_i, w_{i+1}) / (w_{i+1} - w_i), and the cross factor of a pair a < b is
    (w_b - w_a) / den(w_a, w_b)."""
    if variant == "q":
        return (lambda x, y: y - q * x), (lambda x, y: (q - 1) * y)
    if variant == "polymer":
        return (lambda x, y: y - x + 1), (lambda x, y: -1)
    raise ValidationError(f"unknown operator variant {variant!r}")


def _coeffs(variant: str, q):
    """(a, b): the functions a_i(w_i, w_{i+1}) and b_i(w_i, w_{i+1}) of ``_variant``."""
    den, a_num = _variant(variant, q)
    return (lambda wi, wi1: a_num(wi, wi1) / (wi1 - wi)), (lambda wi, wi1: den(wi, wi1) / (wi1 - wi))


def _check_coincidence(wi, wi1):
    d = np.abs(np.asarray(wi1) - np.asarray(wi))
    scale = np.maximum(np.abs(np.asarray(wi)), np.abs(np.asarray(wi1)))
    if np.any(d < COINCIDENCE_RTOL * np.maximum(scale, 1e-300)):
        raise SingularEvaluationError("evaluation at coincident variables w_i = w_{i+1}")


# ---------------------------------------------------------------------------
# PointFunction and the operator action
# ---------------------------------------------------------------------------


@dataclass
class PointFunction:
    """A function of k complex variables evaluated pointwise.

    ``evaluator`` maps a sequence of k numpy-broadcastable arguments to values.
    """

    k: int
    evaluator: object

    def __call__(self, w):
        if len(w) != self.k:
            raise ValidationError(f"expected {self.k} arguments")
        return self.evaluator(list(w))

    @staticmethod
    def from_per_variable(factors) -> "PointFunction":
        """Product f(w) = prod_a factors[a](w_a)."""
        factors = list(factors)

        def ev(w):
            out = factors[0](w[0])
            for g, wa in zip(factors[1:], w[1:]):
                out = out * g(wa)
            return out

        return PointFunction(len(factors), ev)

    @staticmethod
    def constant(k: int, value) -> "PointFunction":
        return PointFunction(k, lambda w: value + 0 * np.asarray(w[0]))

    def __mul__(self, other: "PointFunction") -> "PointFunction":
        if self.k != other.k:
            raise ValidationError("rank mismatch in PointFunction product")
        return PointFunction(self.k, lambda w: self.evaluator(list(w)) * other.evaluator(list(w)))


def apply_T_pi(pi: Permutation, f: PointFunction, variant: str = "q", q=None) -> PointFunction:
    """T_pi along the canonical reduced word (word-independent by the braid relations).

    Implemented through the kappa expansion: T_pi f = sum_rho kappa_pi^rho (t_rho f),
    which memoizes the 2^{l(pi)} branch tree by visited variable-permutation.  A single
    T_i is ``pi = Permutation.transposition(k, i)``: a_i(w) f(w) + b_i(w) f(t_i w).
    """
    if len(pi) != f.k:
        raise ValidationError("permutation rank must match the function rank")

    def ev(w):
        table = kappa_table(pi, w, variant=variant, q=q)
        out = None
        for rho, coef in table.items():
            permuted = [w[r - 1] for r in rho]  # (t_rho f)(w) = f(w_{rho(1)}, ...)
            term = coef * f.evaluator(permuted)
            out = term if out is None else out + term
        return out

    return PointFunction(f.k, ev)


def kappa_table(pi: Permutation, w, variant: str = "q", q=None) -> dict:
    """All coefficients kappa_pi^rho(w) as a dict rho-images -> value.

    Runs the recursion along the canonical reduced word of pi; cost
    O(l(pi) * #support).  Only rho with nonzero contributions appear.
    """
    a_fn, b_fn = _coeffs(variant, q)
    k = len(pi)
    if len(w) != k:
        raise ValidationError(f"w has {len(w)} entries, pi has rank {k}", field="w")

    def a_step(val, u, v):
        _check_coincidence(w[u - 1], w[v - 1])
        return val * a_fn(w[u - 1], w[v - 1])

    return _push(pi, 1, a_step, lambda val, u, v: val * b_fn(w[u - 1], w[v - 1]))


def _push(pi: Permutation, start, a_step, b_step) -> dict:
    """The push rule along the canonical reduced word of pi, as {rho images: value}.

    The table starts as {identity: start}.  Letter i sends the value x at rho to
    ``a_step(x, u, v)`` at rho and ``b_step(x, u, v)`` at rho * sigma_i, where
    (u, v) = (rho(i), rho(i+1)) are the 1-based variables of the pair; values that
    meet at one rho are added with ``+`` in the order they arrive.
    """
    table = {tuple(range(1, len(pi) + 1)): start}
    for i in pi.reduced_word():
        new = {}
        for rho, val in table.items():
            u, v = rho[i - 1], rho[i]
            _accum(new, rho, a_step(val, u, v))
            _accum(new, rho[: i - 1] + (v, u) + rho[i + 1:], b_step(val, u, v))
        table = new
    return table


def _accum(d, key, val):
    if key in d:
        d[key] = d[key] + val
    else:
        d[key] = val


def kappa(pi: Permutation, rho: Permutation, w, variant: str = "q", q=None):
    """kappa_pi^rho(w); exactly 0 when rho is not Bruhat-below pi."""
    if len(rho) != len(pi):
        raise ValidationError(f"rho has rank {len(rho)}, pi has rank {len(pi)}", field="rho")
    table = kappa_table(pi, w, variant=variant, q=q)
    return table.get(rho.images, 0.0)


# ---------------------------------------------------------------------------
# Lattice partition functions Z_pi^rho and row operators
# ---------------------------------------------------------------------------


def z_partition(pi: Permutation, rho: Permutation, w, q):
    """Z_pi^rho(w) on the k x k grid, as one lattice sum swept row by row.

    Row a (bottom to top) has rapidity w_{rho(a)} and incoming color pi(a);
    column b has rapidity w_b and empty bottom edge; row outputs must be 0
    and column b must emit color b at the top.  Keep k <= 5.
    """
    k = len(pi)
    if len(rho) != k or len(w) != k:
        raise ValidationError("rank mismatch in z_partition")
    # slot x-1 holds column x's label, slot k+y-1 row y's
    steps = [(partial(_sc6v_transitions, w[rho(y) - 1] / w[x - 1], q), (x - 1, k + y - 1), (x - 1, k + y - 1))
             for y in range(1, k + 1) for x in range(1, k + 1)]
    return lattice_sum(steps, (0,) * k + pi.images).get(tuple(range(1, k + 1)) + (0,) * k, 0)


def row_operator(k_color: int, x, ys, q, n_colors: int) -> np.ndarray:
    """Matrix of C_k(x | y_1..y_M) on the (n+1)^M column-configuration basis.

    Basis tuples are ordered lexicographically; entry [j_tuple, i_tuple] is the
    single-row partition function with left color k_color and right output 0.
    One ``tensor_sweep`` runs the row from every column state at once: axes 0..M-1
    hold the column labels, axis M the row label, axes M+1..2M the starting columns.
    """
    m, labels = len(ys), n_colors + 1
    size = labels**m
    start = np.zeros((size, labels, size), dtype=complex)
    start[:, k_color, :] = np.eye(size)
    steps = [(vertex_tensor(partial(_sc6v_transitions, x / y, q), labels), (col, m))
             for col, y in enumerate(ys)]
    end = tensor_sweep(steps, start.reshape((labels,) * (2 * m + 1)))
    return end.reshape(size, labels, size)[:, 0]
