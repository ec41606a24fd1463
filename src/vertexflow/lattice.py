"""Domain geometry, boundary data, configurations, and colored height functions.

Conventions (fixed throughout the package):

* Primal vertices are (x, y) with columns x = 1..M from the left and rows
  y = 1..N from the bottom.  Dual (face) points are half-integer pairs,
  stored internally as doubled integers (2*alpha, 2*beta) so they stay exact.
* ``h_edges[(x, y)]`` is the horizontal edge from (x, y) to (x+1, y);
  ``v_edges[(x, y)]`` the vertical edge from (x, y) to (x, y+1).  Labels are
  ints for at-most-one-path edges and tuples (color compositions) for fused
  edges.  Color 0 means "no path".
* Up-left paths run from (M+1/2, 1/2) to (1/2, N+1/2); step i of Q carries
  boundary color c_i and rapidity zeta_i (x_j for a vertical step crossing
  row j, y_j for a horizontal step crossing column j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    NonMonotoneColoringError,
    ParameterRangeError,
    PathMismatchError,
    PathOrderError,
    ValidationError,
)
from .weights import merge_composition

Point = tuple[int, int]  # doubled dual coordinates (2*alpha, 2*beta)


def dbl(alpha, beta) -> Point:
    """Convert a half-integer dual point to doubled-integer storage."""
    a2, b2 = round(2 * alpha), round(2 * beta)
    if abs(a2 - 2 * alpha) > 1e-9 or abs(b2 - 2 * beta) > 1e-9 or a2 % 2 == 0 or b2 % 2 == 0:
        raise ValidationError(f"({alpha}, {beta}) is not a half-integer dual point")
    return a2, b2


def whole(value, field: str) -> int:
    """``value`` as an int; a value that is not a whole number raises at ``field``."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"expected an integer, got {value!r}", field=field)


def undbl(p: Point) -> tuple[float, float]:
    return p[0] / 2, p[1] / 2


@dataclass(frozen=True)
class ModelParams:
    """Parameter record read by every weight formula.

    row_rapidities are the x_i (or u_i), col_rapidities the y_j, col_spins
    the s_j; boundary_levels is the nondecreasing sequence (l_1, l_2, ...)
    with the implicit l_0 = 0: color c enters at rows l_{c-1}+1 .. l_c.
    """

    q: float
    row_rapidities: tuple = ()
    col_rapidities: tuple = ()
    col_spins: tuple = ()
    boundary_levels: tuple = ()

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise ValidationError("q must lie in (0, 1)")
        for name in ("row_rapidities", "col_rapidities", "col_spins"):
            vals = getattr(self, name)
            object.__setattr__(self, name, tuple(vals))
            if any(v == 0 for v in getattr(self, name)):
                raise ValidationError(f"{name} must be nonzero", field=f"params/{name}")
        lv = tuple(int(v) for v in self.boundary_levels)
        object.__setattr__(self, "boundary_levels", lv)
        if any(v < 0 for v in lv) or any(a > b for a, b in zip(lv, lv[1:])):
            raise ValidationError("boundary_levels must be nonnegative and nondecreasing",
                                  field="params/boundary_levels")

    def require(self, what: str, **need: int) -> None:
        """Raise at ``params/<name>`` unless each named list has at least ``need[name]``
        entries; ``what`` names the region or query that needs them."""
        for name, n in need.items():
            given = len(getattr(self, name))
            if given < n:
                raise ValidationError(f"the {what} needs {n} {name}, {given} given",
                                      field=f"params/{name}")

    def level(self, c: int) -> int:
        """l_c with l_0 = 0; the last listed level extends to all larger c."""
        if c <= 0:
            return 0
        if c <= len(self.boundary_levels):
            return self.boundary_levels[c - 1]
        return self.boundary_levels[-1] if self.boundary_levels else 0

    def row_color(self, row: int) -> int:
        """Color entering the quadrant at the given row (0 if none)."""
        for c, lc in enumerate(self.boundary_levels, start=1):
            if row <= lc:
                return c
        return 0


def check_pole_separation(zetas, q) -> None:
    """Raise unless zeta_i != q zeta_j, to 1e-9 relative, for all pairs in the rapidity list;
    the ValidationError names ``params``, where the rapidities come from."""
    zs = list(zetas)
    for i, zi in enumerate(zs):
        for j, zj in enumerate(zs):
            if abs(zi - q * zj) <= 1e-9 * max(1.0, abs(zi)):
                raise ValidationError(
                    f"pole separation fails: zeta_{i+1} = q * zeta_{j+1} within 1e-9",
                    field="params")


def check_qhahn_regime(s, z) -> None:
    """Raise ParameterRangeError at ``params`` unless 0 < s^2 < z^2 < 1, the regime where
    the q-Hahn boundary law and vertex weights are probabilities; its sampler and its
    moment formula read only s^2 and z^2."""
    if not (0 < s * s < z * z < 1):
        raise ParameterRangeError("q-Hahn boundary needs 0 < s^2 < z^2 < 1", field="params")


@dataclass(frozen=True)
class UpLeftPath:
    """Lattice path on the dual grid moving left ('H') or up ('V')."""

    start: Point
    steps: str

    def __post_init__(self):
        if self.start[0] % 2 == 0 or self.start[1] % 2 == 0:
            raise ValidationError("path start must be a dual (half-integer) point")
        if any(s not in "HV" for s in self.steps):
            raise ValidationError("steps must be a string over 'H'/'V'")

    @staticmethod
    def from_floats(start, steps: str) -> "UpLeftPath":
        return UpLeftPath(dbl(*start), steps)

    def __len__(self) -> int:
        return len(self.steps)

    def points(self) -> list[Point]:
        """The start and the point after each step; every walk along the path reads these."""
        pts = [self.start]
        a, b = self.start
        for s in self.steps:
            if s == "H":
                a -= 2
            else:
                b += 2
            pts.append((a, b))
        return pts

    @property
    def end(self) -> Point:
        a, b = self.start
        return a - 2 * self.steps.count("H"), b + 2 * self.steps.count("V")

    def column_cross_height(self) -> dict[int, int]:
        """Column x -> doubled height of the horizontal step crossing it."""
        return {(a - 1) // 2: b for s, (a, b) in zip(self.steps, self.points()) if s == "H"}

    def index_of(self, point: Point) -> int:
        for i, p in enumerate(self.points()):
            if p == point:
                return i
        raise ValidationError(f"point {undbl(point)} does not lie on the path")


@dataclass(frozen=True)
class Cut:
    """A (Q,P)-cut: q_point on Q strictly below-left of p_point on P."""

    q_point: Point
    p_point: Point

    def __post_init__(self):
        if not (self.q_point[0] < self.p_point[0] and self.q_point[1] < self.p_point[1]):
            raise ValidationError("cut requires q_point strictly below-left of p_point")

    def rows(self) -> frozenset[int]:
        return frozenset(range(self.q_point[1] // 2 + 1, (self.p_point[1] + 1) // 2))

    def cols(self) -> frozenset[int]:
        return frozenset(range(self.q_point[0] // 2 + 1, (self.p_point[0] + 1) // 2))


@dataclass(frozen=True)
class SkewDomain:
    """Region between up-left paths Q <= P with a monotone boundary coloring."""

    q_path: UpLeftPath
    p_path: UpLeftPath
    coloring: tuple

    # derived, filled by __post_init__
    n_rows: int = field(init=False)
    m_cols: int = field(init=False)

    def __post_init__(self):
        q, p = self.q_path, self.p_path
        if q.start != p.start or q.end != p.end or len(q) != len(p):
            raise PathMismatchError("Q and P must share endpoints and length")
        qp, pp = q.points(), p.points()
        if any(a + b > a2 + b2 for (a, b), (a2, b2) in zip(qp, pp)):
            raise PathOrderError("Q must be weakly below-left of P")
        cols = tuple(int(c) for c in self.coloring)
        object.__setattr__(self, "coloring", cols)
        if len(cols) != len(q):
            raise ValidationError("coloring length must equal the path length")
        if any(a > b for a, b in zip(cols, cols[1:])):
            raise NonMonotoneColoringError("boundary coloring must be nondecreasing")
        if cols and cols[0] < 0:
            raise ValidationError("colors must be nonnegative")
        sa, sb = q.start
        ea, eb = q.end
        if sb != 1 or ea != 1:
            raise ValidationError("paths must run from (M+1/2, 1/2) to (1/2, N+1/2)")
        object.__setattr__(self, "m_cols", (sa - 1) // 2)
        object.__setattr__(self, "n_rows", (eb - 1) // 2)

    # -- geometry ----------------------------------------------------------

    def vertices(self) -> list[tuple[int, int]]:
        """Primal vertices strictly between the two paths, diagonal order."""
        hq = self.q_path.column_cross_height()
        hp = self.p_path.column_cross_height()
        verts = [
            (x, y)
            for x in range(1, self.m_cols + 1)
            for y in range(hq[x] // 2 + 1, hp[x] // 2 + 1)
        ]
        verts.sort(key=lambda v: (v[0] + v[1], v[0]))
        return verts

    def face_range(self, p: Point) -> tuple[int, int]:
        """Doubled beta range [lo, hi] of domain faces in the dual column of the doubled
        point ``p``; ValidationError if ``p`` lies outside the domain."""
        a2, b2 = p
        lo = hi = None
        for (pa, pb) in self.q_path.points():
            if pa == a2:
                lo = pb if lo is None else min(lo, pb)
        for (pa, pb) in self.p_path.points():
            if pa == a2:
                hi = pb if hi is None else max(hi, pb)
        if lo is None or hi is None or not lo <= b2 <= hi:
            raise ValidationError(f"point {undbl(p)} lies outside the domain")
        return lo, hi

    def incoming_edges(self):
        """Step index -> ('h'|'v', (x, y), color): the edge crossed by step i.

        'h' entries are horizontal primal edges (colors enter from the left),
        'v' entries vertical primal edges (colors enter from below).
        """
        q = self.q_path
        return [("v", ((a - 1) // 2, (b - 1) // 2), c) if s == "H"
                else ("h", ((a - 1) // 2, (b + 1) // 2), c)
                for s, (a, b), c in zip(q.steps, q.points(), self.coloring)]

    def step_rapidities(self, params: ModelParams):
        """Rapidity zeta_i attached to each step of Q."""
        params.require("domain", row_rapidities=self.n_rows, col_rapidities=self.m_cols)
        x, y = params.row_rapidities, params.col_rapidities
        return [y[(a - 1) // 2 - 1] if s == "H" else x[(b + 1) // 2 - 1]
                for s, (a, b) in zip(self.q_path.steps, self.q_path.points())]

    def threshold(self, c: int) -> Point:
        """The point q(c) of Q separating colors <= c from colors > c."""
        m = sum(1 for col in self.coloring if col <= c)
        return self.q_path.points()[m]

    def boundary_height(self, point: Point, c: int) -> int:
        """Height h_{>c} at a point of Q (the deterministic ramp)."""
        i = self.q_path.index_of(point)
        return sum(1 for col in self.coloring[:i] if col > c)


def rectangle_domain(n_rows: int, m_cols: int, coloring) -> SkewDomain:
    """The full N x M rectangle: Q hugs the bottom-left, P the top-right."""
    start = (2 * m_cols + 1, 1)
    q = UpLeftPath(start, "H" * m_cols + "V" * n_rows)
    p = UpLeftPath(start, "V" * n_rows + "H" * m_cols)
    return SkewDomain(q, p, tuple(coloring))


def quadrant_coloring(n_rows: int, m_cols: int, params: ModelParams) -> tuple:
    """Rectangle boundary coloring for the quadrant model: empty bottom,
    color c entering at rows l_{c-1}+1 .. l_c on the left.  Colors are nondecreasing
    along Q, so an empty row above a colored one, a rectangle taller than a positive
    l_n, raises at ``params/boundary_levels``."""
    last = params.level(len(params.boundary_levels))
    if 0 < last < n_rows:
        raise ValidationError(f"boundary_levels end at row {last}, below the top row {n_rows}: "
                              f"the rows above would enter empty", field="params/boundary_levels")
    return tuple([0] * m_cols + [params.row_color(r) for r in range(1, n_rows + 1)])


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def _as_comp(label, n_colors: int) -> tuple:
    if isinstance(label, tuple):
        return label
    out = [0] * n_colors
    if label > 0:
        out[label - 1] += 1
    return tuple(out)


@dataclass
class Configuration:
    """Assignment of labels to the edges of a skew domain, whose shape it has.

    Edge labels are ints (unfused) or tuples (compositions).  ``n_colors`` is the
    composition length used when fused labels appear.
    """

    h_edges: dict
    v_edges: dict
    domain: SkewDomain
    n_colors: int = 1

    def check_conservation(self) -> None:
        for (x, y) in self.domain.vertices():
            inc = _sum_comps(
                _as_comp(self.h_edges[(x - 1, y)], self.n_colors),
                _as_comp(self.v_edges[(x, y - 1)], self.n_colors),
            )
            out = _sum_comps(
                _as_comp(self.h_edges[(x, y)], self.n_colors),
                _as_comp(self.v_edges[(x, y)], self.n_colors),
            )
            if inc != out:
                raise ValidationError(f"conservation fails at vertex ({x}, {y})")


def _sum_comps(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _tail_count(label, c: int) -> int:
    """Number of paths of color > c on an edge label."""
    if isinstance(label, tuple):
        return sum(label[c:])
    return 1 if label > c else 0


def height(config: Configuration, point, c: int) -> int:
    """Colored height h_{>c} at a dual point (alpha, beta), half-integers.

    Heights are anchored on Q by the boundary ramp (``SkewDomain.boundary_height``).
    Counts paths of color > c crossing the vertical dual line of the point from
    below, per the local height relations.
    """
    return height_d(config, dbl(*point), c)


def height_d(config: Configuration, p: Point, c: int) -> int:
    """Same as ``height`` but taking a doubled-integer dual point."""
    return _read_height(config, height_anchor(config.domain, p, c), c)


def height_anchor(domain: SkewDomain, p: Point, c: int) -> tuple[int, int, range]:
    """(base, x, rows): h_{>c} at the doubled dual point ``p`` of ``domain`` is ``base``,
    the boundary height where Q crosses the point's dual column, plus the paths of
    color > c on the h-edges (x, y), y in ``rows``.  A point outside the domain, or a
    color c < 0, raises ValidationError."""
    if c < 0:
        raise ValidationError(f"height color must be >= 0, got {c}")
    lo, _ = domain.face_range(p)
    a2, b2 = p
    # h-edges crossing line alpha sit at x = alpha - 1/2
    return domain.boundary_height((a2, lo), c), (a2 - 1) // 2, range(lo // 2 + 1, b2 // 2 + 1)


def _read_height(config: Configuration, anchor, c: int) -> int:
    base, x, rows = anchor
    return base + sum(_tail_count(config.h_edges[(x, y)], c) for y in rows)


def merge_colors(config: Configuration, theta) -> Configuration:
    """Merge colors through a monotone map theta: {1..n} -> {0..m}.

    theta is a sequence of images indexed by color; paths mapped to 0 are
    removed.  Conservation is preserved automatically.
    """
    th = tuple(int(t) for t in theta)
    if any(a > b for a, b in zip(th, th[1:])) or any(t < 0 for t in th):
        raise ValidationError("theta must be monotone nondecreasing into {0..m}")
    m_colors = max(th) if th else 0

    def map_label(label):
        if isinstance(label, tuple):
            return tuple(merge_composition(label, th, m_colors))
        return th[label - 1] if label > 0 else 0

    dom = config.domain
    return Configuration(
        {e: map_label(v) for e, v in config.h_edges.items()},
        {e: map_label(v) for e, v in config.v_edges.items()},
        SkewDomain(dom.q_path, dom.p_path, tuple((th[c - 1] if c > 0 else 0) for c in dom.coloring)),
        max(m_colors, 1),
    )


# ---------------------------------------------------------------------------
# JSON serialization (field names are part of the CLI contract)
# ---------------------------------------------------------------------------


def domain_to_json(domain: SkewDomain) -> dict:
    sa, sb = undbl(domain.q_path.start)
    return {
        "start": [sa, sb],
        "q_steps": domain.q_path.steps,
        "p_steps": domain.p_path.steps,
        "coloring": list(domain.coloring),
    }


def domain_from_json(doc: dict) -> SkewDomain:
    q = UpLeftPath.from_floats(doc["start"], doc["q_steps"])
    p = UpLeftPath.from_floats(doc["start"], doc["p_steps"])
    return SkewDomain(q, p, tuple(doc["coloring"]))


def params_to_json(params: ModelParams) -> dict:
    return {
        "q": params.q,
        "row_rapidities": list(params.row_rapidities),
        "col_rapidities": list(params.col_rapidities),
        "col_spins": list(params.col_spins),
        "boundary_levels": list(params.boundary_levels),
    }


def params_from_json(doc: dict) -> ModelParams:
    return ModelParams(
        q=doc["q"],
        row_rapidities=tuple(doc.get("row_rapidities", ())),
        col_rapidities=tuple(doc.get("col_rapidities", ())),
        col_spins=tuple(doc.get("col_spins", ())),
        boundary_levels=tuple(doc.get("boundary_levels", ())),
    )


def config_to_json(config: Configuration) -> dict:
    def enc(edges):
        return [[x, y, list(v) if isinstance(v, tuple) else v] for (x, y), v in sorted(edges.items())]

    return {
        "n_rows": config.domain.n_rows,
        "m_cols": config.domain.m_cols,
        "n_colors": config.n_colors,
        "h_edges": enc(config.h_edges),
        "v_edges": enc(config.v_edges),
    }


def config_from_json(doc: dict, domain: SkewDomain) -> Configuration:
    """The configuration ``doc`` on ``domain``, whose shape its n_rows and m_cols must match."""
    def dec(rows):
        return {(x, y): tuple(v) if isinstance(v, list) else v for x, y, v in rows}

    if (doc["n_rows"], doc["m_cols"]) != (domain.n_rows, domain.m_cols):
        raise ValidationError(f"a {doc['n_rows']}x{doc['m_cols']} configuration on a "
                              f"{domain.n_rows}x{domain.m_cols} domain")
    return Configuration(dec(doc["h_edges"]), dec(doc["v_edges"]), domain, doc.get("n_colors", 1))


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)
