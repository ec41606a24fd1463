"""Contour families realizing the q-nested integration cycles.

A ContourFamily holds, per integration variable a = 1..k, a union of
counterclockwise circles.  The generic construction mirrors the explicit
recipe: small circles around the inside poles (shared by all variables, with
nearby poles clustered into one circle) plus a circle around 0 of radius
q^{2a} r0 for variable a, so that q^{-1} times variable a+1's zero-circle
lies inside variable a's.  The Beta-polymer family instead uses concentric
circles around -sigma/2 whose radii grow by slightly more than 1 per
variable, realizing the shift-by-(-1) nesting.

``build_contours`` takes its poles in a canonical order, sorted by (real, imag)
with repeats dropped, so any permutation of its pole lists gives an equal family,
circle for circle.  Integrals whose poles agree up to order, such as the two
sides of a shift-invariance pair, thus run on one quadrature grid
(``qmoments.shared_grids``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContourError


def phase_denominator(k: int) -> int:
    """D, the smallest odd integer > k, of the per-variable node phase rule.

    ``ContourFamily.nodes`` turns variable a's nodes by a/D of a spacing at the
    odd part of the node count, a fixed angle for every count n = odd * 2^m.
    Doubling n keeps each grid the stride-2 subset of the next one (nested
    levels), and on a shared circle variables a != b sit (a - b) 2^m / D
    spacings apart, never an integer because D is odd and |a - b| < D: their
    nodes stay >= spacing/D apart at every level, so the pair factors
    1/(w_b - w_a) never meet a coincidence.
    """
    return k + 1 if k % 2 == 0 else k + 2


def _resolution_floor(circle: "Circle", gap: float) -> float:
    """The least node count at which ``gap`` is 10x the resolution 2 pi r / n of ``circle``."""
    return 10 * 2 * np.pi * circle.radius / gap


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float


@dataclass
class ContourFamily:
    """Per-variable circle unions plus the pole bookkeeping used to validate them."""

    per_variable: list  # list over variables of list[Circle]
    inside_poles: list = field(default_factory=list)
    outside_poles: list = field(default_factory=list)
    q: float | None = None

    @property
    def k(self) -> int:
        return len(self.per_variable)

    def scaled(self, factor: float) -> "ContourFamily":
        """Same family with every radius multiplied by ``factor``."""
        return ContourFamily(
            [[Circle(c.center, c.radius * factor) for c in circles] for circles in self.per_variable],
            list(self.inside_poles),
            list(self.outside_poles),
            self.q,
        )

    def nodes(self, var: int, nodes_per_circle: int, turn: float = 0.0):
        """Quadrature nodes and dw/(2 pi i) weights for variable ``var`` (1-based).

        The nodes of each circle follow one another, ``nodes_per_circle`` per
        circle.  Their phase depends only on the odd part of the count (see
        ``phase_denominator``), so the grid at n/2 is exactly ``w[::2]`` of the
        grid at n, with weights ``2 * dw[::2]``.  ``turn`` turns every circle's
        nodes by that many spacings more; every variable turns alike, so nodes of
        two variables on a shared circle keep their distance.
        """
        ws, dws = [], []
        odd = nodes_per_circle // (nodes_per_circle & -nodes_per_circle)
        phase = var / (phase_denominator(self.k) * odd)
        for circ in self.per_variable[var - 1]:
            theta = 2 * np.pi * ((np.arange(nodes_per_circle) + turn) / nodes_per_circle + phase)
            w = circ.center + circ.radius * np.exp(1j * theta)
            ws.append(w)
            dws.append((w - circ.center) / nodes_per_circle)
        return np.concatenate(ws), np.concatenate(dws)

    def _outside_gaps(self):
        """(pole, circle, gap) for every outside pole and every circle of every union."""
        for circles in self.per_variable:
            for p in self.outside_poles:
                for c in circles:
                    gap = abs(p - c.center) - c.radius
                    if gap <= 0:
                        raise ContourError(f"outside pole {p} not outside circle {c}")
                    yield p, c, gap

    def start_count(self) -> int:
        """The least power of two >= 8 nodes per circle that ``validate`` accepts.

        ``validate`` accepts n when every outside pole's gap to every circle is at
        least 10x the resolution 2 pi r / n, that is n >= 20 pi r / gap.
        """
        floor = max((_resolution_floor(c, gap) for _, c, gap in self._outside_gaps()), default=0)
        n = 8
        while n < floor:
            n *= 2
        return n

    def validate(self, nodes_per_circle: int) -> None:
        """Check the inside/outside classification and nesting.

        Inside poles must lie strictly inside exactly one circle of every
        variable's union; outside poles strictly outside all of them, with a
        gap >= 10x the quadrature resolution 2 pi r / nodes.
        """
        for p, c, gap in self._outside_gaps():
            if _resolution_floor(c, gap) > nodes_per_circle:
                raise ContourError(f"outside pole {p} within 10x quadrature resolution of {c}",
                                   field="nodes_per_circle")
        for circles in self.per_variable:
            for p in self.inside_poles:
                containing = [c for c in circles if abs(p - c.center) < c.radius]
                if len(containing) != 1:
                    raise ContourError(f"inside pole {p} contained in {len(containing)} circles")
            # disjointness within one union
            for i, c1 in enumerate(circles):
                for c2 in circles[i + 1:]:
                    if abs(c1.center - c2.center) <= c1.radius + c2.radius:
                        raise ContourError("circles of one union overlap")
        if self.q is not None:
            self._check_q_nesting()
            self._check_scaled_images()

    def _check_scaled_images(self):
        # no pole circle may encircle points of q^{+-1} times another pole circle
        q = self.q
        pole_circles = [c for circles in self.per_variable for c in circles if abs(c.center) > 1e-14]
        for c1 in pole_circles:
            for c2 in pole_circles:
                for f in (q, 1 / q):
                    if abs(c1.center - f * c2.center) <= c1.radius + f * c2.radius:
                        raise ContourError(
                            f"circle {c1} overlaps the {f}-scaled image of {c2}"
                        )

    def _check_q_nesting(self):
        # variable a's zero-circle must contain q^{-1} (variable b's) for a < b
        q = self.q
        for a in range(self.k):
            for b in range(a + 1, self.k):
                za = [c for c in self.per_variable[a] if abs(c.center) < 1e-14]
                zb = [c for c in self.per_variable[b] if abs(c.center) < 1e-14]
                for ca in za:
                    for cb in zb:
                        if cb.radius / q >= ca.radius:
                            raise ContourError("zero-circles are not q-nested")


def build_contours(inside, outside, k: int, q: float) -> ContourFamily:
    """Generic q-nested family: clustered circles around ``inside`` poles plus
    the q^{2a}-scaled circle around 0 for variable a, of radius 1/4 of the
    nearest pole or excluded point.

    ``outside`` poles, 0, and q^{+-1} images of inside poles must stay outside
    the pole circles; violations raise ContourError naming the offenders.
    """
    inside = _dedupe(inside)
    outside = _dedupe(outside)
    if not inside:
        raise ContourError("need at least one inside pole")
    excluded = list(outside)
    for p in inside:
        excluded.extend([q * p, p / q])
    excluded = _dedupe(excluded)

    clusters = [[p] for p in inside]
    while True:  # each pass merges two clusters or stops
        circles = [_cluster_circle(cl, excluded) for cl in clusters]
        merged = _merge_overlaps(clusters, circles)
        if merged is None:
            break
        clusters = merged

    r0_bound = min(abs(p) for p in inside + excluded)
    if r0_bound <= 0:
        raise ContourError("a pole coincides with 0")
    r0 = 0.25 * r0_bound
    per_var = []
    for a in range(1, k + 1):
        per_var.append(list(circles) + [Circle(0j, r0 * q ** (2 * a))])
    return ContourFamily(per_var, inside, list(outside) + [e for e in excluded if e not in outside], q)


def _dedupe(points):
    """``points`` as complex numbers without repeats to 1e-11 relative, in their
    canonical order: sorted by (real, imag), a repeat dropped after its first."""
    out = []
    for p in sorted((complex(p) for p in points), key=lambda p: (p.real, p.imag)):
        if all(abs(p - o) > 1e-11 * max(1.0, abs(p)) for o in out):
            out.append(p)
    return out


def _cluster_circle(cluster, excluded) -> Circle:
    """The circle around ``cluster``'s mean past its spread by 1/4 of the way to the
    nearest excluded point or 0."""
    center = sum(cluster) / len(cluster)
    spread = max(abs(p - center) for p in cluster)
    blockers = excluded + [0j]
    rexcl = min(abs(e - center) for e in blockers)
    if rexcl <= spread * (1 + 1e-9) + 1e-14:
        worst = min(blockers, key=lambda e: abs(e - center))
        raise ContourError(
            f"no valid circle around poles {cluster}: excluded point {worst} too close"
        )
    return Circle(center, spread + 0.25 * (rexcl - spread))


def _merge_overlaps(clusters, circles):
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            d = abs(circles[i].center - circles[j].center)
            if d <= circles[i].radius + circles[j].radius:
                merged = [cl for t, cl in enumerate(clusters) if t not in (i, j)]
                merged.append(clusters[i] + clusters[j])
                return merged
    return None


def build_contours_qhahn(s: float, z: float, q: float, k: int) -> ContourFamily:
    """Family for the fully fused model: encircle 0 and 1/s, exclude s and z^2/s."""
    return build_contours([1 / s], [s, z * z / s], k, q)


def build_contours_beta(sigma: float, rho: float, k: int) -> ContourFamily:
    """Concentric circles around -sigma/2: radius r_1 + (a-1)(1+delta) for
    variable a, with the first delta of 0.1, 0.02, 0.005 that fits; each
    contains the (-1)-shift of the previous one and excludes sigma/2 - rho and
    sigma/2.  At k = 1 nothing nests, so the one circle takes r_1 = (sigma - rho)/4,
    a quarter of the way to the nearest excluded pole: around the pole of order m
    at -sigma/2, a small circle sums terms that cancel to lose digits."""
    span = sigma - rho  # distance from -sigma/2 to the nearest excluded pole
    for dlt in (0.1, 0.02, 0.005):
        r1 = span / 4 if k == 1 else min(0.25, 0.05 * span)
        rk = r1 + (k - 1) * (1 + dlt)
        if rk < 0.85 * span:
            per_var = [
                [Circle(complex(-sigma / 2), r1 + (a - 1) * (1 + dlt))] for a in range(1, k + 1)
            ]
            fam = ContourFamily(per_var, [complex(-sigma / 2)],
                                [complex(sigma / 2), complex(sigma / 2 - rho)], None)
            return fam
    raise ContourError(
        f"sigma - rho = {span} is too small to nest {k} shifted contours"
    )
