"""Workloads, the correctness gate and the pass runner of the benchmark.

Every workload is built by a ``setup_*`` function from the workload seed.
Set-up makes the inputs and the exact references; it returns a list of ops.
An op calls the public vertexflow API and checks every output through a
``Gate``.  The runner repeats the whole op list (a pass) until the time
budget is spent, so each timing is a median over identical passes.

An op fails if it raises, if the CLI exits non-zero, if a check misses its
oracle, tolerance or 4-sigma band, or if a public integral entry point
returns a ``MomentResult`` whose ``error_estimate`` is not below its ``tol``
(the adaptive loop stops silently at its node cap).  The tracer's observers
report that last case from outside the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vertexflow import cli, lattice, qmoments, sampler, verify
from vertexflow.hecke import Permutation
from vertexflow.lattice import Cut, ModelParams, SkewDomain, UpLeftPath, dbl, rectangle_domain

Z_FACTOR = 4.0  # Monte Carlo checks: 4 sigma, as in the acceptance suite
SHIFT_TOL = 1e-10  # criterion 5
ENUM_TOL = 1e-8  # criterion 3 and the CLI moment oracles
API_TOL = 1e-12  # CLI value against the same formula called directly


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Ref:
    """An exact reference computed at set-up, with its own convergence verdict."""

    value: complex
    converged: bool = True


class Gate:
    """Collects the check failures of one op and the run's per-op samples."""

    def __init__(self, samples: dict):
        self.failures = []
        self.samples = samples

    def require(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def ref(self, what: str, ref: Ref):
        """The reference value; a reference that did not converge fails the op."""
        self.require(ref.converged, f"{what}: reference did not converge")
        return ref.value

    def close(self, what: str, got, want, tol: float) -> None:
        if isinstance(want, Ref):
            want = self.ref(what, want)
        err = abs(got - want)
        self.require(err < tol, f"{what}: |{got} - {want}| = {err:.3e} >= {tol:.0e}")

    def record(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)


def within_sigma(err: float, sigma: float) -> bool:
    return err <= Z_FACTOR * sigma + 1e-12


def reference(tracer, fn) -> Ref:
    """Evaluate an exact reference; unconverged integrals inside mark it."""
    before = len(tracer.unconverged)
    value = fn()
    return Ref(value, converged=len(tracer.unconverged) == before)


@dataclass
class Op:
    name: str
    fn: object  # fn(gate, pass_index)


@dataclass
class PassLog:
    pass_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    op_s: dict = field(default_factory=lambda: defaultdict(list))


def run_passes(ops: list, tracer, seconds: float, log: PassLog, first_op_id: int = 0,
               on_pass=None) -> None:
    """Repeat the op list until ``seconds`` is spent (at least one pass).

    Another pass starts only while at least half of it fits in the budget.
    """
    clock = time.perf_counter
    start = clock()
    p = 0
    while True:
        t0 = clock()
        for i, op in enumerate(ops):
            op_id = first_op_id + p * len(ops) + i
            gate = Gate(log.samples)
            n_unconverged = len(tracer.unconverged)
            span = tracer.begin(f"harness.{op.name}", op_id)
            try:
                op.fn(gate, p)
            except Exception as exc:  # an op that raises is a failed op; keep running
                tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
                gate.failures.append(f"raised {tb}")
            finally:
                tracer.end(span)
            log.op_s[op.name].append(tracer.spans[span][2] - tracer.spans[span][1])
            for _, qual, est, tol in tracer.unconverged[n_unconverged:]:
                gate.failures.append(f"{qual} stopped at error estimate {est:.3e} >= tol {tol:.0e}")
            log.attempted += 1
            if gate.failures:
                log.failed += 1
                log.failures.append({"op": op.name, "pass": p, "failures": gate.failures})
        log.pass_s.append(clock() - t0)
        p += 1
        if on_pass is not None:
            on_pass()
        if clock() - start + 0.5 * log.pass_s[-1] >= seconds:
            return


def _quiet(fn):
    """Run ``fn`` with stdout and stderr captured (CLI commands print); return (rc, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = fn()
    return rc, err.getvalue()


def _stream_seed(seed: int, pass_index: int, stream: int) -> int:
    """Distinct sampler seed per (workload seed, pass, stream)."""
    return (seed << 24) + (pass_index << 8) + stream


# ---------------------------------------------------------------------------
# shared model inputs
# ---------------------------------------------------------------------------

HS3 = ModelParams(q=0.5, row_rapidities=(5.0, 6.0, 7.0), col_rapidities=(1.0, 1.1, 1.2),
                  col_spins=(4.0, 4.0, 4.0), boundary_levels=(1, 2, 3))
QHAHN = dict(q=0.4, s=0.4, z=0.7, levels=(1, 2, 3, 4))
BETA = dict(sigma=6.0, rho=1.5, t_max=5)


def figure_pair():
    """The 6x6 shift-isomorphic figure pair of the acceptance suite's criterion 5."""
    qa = UpLeftPath.from_floats((6.5, 0.5), "HHVHHVVHHVVV")
    pa = UpLeftPath.from_floats((6.5, 0.5), "VVHVVVHVHHHH")
    dom_a = SkewDomain(qa, pa, tuple(range(1, 13)))
    cuts_a = [Cut(dbl(5.5, 0.5), dbl(6.5, 1.5)), Cut(dbl(2.5, 1.5), dbl(4.5, 6.5)),
              Cut(dbl(2.5, 1.5), dbl(6.5, 2.5)), Cut(dbl(0.5, 4.5), dbl(5.5, 5.5))]
    qb = UpLeftPath.from_floats((6.5, 0.5), "HVHHVHHVHVVV")
    pb = UpLeftPath.from_floats((6.5, 0.5), "VVVVHVVHHHHH")
    dom_b = SkewDomain(qb, pb, tuple(range(1, 13)))
    cuts_b = [Cut(dbl(5.5, 0.5), dbl(6.5, 1.5)), Cut(dbl(3.5, 1.5), dbl(5.5, 6.5)),
              Cut(dbl(2.5, 2.5), dbl(6.5, 3.5)), Cut(dbl(0.5, 3.5), dbl(5.5, 4.5))]
    phi = Permutation((1, 3, 6, 2, 4, 5))
    psi = Permutation((2, 1, 4, 5, 3, 6))
    return verify.CutCollection(dom_a, cuts_a), verify.CutCollection(dom_b, cuts_b), phi, psi


def corpus_domains():
    """The criterion-3 corpus: skew domains with <= 9 vertices and queries on P."""
    out = []
    p1 = ModelParams(q=0.35, row_rapidities=(2.0,), col_rapidities=(1.0,))
    out.append((rectangle_domain(1, 1, (0, 1)), p1,
                [([(1.5, 1.5)], [0]), ([(1.5, 1.5), (1.5, 1.5)], [0, 1])]))
    p2 = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    out.append((rectangle_domain(2, 2, (0, 1, 1, 2)), p2,
                [([(1.5, 2.5), (2.5, 1.5)], [0, 1]),
                 ([(1.5, 2.5), (2.5, 1.5), (2.5, 1.5)], [0, 0, 1])]))
    p3 = ModelParams(q=0.3, row_rapidities=(2.0, 2.2), col_rapidities=(1.0, 1.06, 1.13))
    out.append((rectangle_domain(2, 3, (0, 0, 1, 2, 2)), p3,
                [([(2.5, 2.5), (3.5, 1.5)], [0, 1]),
                 ([(1.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 2])]))
    qp = UpLeftPath.from_floats((3.5, 0.5), "HVHHVV")
    pp = UpLeftPath.from_floats((3.5, 0.5), "VVHVHH")
    p4 = ModelParams(q=0.33, row_rapidities=(2.0, 2.1, 2.25), col_rapidities=(1.0, 1.05, 1.1))
    out.append((SkewDomain(qp, pp, (0, 1, 1, 2, 3, 3)), p4,
                [([(2.5, 2.5), (3.5, 1.5)], [1, 2]),
                 ([(2.5, 2.5), (2.5, 2.5), (3.5, 1.5)], [0, 1, 3])]))
    p5 = ModelParams(q=0.3, row_rapidities=(2.0, 2.1, 2.2), col_rapidities=(1.0, 1.05, 1.1))
    out.append((rectangle_domain(3, 3, (0, 1, 1, 2, 3, 3)), p5,
                [([(1.5, 3.5), (3.5, 1.5)], [1, 2]),
                 ([(1.5, 3.5), (2.5, 3.5), (3.5, 1.5)], [0, 1, 2])]))
    return out


# ---------------------------------------------------------------------------
# exact_k4: criterion-5-shaped exact shift-invariance checks with k = 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactK4Size:
    powers: tuple = (2, 2)  # two cuts, each squared: every integral has k = 4


def one_dl_term(col, powers) -> bool:
    """True when the cut moment of ``col`` integrates with pi = identity.

    The query lists each cut's point on P ``power`` times, stably sorted by
    (alpha, -beta); pi is the identity exactly when the colors then read
    nondecreasing.  Any other pi multiplies the integral's cost by 2^l(pi).
    """
    items = [(cut.p_point, col.domain.q_path.index_of(cut.q_point))
             for cut, a in zip(col.cuts, powers) for _ in range(a)]
    colors = [c for _, c in sorted(items, key=lambda t: (t[0][0], -t[0][1]))]
    return all(a <= b for a, b in zip(colors, colors[1:]))


def setup_exact_k4(seed: int, tracer, size: ExactK4Size, workdir: Path, workers: int) -> list:
    rng = random.Random(seed)
    params = ModelParams(q=0.3, row_rapidities=tuple(2.0 + 0.11 * i for i in range(3)),
                         col_rapidities=tuple(1.0 + 0.05 * i for i in range(3)))
    # keep a pair whose two integrals each have one DL term, so every seed
    # times the same contraction work (a pair with l(pi) = 4 costs 16x)
    while True:
        col_a, col_b, phi, psi = verify.random_shift_pair(rng, 3, 3, len(size.powers))
        if one_dl_term(col_a, size.powers) and one_dl_term(col_b, size.powers):
            break

    def op(gate, pass_index):
        rep = verify.check_shift_invariance(col_a, col_b, phi, psi, list(size.powers), params,
                                            method="enumerate", nodes_per_circle=64, tol=SHIFT_TOL)
        gate.require(rep.passed and rep.max_abs_error < SHIFT_TOL,
                     f"{rep.name}: max|err| = {rep.max_abs_error:.3e} ({rep.details})")

    return [Op("shift_pair", op)]


# ---------------------------------------------------------------------------
# mc_bridge: one 4-sigma Monte Carlo batch per sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCBridgeSize:
    sc6v: int = 10**6
    hs: int = 10**6
    qhahn: int = 5 * 10**4  # argsort in np.unique(axis=0) still ~80 % of the time here
    beta: int = 10**6


def _mean_se(values: np.ndarray) -> tuple:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _pooled(parts) -> tuple:
    """Mean and standard error of equal-size independent batches (mean, se)."""
    n = len(parts)
    return (sum(m for m, _ in parts) / n, math.sqrt(sum(se * se for _, se in parts)) / n)


MC_HS_POINTS = [(2.5, 3.5), (3.5, 2.5)]
MC_HS_CASES = [([1, 2], Permutation((2, 1))), ([1, 1], Permutation.identity(2))]
MC_QHAHN_TRACK = [(1.5, 3.5, 0), (2.5, 3.5, 1), (3.5, 4.5, 0)]


def mc_bridge_references(tracer) -> dict:
    """The exact values the mc_bridge batches are checked against.

    Set-up computes them once; the run also re-evaluates them to time
    integrals, because the mc_bridge passes call none.
    """
    hs_points, hs_cases, track = MC_HS_POINTS, MC_HS_CASES, MC_QHAHN_TRACK
    q, s, z, levels = QHAHN["q"], QHAHN["s"], QHAHN["z"], QHAHN["levels"]
    sig, rho = BETA["sigma"], BETA["rho"]
    refs = {}
    for cols, pi in hs_cases:
        refs[("hs", tuple(cols))] = reference(tracer, lambda: qmoments.shifted_observable(
            HS3, hs_points, cols, pi, nodes_per_circle=96).value.real)
    for a, b, c in track:
        refs[("qhahn", (a, b, c))] = reference(tracer, lambda: qmoments.qmoment_qhahn(
            q, s, z, levels, qmoments.MomentQuery([(a, b)], [c]), nodes_per_circle=96).value.real)
    refs[("qhahn", "pair")] = reference(tracer, lambda: qmoments.qmoment_qhahn(
        q, s, z, levels, qmoments.MomentQuery([(1.5, 3.5), (2.5, 3.5)], [0, 1]),
        nodes_per_circle=96).value.real)
    refs[("beta", "z14")] = Ref(((sig - rho) / sig) ** 3)  # E[Z^(1,4)] = mu^(t-1)
    refs[("beta", "mixed")] = reference(tracer, lambda: qmoments.beta_moment(
        sig, rho, [(2, 5), (3, 5)], [0, 1], Permutation((2, 1)), nodes_per_circle=64).value.real)
    return refs


def setup_mc_bridge(seed: int, tracer, size: MCBridgeSize, workdir: Path, workers: int) -> list:
    col_a, col_b, phi, psi = figure_pair()
    verify.validate_shift_isomorphism(col_a, col_b, phi, psi)
    params6 = ModelParams(q=0.4, row_rapidities=tuple(2.0 + 0.1 * i for i in range(6)),
                          col_rapidities=tuple(1.0 + 0.04 * i for i in range(6)))
    params6_b = ModelParams(q=params6.q, row_rapidities=phi.act(params6.row_rapidities),
                            col_rapidities=psi.act(params6.col_rapidities))
    hs_points, hs_cases, track = MC_HS_POINTS, MC_HS_CASES, MC_QHAHN_TRACK
    q, s, z, levels = QHAHN["q"], QHAHN["s"], QHAHN["z"], QHAHN["levels"]
    sig, rho, t_max = BETA["sigma"], BETA["rho"], BETA["t_max"]
    beta_points = [(0, 1, 4), (0, 3, 5), (1, 2, 5)]
    refs = mc_bridge_references(tracer)

    def sc6v_side(col, par, seed_, n, sampler_s=None):
        t0 = time.perf_counter()
        batch = sampler.sample_sc6v(col.domain, par, seed_, n, workers)
        if sampler_s is not None:
            sampler_s.append(time.perf_counter() - t0)
        expo = np.zeros(n, dtype=np.int64)
        for cut in col.cuts:
            color = col.domain.q_path.index_of(cut.q_point)
            expo += batch.heights((cut.p_point[0] / 2, cut.p_point[1] / 2), color)
        return _mean_se(params6.q ** expo.astype(float))

    def sc6v_op(gate, p):
        n = size.sc6v
        sampler_s = []
        sides = [sc6v_side(col_a, params6, _stream_seed(seed, p, 0), n, sampler_s),
                 sc6v_side(col_b, params6_b, _stream_seed(seed, p, 1), n, sampler_s)]
        gate.record("sc6v_samples_per_s", 2 * n / sum(sampler_s))

        def verdict(sides):
            (ma, sa), (mb, sb) = sides
            return abs(ma - mb), math.hypot(sa, sb)

        err, sigma = verdict(sides)
        if not within_sigma(err, sigma):  # one rerun at 4x, as mc_vs_exact does
            sides = [_pooled([sc6v_side(col, par, _stream_seed(seed, p, 16 + 2 * r + j), n)
                              for r in range(4)])
                     for j, (col, par) in enumerate(((col_a, params6), (col_b, params6_b)))]
            err, sigma = verdict(sides)
        gate.require(within_sigma(err, sigma),
                     f"sc6v figure pair: |diff| = {err:.3e} > {Z_FACTOR} sigma = {Z_FACTOR * sigma:.3e}")

    def hs_op(gate, p):
        n = size.hs
        t0 = time.perf_counter()
        batch = sampler.sample_higher_spin(HS3, (3, 3), _stream_seed(seed, p, 2), n, workers)
        gate.record("hs_samples_per_s", n / (time.perf_counter() - t0))
        reruns = None
        for cols, pi in hs_cases:
            want = gate.ref(f"hs {cols}", refs[("hs", tuple(cols))])
            emp, se = qmoments.shifted_observable(HS3, hs_points, cols, pi, exact=False, batch=batch)
            if not within_sigma(abs(emp - want), se):
                if reruns is None:
                    reruns = [sampler.sample_higher_spin(HS3, (3, 3), _stream_seed(seed, p, 32 + r),
                                                         n, workers) for r in range(4)]
                emp, se = _pooled([qmoments.shifted_observable(HS3, hs_points, cols, pi,
                                                               exact=False, batch=b)
                                   for b in reruns])
            gate.require(within_sigma(abs(emp - want), se),
                         f"hs shifted observable {cols}: |{emp} - {want}| > {Z_FACTOR} se = {se:.3e}")

    def chunked(sample, n):
        """rerun callback for mc_vs_exact: fresh streams, drawn n samples at a time."""
        return lambda total: np.concatenate([sample(64 + r, n) for r in range(-(-total // n))])[:total]

    def qhahn_op(gate, p):
        n = size.qhahn

        def draw(stream, count):
            return sampler.sample_qhahn(q, s, z, (4, 4), levels, _stream_seed(seed, p, stream),
                                        count, workers, track=track, keep_edges=False)

        t0 = time.perf_counter()
        batch = draw(3, n)
        gate.record("qhahn_samples_per_s", n / (time.perf_counter() - t0))
        for key in track:
            want = gate.ref(f"qhahn {key}", refs[("qhahn", key)])
            rep = verify.mc_vs_exact(q ** batch.tracked_heights[key].astype(float), want,
                                     f"qhahn {key}", Z_FACTOR,
                                     rerun=chunked(lambda st, c, key=key: q ** draw(st, c)
                                                   .tracked_heights[key].astype(float), n))
            gate.require(rep.passed, f"{rep.name}: |err| = {rep.max_abs_error:.3e} ({rep.details})")
        pair_keys = (track[0], track[1])

        def pair_values(b):
            return q ** (b.tracked_heights[pair_keys[0]] + b.tracked_heights[pair_keys[1]]).astype(float)

        want = gate.ref("qhahn k=2", refs[("qhahn", "pair")])
        rep = verify.mc_vs_exact(pair_values(batch), want, "qhahn k=2", Z_FACTOR,
                                 rerun=chunked(lambda st, c: pair_values(draw(st, c)), n))
        gate.require(rep.passed, f"{rep.name}: |err| = {rep.max_abs_error:.3e} ({rep.details})")

    def beta_op(gate, p):
        n = size.beta

        def draw(stream, count):
            return sampler.simulate_beta_polymer(sig, rho, t_max, {0, 1}, _stream_seed(seed, p, stream),
                                                 count, beta_points, workers)

        t0 = time.perf_counter()
        batch = draw(4, n)
        gate.record("beta_samples_per_s", n / (time.perf_counter() - t0))
        checks = [("beta E[Z^(1,4)]", refs[("beta", "z14")], lambda b: b.value(0, 1, 4)),
                  ("beta mixed-delay k=2", refs[("beta", "mixed")],
                   lambda b: b.value(1, 2, 5) * b.value(0, 3, 5))]
        for name, ref, values in checks:
            rep = verify.mc_vs_exact(values(batch), gate.ref(name, ref), name, Z_FACTOR,
                                     rerun=chunked(lambda st, c, values=values: values(draw(st, c)), n))
            gate.require(rep.passed, f"{rep.name}: |err| = {rep.max_abs_error:.3e} ({rep.details})")

    return [Op("sc6v_figure_pair", sc6v_op), Op("hs3_shifted", hs_op),
            Op("qhahn_4x4", qhahn_op), Op("beta_t5", beta_op)]


# ---------------------------------------------------------------------------
# verify_small: many small exact checks through cli.run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySmallSize:
    # Fixed, not drawn from the workload seed: check_qidentity compares at an
    # absolute 1e-12 that its own roundoff exceeds on about 7 % of seeds (e.g.
    # 30, 56, 107), a defect of that check which test_bench.py keeps visible.
    # 1 and 3 are the seeds tests/test_verify.py runs the identity suite with.
    verify_seeds: tuple = (1, 3)


SC6V_QUERY = {  # the README example with pi = (2, 1)
    "points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1],
    "domain": {"start": [2.5, 0.5], "q_steps": "HHVV", "p_steps": "VVHH",
               "coloring": [0, 1, 1, 2]},
    "params": {"q": 0.3, "row_rapidities": [1.9, 2.2], "col_rapidities": [1.0, 1.12]},
}
HS3_JSON = lattice.params_to_json(HS3)
CLI_QUERIES = {
    "6.1": SC6V_QUERY,
    "8.1": {"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1],
            "params": HS3_JSON},
    "8.4": {"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [1, 2], "pi": [2, 1],
            "params": HS3_JSON},
    "8.5": {"points": [[1.5, 3.5], [2.5, 3.5]], "colors": [0, 1], "pi": [2, 1],
            "params": {"q": QHAHN["q"], "s": QHAHN["s"], "z": QHAHN["z"],
                       "boundary_levels": list(QHAHN["levels"])}},
    "9.2": {"points": [[2, 5], [3, 5]], "colors": [0, 1], "pi": [2, 1],
            "params": {"sigma": BETA["sigma"], "rho": BETA["rho"]}},
}


def shifted_on_ensemble(ens, points, colors, pi, q) -> float:
    """E[O^p_{pi.c}] summed exactly over a weighted ensemble."""
    k = len(points)
    pc = pi.act(colors)
    r_gt = [sum(1 for j in range(i + 1, k) if pc[j] > pc[i]) for i in range(k)]
    r_ge = [sum(1 for j in range(i + 1, k) if pc[j] >= pc[i]) for i in range(k)]
    total = 0.0
    for w, cfg in ens.entries:
        prod = 1.0
        for i in range(k):
            h_gt = lattice.height(cfg, points[i], pc[i])
            h_ge = lattice.height(cfg, points[i], pc[i] - 1)
            prod *= q ** (h_gt - r_gt[i]) - q ** (h_ge - r_ge[i])
        total += w * prod
    return total


def setup_verify_small(seed: int, tracer, size: VerifySmallSize, workdir: Path,
                       workers: int) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    # CLI moment oracles: enumeration where an enumerator exists, else the
    # same formula called directly (checks the CLI route: parse, schema, dispatch)
    sc6v_params = lattice.params_from_json(SC6V_QUERY["params"])
    ens = sampler.enumerate_sc6v(rectangle_domain(2, 2, (0, 1, 1, 2)), sc6v_params)
    pts = [tuple(p) for p in SC6V_QUERY["points"]]
    pi21 = Permutation((2, 1))
    refs["6.1"] = Ref(ens.moment(pts, pi21.act(SC6V_QUERY["colors"]), sc6v_params.q))
    hs_ens = sampler.enumerate_higher_spin(HS3, (2, 2))
    hs_pts = [tuple(p) for p in CLI_QUERIES["8.1"]["points"]]
    refs["8.1"] = Ref(hs_ens.moment(hs_pts, pi21.act(CLI_QUERIES["8.1"]["colors"]), HS3.q))
    refs["8.4"] = Ref(shifted_on_ensemble(hs_ens, hs_pts, CLI_QUERIES["8.4"]["colors"], pi21, HS3.q))
    refs["8.5"] = reference(tracer, lambda: qmoments.qmoment_qhahn(
        QHAHN["q"], QHAHN["s"], QHAHN["z"], QHAHN["levels"],
        qmoments.MomentQuery([tuple(p) for p in CLI_QUERIES["8.5"]["points"]],
                             CLI_QUERIES["8.5"]["colors"], pi21)).value)
    refs["9.2"] = reference(tracer, lambda: qmoments.beta_moment(
        BETA["sigma"], BETA["rho"], [tuple(p) for p in CLI_QUERIES["9.2"]["points"]],
        CLI_QUERIES["9.2"]["colors"], pi21).value)
    paths = {}
    for key, doc in CLI_QUERIES.items():
        paths[key] = workdir / f"query_{key}.json"
        paths[key].write_text(json.dumps(doc))

    ops = []
    for vseed in size.verify_seeds:
        out = workdir / f"verify_{vseed}.json"

        def verify_op(gate, p, vseed=vseed, out=out):
            rc, err = _quiet(lambda: cli.run(["verify", "--suite", "all", "--seed", str(vseed),
                                                 "--out", str(out)]))
            gate.require(rc == cli.EXIT_OK, f"verify --suite all --seed {vseed}: exit {rc} {err.strip()}")
            checks = json.loads(out.read_text())["checks"]
            bad = [c["name"] for c in checks if c["status"] != "pass"]
            gate.require(checks and not bad, f"verify seed {vseed}: failed checks {bad}")

        ops.append(Op(f"verify_all_seed{vseed}", verify_op))

    for key in CLI_QUERIES:
        out = workdir / f"moment_{key}.json"

        def moment_op(gate, p, key=key, out=out):
            rc, err = _quiet(lambda: cli.run(["moment", "--theorem", key, "--query",
                                                 str(paths[key]), "--out", str(out)]))
            gate.require(rc == cli.EXIT_OK, f"moment {key}: exit {rc} {err.strip()}")
            doc = json.loads(out.read_text())
            tol = ENUM_TOL if key in ("6.1", "8.1", "8.4") else API_TOL
            gate.close(f"moment {key}", complex(doc["value_re"], doc["value_im"]), refs[key], tol)
            gate.require(doc["error_estimate"] < qmoments.DEFAULT_TOL,
                         f"moment {key}: error estimate {doc['error_estimate']:.3e}")

        ops.append(Op(f"moment_{key}", moment_op))

    for d, (dom, params, queries) in enumerate(corpus_domains()):
        ens = sampler.enumerate_sc6v(dom, params)
        for j, (pts, cols) in enumerate(queries):
            pis = Permutation.all(len(pts))
            want = {pi.images: ens.moment(pts, pi.act(cols), params.q) for pi in pis}
            refs[("corpus", d, j)] = want

            def corpus_op(gate, p, dom=dom, params=params, pts=pts, cols=cols, pis=pis, d=d, j=j):
                got = qmoments.qmoment_skew_multi(dom, params, pts, cols, pis, nodes_per_circle=64)
                for pi in pis:
                    gate.close(f"corpus {d}.{j} pi={pi.images}", got[pi.images].value,
                               refs[("corpus", d, j)][pi.images], ENUM_TOL)

            ops.append(Op(f"corpus_{d}_{j}", corpus_op))
    return ops


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "exact_k4": (setup_exact_k4, {"full": ExactK4Size(), "smoke": ExactK4Size(powers=(1, 1))}),
    "mc_bridge": (setup_mc_bridge, {"full": MCBridgeSize(),
                                    "smoke": MCBridgeSize(sc6v=2 * 10**4, hs=2 * 10**4,
                                                          qhahn=5 * 10**3, beta=2 * 10**4)}),
    "verify_small": (setup_verify_small, {"full": VerifySmallSize(),
                                          "smoke": VerifySmallSize(verify_seeds=(1,))}),
}


# workloads whose passes call no integral: integral_s_p50 times these instead
INTEGRAL_PROBES = {"mc_bridge": mc_bridge_references}


def setup(workload: str, seed: int, tracer, size: str, workdir: Path, workers: int) -> list:
    fn, sizes = WORKLOADS[workload]
    return fn(seed, tracer, sizes[size], workdir, workers)
