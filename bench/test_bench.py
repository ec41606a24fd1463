"""Tests of the benchmark itself: metrics, tracing coverage, correctness gate.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import harness  # noqa: E402
import tracing  # noqa: E402
from vertexflow import cli, hecke, lattice, qmoments, verify  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace, tmp_path):
    res = run.run_workload(workload, seed=5, seconds=0.01, trace=bool(trace), size="smoke",
                           out_dir=tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res["failures"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    for name, value in res["end_to_end"].items():
        assert value > 0, name
    if trace:
        computed = [m["name"] for m in spec if "computed" in m["unit"]]
        assert all(isinstance(res["metrics"][n]["value"], int) for n in computed)
    if workload == "mc_bridge":
        for model in ("sc6v", "hs", "qhahn", "beta"):
            assert res["report_only"][f"{model}_samples_per_s"] > 0
    assert res["report_only"]["failed_frac"] == 0


def test_wrong_reference_counts_a_failure(tmp_path, monkeypatch):
    timer = tracing.Tracer(only=tracing.INTEGRAL_ENTRY_POINTS)
    true_moment = qmoments.beta_moment

    def wrong_moment(*args, **kwargs):
        res = true_moment(*args, **kwargs)
        return qmoments.MomentResult(res.value + 0.05, res.error_estimate, res.nodes_per_circle)

    with timer:
        monkeypatch.setattr(qmoments, "beta_moment", wrong_moment)
        ops = harness.setup("mc_bridge", 3, timer, "smoke", tmp_path, 1)
        monkeypatch.setattr(qmoments, "beta_moment", true_moment)
        log = harness.PassLog()
        harness.run_passes(ops, timer, 0.0, log)
    assert log.attempted == len(ops)
    assert log.failed == 1
    assert log.failures[0]["op"] == "beta_t5"
    assert "mixed-delay" in " ".join(log.failures[0]["failures"])


@pytest.mark.xfail(strict=True, reason="known defect: check_qidentity's absolute tol 1e-12 is "
                   "below its own roundoff on some seeds, so verify_small runs fixed verify seeds")
def test_qidentity_passes_on_seed_30():
    assert verify.check_qidentity(seed=30).passed


def test_silent_cap_exit_counts_a_failure():
    params = lattice.ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    dom = lattice.rectangle_domain(2, 2, (0, 1, 1, 2))
    query = qmoments.MomentQuery([(1.5, 2.5), (2.5, 1.5)], [0, 1], hecke.Permutation((2, 1)))

    def capped(gate, p):  # stops at the cap with error_estimate >= tol, no exception
        qmoments.qmoment_skew(dom, params, query, nodes_per_circle=64, tol=1e-300, cap=128)

    def converged(gate, p):
        qmoments.qmoment_skew(dom, params, query, nodes_per_circle=64)

    timer = tracing.Tracer(only=tracing.INTEGRAL_ENTRY_POINTS)
    log = harness.PassLog()
    with timer:
        harness.run_passes([harness.Op("capped", capped), harness.Op("converged", converged)],
                           timer, 0.0, log)
    assert log.attempted == 2 and log.failed == 1
    assert log.failures[0]["op"] == "capped"
    assert "error estimate" in log.failures[0]["failures"][0]


def test_tracer_wraps_every_binding_and_restores():
    originals = (qmoments.qmoment_skew, cli.kappa, hecke.Permutation.__dict__["length"],
                 hecke.Permutation.__dict__["identity"], qmoments.MomentQuery.__dict__["k"])
    tracer = tracing.Tracer()
    with tracer:
        assert verify.qmoment_skew is qmoments.qmoment_skew is not originals[0]
        assert cli.kappa is hecke.kappa is not originals[1]
        assert hecke.Permutation.__dict__["length"] is not originals[2]
        hecke.Permutation.identity(3).length()
        qmoments.MomentQuery([(1.5, 1.5)], [0]).k
        lattice.ModelParams(q=0.3).level(1)
    names = [s[0] for s in tracer.spans]
    assert {"hecke.Permutation.identity", "hecke.Permutation.length",
            "qmoments.MomentQuery.k", "lattice.ModelParams.level"} <= set(names)
    assert (qmoments.qmoment_skew, cli.kappa, hecke.Permutation.__dict__["length"],
            hecke.Permutation.__dict__["identity"], qmoments.MomentQuery.__dict__["k"]) == originals


def test_self_times_account_for_the_traced_wall(tmp_path):
    res = run.run_workload("exact_k4", seed=2, seconds=0.01, trace=True, size="smoke",
                           out_dir=tmp_path)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert m["trace.remainder_s"] >= 0
    assert m["trace.remainder_s"] < 0.05 * (layers + m["trace.remainder_s"])


def test_one_dl_term_matches_the_query_permutation():
    seen = set()
    rng = random.Random(0)
    for _ in range(60):
        for col in verify.random_shift_pair(rng, 3, 3, 2)[:2]:
            _, _, pi = verify._cut_moment_query(col, [2, 2])
            identity = pi.images == tuple(range(1, 5))
            assert harness.one_dl_term(col, (2, 2)) == identity
            seen.add(identity)
    assert seen == {True, False}
