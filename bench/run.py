"""vertexflow benchmark: named workloads against the public API, every output checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_k4 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): exact_k4, mc_bridge,
verify_small.  The seed alone determines the inputs.  Set-up (import,
input generation, exact references) runs several times and reports its
median.  The op list then repeats until ``--seconds`` is spent.

``--trace 0`` prints the end-to-end metrics with tracing off.  ``--trace 1``
runs half the budget untraced and half with every public function of the
eight vertexflow modules wrapped, and prints the per-layer metrics.

Stdout holds a readable report (run environment, every end-to-end metric of
the workload with its unit and sample count, including the sampler
throughputs and failed_frac) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  The full record, and for traced
runs the spans, go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = 1  # fixed at or below nproc before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5  # at least; one more follows every untraced pass
PROBE_REPS = 8  # integral probe evaluations after every untraced pass; the first runs cold

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "integral_s_p50": "s", "peak_rss_mb": "MB"}
# reported on the workloads where they apply; not gated, see BENCHMARK.json
REPORT_ONLY_UNITS = {"sc6v_samples_per_s": "1/s", "hs_samples_per_s": "1/s",
                     "qhahn_samples_per_s": "1/s", "beta_samples_per_s": "1/s",
                     "failed_frac": "ratio"}
LAYER_SELF = ("qmoments", "contours", "hecke", "weights", "sampler.sc6v", "sampler.hs",
              "sampler.qhahn", "sampler.beta", "sampler.enumerate", "sampler", "lattice",
              "verify", "cli", "harness")
LAYER_CALLS = ("qmoments", "contours", "hecke", "weights", "sampler", "lattice", "verify", "cli")
COMPUTED = ("qmoments.grid_work", "qmoments.levels", "hecke.dl_terms", "sampler.sc6v.vertex_draws",
            "sampler.hs.vertex_draws", "sampler.qhahn.vertex_draws", "sampler.beta.vertex_draws",
            "sampler.edge_bytes", "sampler.enumerate.configs")
MAXIMA = ("qmoments.nodes_per_variable_max", "contours.circles_per_variable_max")
MEASURED_COUNTS = ("qmoments.unconverged", "verify.checks", "verify.failed")


def per_layer_units() -> dict:
    units = {}
    for layer in LAYER_SELF:
        units[f"{layer}.self_s"] = "s"
    for layer in LAYER_CALLS:
        units[f"{layer}.calls"] = "count"
    for name in COMPUTED + MAXIMA:
        units[name] = "B-computed" if name == "sampler.edge_bytes" else "count-computed"
    for name in MEASURED_COUNTS:
        units[name] = "count"
    units.update({"trace.remainder_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def environment(seed: int, workers: int, seconds: float) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
        "workers": workers,
        "seconds": seconds,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Time to import the eight modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(f"{tracing.PACKAGE}.{m}" for m in tracing.MODULES)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; return the result record (see module docstring)."""
    import harness  # imports numpy and vertexflow

    workers = min(2, os.cpu_count() or 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    timer = tracing.Tracer(only=tracing.INTEGRAL_ENTRY_POINTS)
    probe = harness.INTEGRAL_PROBES.get(workload)
    setup_s, setup_integral_s, pass_integral_s = [], [], []

    def integral_seconds(into):
        """Append the integral seconds since the previous call to ``into``."""
        into.append(sum(timer.integral_s[integral_seconds.seen:]))
        integral_seconds.seen = len(timer.integral_s)

    integral_seconds.seen = 0

    def setup_rep():
        """One set-up: fresh-interpreter import, then inputs and exact references."""
        import_s = import_seconds()
        t0 = time.perf_counter()
        ops = harness.setup(workload, seed, timer, size, workdir, workers)
        setup_s.append(import_s + time.perf_counter() - t0)
        integral_seconds(setup_integral_s)
        return ops

    def after_pass():
        if probe is None:
            integral_seconds(pass_integral_s)
        else:  # the passes call no integral: time the probe instead
            probe_s = []
            for _ in range(PROBE_REPS):
                probe(timer)
                integral_seconds(probe_s)
            pass_integral_s.append(median(probe_s))
        # set-up repetitions are spread between the passes, so slow phases of a
        # shared machine hit set-up and passes alike
        setup_rep()

    try:
        with timer:
            ops = setup_rep()
            plain = harness.PassLog()
            harness.run_passes(ops, timer, seconds / 2 if trace else seconds, plain,
                               on_pass=after_pass)
            while len(setup_s) < SETUP_REPS:
                setup_rep()
        traced = harness.PassLog()
        layer = {}
        if trace:
            layer = traced_passes(ops, seconds / 2, plain, traced, out_dir, workload, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    e2e = {
        "setup_s": median(setup_s),
        "wall_s": median(plain.pass_s),
        "integral_s_p50": median(pass_integral_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report_only = {name: median(v) for name, v in plain.samples.items()}
    report_only["failed_frac"] = failed / attempted
    counts = {"setup_s": len(setup_s), "wall_s": len(plain.pass_s), "integral_s_p50": len(pass_integral_s),
              "peak_rss_mb": 1, "failed_frac": attempted}
    counts.update({name: len(v) for name, v in plain.samples.items()})
    metrics_units = per_layer_units() if trace else END_TO_END_UNITS
    values = layer if trace else e2e
    return {
        "workload": workload,
        "env": environment(seed, workers, seconds),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": plain.failures + traced.failures,
        "passes": {"untraced": len(plain.pass_s), "traced": len(traced.pass_s)},
        "raw": {"setup_s": setup_s, "pass_s": plain.pass_s,
                "traced_pass_s": traced.pass_s, "integral_s": pass_integral_s, "setup_integral_s": setup_integral_s,
                "integral_call_s": timer.integral_s, "samples": dict(plain.samples), "op_s": dict(plain.op_s)},
        "end_to_end": e2e,
        "report_only": report_only,
        "sample_counts": counts,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics_units.items()},
    }


def traced_passes(ops, seconds, plain, traced, out_dir, workload, seed) -> dict:
    """Run the op list with every public function wrapped; return per-layer metrics."""
    import harness

    tracer = tracing.Tracer()
    snapshots = []

    def snapshot():
        snapshots.append(dict(tracer.computed))

    with tracer:
        harness.run_passes(ops, tracer, seconds, traced, first_op_id=plain.attempted,
                           on_pass=snapshot)
    passes = len(traced.pass_s)
    self_s, calls = tracer.layer_totals()
    per_pass = []  # computed counts of each pass: they repeat exactly
    prev = {}
    for snap in snapshots:
        per_pass.append({k: snap.get(k, 0) - prev.get(k, 0) for k in set(snap) | set(prev)})
        prev = snap

    def pass_count(name):
        vals = sorted(p.get(name, 0) for p in per_pass)
        return vals[(len(vals) - 1) // 2]

    metrics = {}
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / passes
    for layer in LAYER_CALLS:
        total = sum(v for k, v in calls.items() if k == layer or k.startswith(layer + "."))
        metrics[f"{layer}.calls"] = total // passes
    for name in COMPUTED + MEASURED_COUNTS:
        metrics[name] = int(pass_count(name))
    for name in MAXIMA:
        metrics[name] = int(tracer.maxima.get(name, 0))
    metrics["trace.remainder_s"] = (sum(traced.pass_s) - sum(self_s.values())) / passes
    metrics["trace.overhead_s"] = median(traced.pass_s) - median(plain.pass_s)
    metrics["trace.spans"] = len(tracer.spans) // passes
    tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return metrics


def print_report(res: dict) -> None:
    env = res["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {res['workload']}: {res['attempted']} ops attempted, {res['failed']} failed, "
          f"passes untraced={res['passes']['untraced']} traced={res['passes']['traced']}")
    n = res["sample_counts"]
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:22s} {res['end_to_end'][name]:.6g} {unit} (n={n[name]})")
    for name, value in res["report_only"].items():
        print(f"  {name:22s} {value:.6g} {REPORT_ONLY_UNITS[name]} (n={n[name]})")
    if "trace.spans" in res["metrics"]:
        for name, m in res["metrics"].items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"  {name:38s} {value} {m['unit']}")
    for fail in res["failures"][:20]:
        print(f"  FAILED {fail['op']} (pass {fail['pass']}): {'; '.join(fail['failures'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["exact_k4", "mc_bridge", "verify_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vertexflow").is_dir():
        print(f"error: no vertexflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1, default=str) + "\n")
    print_report(res)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
