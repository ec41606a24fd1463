"""Command-line entry point: sampling, moments, verification, kappa, polymer.

Configs and queries are JSON documents validated against the one schema shipped
in the package (src/vertexflow/schemas/) before any computation; a field that
the model or theorem never reads (``SAMPLE_FIELDS``, ``MOMENT_FIELDS``) is an
error too.  Every configuration error exits with code 2 and a JSON pointer: the
offending field (also for errors the library raises with a ``field``, such as a
node count that a contour family's resolution rule rejects), ``/params`` for
parameters a model rejects or no contour family fits, ``/`` otherwise.  A bad
flag of ``kappa`` or ``polymer`` is reported at ``/`` + the flag name.  Numeric
output uses 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import lattice, qmoments, sampler, verify
from .errors import (ContourError, ParameterRangeError, ParameterSingularityError,
                     SingularEvaluationError, ValidationError, VertexflowError)
from .hecke import Permutation, kappa

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_json(path: str, schema_name: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"/: cannot read {path}: {exc}") from exc
    _validate_schema(doc, schema_name)
    return doc


class ConfigError(Exception):
    pass


@functools.cache
def _validator(schema_name: str):
    """The validator of ``$defs/<schema_name>`` of the shipped schema, built once per process."""
    import jsonschema

    with open(SCHEMA_DIR / "vertexflow.schema.json") as fh:
        defs = json.load(fh)["$defs"]
    return jsonschema.Draft202012Validator({"$defs": defs, "$ref": f"#/$defs/{schema_name}"})


def _validate_schema(doc, schema_name: str) -> None:
    """Validate ``doc`` against ``$defs/<schema_name>`` of the shipped schema."""
    errors = sorted(_validator(schema_name).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"{pointer}: {err.message}")


def _semantic(doc, pointer: str, builder):
    """``builder`` applied to the field at ``pointer``; its errors are reported there."""
    from .errors import NonMonotoneColoringError, PathMismatchError, PathOrderError

    value = _field(doc, pointer)
    try:
        return builder(value)
    except NonMonotoneColoringError as exc:
        raise ConfigError(f"{pointer}/coloring: {exc}") from exc
    except (PathMismatchError, PathOrderError) as exc:
        raise ConfigError(f"{pointer}/q_steps: {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(f"{_at(exc, pointer)}: {exc}") from exc
    except KeyError as exc:  # the builders index only the field's own keys
        raise ConfigError(f"{pointer}/{exc.args[0]}: required field is missing") from exc
    except TypeError as exc:
        raise ConfigError(f"{pointer}: {exc}") from exc


def _at(exc: VertexflowError, default: str) -> str:
    """The JSON pointer of a library error: the field it names, else ``default``."""
    return f"/{exc.field}" if exc.field else default


def _field(doc, pointer: str):
    """The value at a JSON pointer such as ``/params/s``; a missing one is a ConfigError."""
    node = doc
    for key in pointer.split("/")[1:]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"{pointer}: required field is missing")
        node = node[key]
    return node


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _workers(args) -> int:
    raw = args.workers if args.workers is not None else os.environ.get("VERTEXFLOW_WORKERS") or 1
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ConfigError(f"/workers: --workers or VERTEXFLOW_WORKERS must be a positive "
                      f"integer, got {raw!r}")


# ---------------------------------------------------------------------------
# the fields each model and theorem reads
# ---------------------------------------------------------------------------


_SC6V = {"q", "row_rapidities", "col_rapidities"}
_HS = _SC6V | {"col_spins", "boundary_levels"}
_QHAHN = {"q", "s", "z", "boundary_levels"}
_QUERY = {"points", "colors", "pi", "nodes_per_circle", "tolerance"}

# name -> (the top-level fields it reads, the params fields it reads); the keys are
# the --model and --theorem choices
SAMPLE_FIELDS = {
    "sc6v": ({"domain", "params"}, _SC6V),
    "hs": ({"params", "rect"}, _HS),
    "qhahn": ({"params", "rect"}, _QHAHN),
    "beta": ({"params", "keep_points"}, {"sigma", "rho", "t_max", "delays"}),
}
MOMENT_FIELDS = {
    "6.1": (_QUERY | {"domain", "params"}, _SC6V),
    "8.1": (_QUERY | {"params"}, _HS),
    "8.4": (_QUERY | {"params"}, _HS),
    "8.5": (_QUERY | {"params"}, _QHAHN),
    "9.2": (_QUERY | {"params"}, {"sigma", "rho"}),
}


def _unread_fields(doc, entry, reader: str) -> None:
    """Reject, at its pointer, the first field in ``doc`` that ``entry`` (a field table
    entry) does not name: "``reader`` does not read this field"."""
    fields, params = entry
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"/{key}: {reader} does not read this field")
        for name in value if key == "params" else ():
            if name not in params:
                raise ConfigError(f"/params/{name}: {reader} does not read this field")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    cfg = _load_json(args.config, "sample_config")
    model = args.model
    count = args.samples
    if count < 1:
        raise ConfigError(f"/samples: --samples must be a positive integer, got {count}")
    _unread_fields(cfg, SAMPLE_FIELDS[model], f"the {model} model")
    seed = args.seed
    workers = _workers(args)
    if model == "sc6v":
        domain = _semantic(cfg, "/domain", lattice.domain_from_json)
        params = _semantic(cfg, "/params", lattice.params_from_json)
        batch = sampler.sample_sc6v(domain, params, seed, count, workers)
    elif model == "hs":
        params = _semantic(cfg, "/params", lattice.params_from_json)
        rect = _semantic(cfg, "/rect", lambda r: (int(r[0]), int(r[1])))
        batch = sampler.sample_higher_spin(params, rect, seed, count, workers)
    elif model == "qhahn":
        q, s, z, levels = (_field(cfg, f"/params/{key}")
                           for key in ("q", "s", "z", "boundary_levels"))
        rect = _semantic(cfg, "/rect", lambda r: (int(r[0]), int(r[1])))
        batch = sampler.sample_qhahn(q, s, z, rect, tuple(levels), seed, count, workers)
    else:  # beta; argparse rejects any other model
        sigma, rho, t_max, delays = (_field(cfg, f"/params/{key}")
                                     for key in ("sigma", "rho", "t_max", "delays"))
        keep = [tuple(pt) for pt in cfg.get("keep_points", [])] or None
        batch = sampler.simulate_beta_polymer(sigma, rho, t_max, delays, seed, count,
                                              keep, workers)
    if model == "beta":
        lines = [json.dumps({f"{k}:{m}:{t}": _fmt(batch.values[(k, m, t)][i])
                             for (k, m, t) in sorted(batch.values)}, sort_keys=True)
                 for i in range(count)]
    else:
        lines = [lattice.dumps(lattice.config_to_json(batch.config(i))) for i in range(count)]
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"sample: wrote {count} {model} configurations to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def _query_from_json(doc) -> qmoments.MomentQuery:
    pi = _semantic(doc, "/pi", lambda p: Permutation(tuple(p))) if "pi" in doc else None
    return _semantic(doc, "/points", lambda points: qmoments.MomentQuery(
        [tuple(p) for p in points], list(_field(doc, "/colors")), pi))


def _convergence(res: qmoments.MomentResult) -> str:
    if res.converged:
        return f"converged at {res.nodes_per_circle} nodes/circle"
    return (f"NOT converged: stopped at the node cap or table budget, "
            f"{res.nodes_per_circle} nodes/circle")


def _result_fields(res: qmoments.MomentResult) -> dict:
    """The fields of a result that ``moment`` and ``polymer`` both write."""
    return {"value_re": res.value.real, "value_im": res.value.imag,
            "error_estimate": res.error_estimate, "converged": res.converged}


def _cmd_moment(args) -> int:
    doc = _load_json(args.query, "moment_query")
    theorem = args.theorem
    _unread_fields(doc, MOMENT_FIELDS[theorem], f"theorem {theorem}")
    nodes = doc.get("nodes_per_circle")
    tol = doc.get("tolerance", qmoments.DEFAULT_TOL)
    query = _query_from_json(doc)
    if theorem == "6.1":
        domain = _semantic(doc, "/domain", lattice.domain_from_json)
        params = _semantic(doc, "/params", lattice.params_from_json)
        res = qmoments.qmoment_skew(domain, params, query, nodes, tol)
    elif theorem == "8.1":
        params = _semantic(doc, "/params", lattice.params_from_json)
        res = qmoments.qmoment_higher_spin(params, query, nodes, tol)
    elif theorem == "8.4":
        params = _semantic(doc, "/params", lattice.params_from_json)
        res = qmoments.shifted_observable(params, query.points, query.colors, query.pi,
                                          exact=True, nodes_per_circle=nodes, tol=tol)
    elif theorem == "8.5":
        q, s, z, levels = (_field(doc, f"/params/{key}")
                           for key in ("q", "s", "z", "boundary_levels"))
        res = qmoments.qmoment_qhahn(q, s, z, tuple(levels), query, nodes, tol)
    else:  # 9.2; argparse rejects any other theorem
        sigma, rho = (_field(doc, f"/params/{key}") for key in ("sigma", "rho"))
        res = qmoments.beta_moment(sigma, rho, [tuple(pt) for pt in doc["points"]],
                                   list(doc["colors"]), query.pi, nodes, tol)
    _write_json(args.out, {"theorem": theorem, "nodes_per_circle": res.nodes_per_circle,
                           **_result_fields(res)})
    print(f"moment[{theorem}]: value = {_fmt(res.value.real)} + {_fmt(res.value.imag)}j "
          f"(est {_fmt(res.error_estimate)}, {_convergence(res)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [r for name in names for r in verify.SUITES[name](seed=args.seed)]
    if args.out:
        _write_json(args.out, {"suite": args.suite, "seed": args.seed,
                               "checks": [dataclasses.asdict(r) for r in reports]})
    n_fail = sum(1 for r in reports if not r.passed)
    for r in reports:
        print(f"{r.status.upper():4s} {r.name}: max|err| = {_fmt(r.max_abs_error)} "
              f"({r.samples_or_cases} cases)")
    print(f"verify[{args.suite}]: {len(reports) - n_fail}/{len(reports)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# kappa / polymer
# ---------------------------------------------------------------------------


def _flag(pointer: str, parse, raw):
    """``parse(raw)`` for a command-line flag; a malformed value is reported at ``pointer``."""
    try:
        return parse(raw)
    except (ValueError, TypeError, ValidationError) as exc:
        raise ConfigError(f"{pointer}: {exc}") from exc


def _permutation_flag(raw: str) -> Permutation:
    return Permutation(tuple(int(t) for t in raw.split(",")))


def _complex_list_flag(raw: str) -> list:
    """A JSON list of reals or [re, im] pairs, as complex numbers."""
    values = json.loads(raw)
    if not isinstance(values, list):
        raise ValueError("expected a JSON list of [re, im] pairs or reals")
    out = []
    for t in values:
        if isinstance(t, list) and len(t) != 2:
            raise ValueError(f"expected an [re, im] pair, got {t}")
        out.append(complex(*t) if isinstance(t, list) else complex(t))
    return out


def _cmd_kappa(args) -> int:
    pi = _flag("/pi", _permutation_flag, args.pi)
    rho = _flag("/rho", _permutation_flag, args.rho)
    w = _flag("/w", _complex_list_flag, args.w)
    try:  # a rank mismatch is a ValidationError at /rho or /w
        val = complex(kappa(pi, rho, w, q=args.q))
    except SingularEvaluationError as exc:
        raise ConfigError(f"/w: {exc}") from exc
    print(f"{_fmt(val.real)} {'+' if val.imag >= 0 else '-'} {_fmt(abs(val.imag))}j")
    return EXIT_OK


def _polymer_flags(args) -> None:
    """Reject flags outside sigma > rho > 0 (both finite), t >= 1, 0 <= delay < t,
    1 <= m <= t - delay at the flag at fault."""
    if not (math.isfinite(args.rho) and args.rho > 0):
        raise ConfigError(f"/rho: need finite rho > 0, got {args.rho}")
    if not math.isfinite(args.sigma):
        raise ConfigError(f"/sigma: need finite sigma, got {args.sigma}")
    if not args.sigma > args.rho:
        raise ConfigError(f"/sigma: need sigma > rho, got sigma = {args.sigma}, rho = {args.rho}")
    if args.t < 1:
        raise ConfigError(f"/t: need t >= 1, got {args.t}")
    if not 0 <= args.delay < args.t:
        raise ConfigError(f"/delay: need 0 <= delay < t, got delay = {args.delay}, t = {args.t}")
    if not 1 <= args.m <= args.t - args.delay:
        raise ConfigError(f"/m: need 1 <= m <= t - delay, got m = {args.m}, t = {args.t}, "
                          f"delay = {args.delay}")


def _cmd_polymer(args) -> int:
    _polymer_flags(args)
    res = qmoments.beta_moment(args.sigma, args.rho, [(args.m, args.t)], [args.delay])
    out = _result_fields(res)
    if args.m == 1:  # E[Z_(c)^(1,t)] = mu^(t-1-c), mu = (sigma - rho)/sigma
        out["analytic"] = ((args.sigma - args.rho) / args.sigma) ** (args.t - 1 - args.delay)
    if args.out:
        _write_json(args.out, out)
    print(f"polymer: E[Z_({args.delay})^({args.m},{args.t})] = {_fmt(res.value.real)} "
          f"(est {_fmt(res.error_estimate)}, {_convergence(res)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vertexflow",
                                description="stochastic colored vertex models")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw Monte Carlo samples")
    sp.add_argument("--model", required=True, choices=list(SAMPLE_FIELDS))
    sp.add_argument("--config", required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sample)

    mp = sub.add_parser("moment", help="evaluate an exact q-moment integral")
    mp.add_argument("--theorem", required=True, choices=list(MOMENT_FIELDS))
    mp.add_argument("--query", required=True)
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=_cmd_moment)

    vp = sub.add_parser("verify", help="run identity/consistency suites")
    vp.add_argument("--suite", required=True, choices=[*verify.SUITES, "all"])
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=_cmd_verify)

    kp = sub.add_parser("kappa", help="evaluate a kappa coefficient")
    kp.add_argument("--pi", required=True)
    kp.add_argument("--rho", required=True)
    kp.add_argument("--w", required=True, help="JSON list of [re, im] pairs or reals")
    kp.add_argument("--q", type=float, default=0.5)
    kp.set_defaults(func=_cmd_kappa)

    pp = sub.add_parser("polymer", help="Beta polymer moment")
    pp.add_argument("--sigma", type=float, required=True)
    pp.add_argument("--rho", type=float, required=True)
    pp.add_argument("--m", type=int, required=True)
    pp.add_argument("--t", type=int, required=True)
    pp.add_argument("--delay", type=int, default=0)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_polymer)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error at {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VertexflowError as exc:
        at = "/params" if isinstance(exc, (ParameterRangeError, ParameterSingularityError,
                                          ContourError)) else "/"
        print(f"configuration error at {_at(exc, at)}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
