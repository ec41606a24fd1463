"""CLI contract: subcommands, exit codes, JSON-pointer errors, round trips."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vertexflow
from vertexflow.cli import run
from vertexflow.hecke import Permutation, kappa

DOMAIN = {"start": [2.5, 0.5], "q_steps": "HHVV", "p_steps": "VVHH",
          "coloring": [0, 1, 1, 2]}
PARAMS = {"q": 0.3, "row_rapidities": [1.9, 2.2], "col_rapidities": [1.0, 1.12]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_sample_deterministic_jsonl(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": PARAMS})
    out1 = tmp_path / "b1.jsonl"
    out2 = tmp_path / "b2.jsonl"
    assert run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "20",
                "--seed", "3", "--out", str(out1)]) == 0
    assert run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "20",
                "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 20
    doc = json.loads(lines[0])
    assert set(doc) == {"h_edges", "v_edges", "n_rows", "m_cols", "n_colors"}


def test_moment_result_fields(tmp_path):
    query = write(tmp_path, "q.json", {
        "points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1],
        "nodes_per_circle": 64, "domain": DOMAIN, "params": PARAMS,
    })
    out = tmp_path / "res.json"
    assert run(["moment", "--theorem", "6.1", "--query", query, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {"value_re", "value_im", "error_estimate", "nodes_per_circle", "theorem"} <= set(doc)
    assert doc["error_estimate"] < 1e-9
    # reference value from the enumeration oracle
    from vertexflow.lattice import ModelParams, rectangle_domain
    from vertexflow.sampler import enumerate_sc6v

    params = ModelParams(q=0.3, row_rapidities=(1.9, 2.2), col_rapidities=(1.0, 1.12))
    ens = enumerate_sc6v(rectangle_domain(2, 2, (0, 1, 1, 2)), params)
    want = ens.moment([(1.5, 2.5), (2.5, 1.5)], Permutation((2, 1)).act([0, 1]), 0.3)
    assert abs(doc["value_re"] - want.real) < 1e-8


def test_moment_writes_json_only(tmp_path, capsys):
    # the result goes to --out; there is no CSV writer
    query = write(tmp_path, "q.json", {"points": [[1.5, 2.5]], "colors": [0],
                                       "domain": DOMAIN, "params": PARAMS})
    with pytest.raises(SystemExit) as info:
        run(["moment", "--theorem", "6.1", "--query", query, "--out", str(tmp_path / "r.json"),
             "--csv", str(tmp_path / "r.csv")])
    assert info.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_moment_beta_theorem(tmp_path):
    query = write(tmp_path, "q.json", {
        "points": [[1, 3]], "colors": [0],
        "nodes_per_circle": 64, "params": {"sigma": 6.0, "rho": 1.5},
    })
    out = tmp_path / "res.json"
    assert run(["moment", "--theorem", "9.2", "--query", query, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value_re"] - (4.5 / 6.0) ** 2) < 1e-8


def test_malformed_config_exits_2_with_pointer(tmp_path, capsys):
    bad = dict(DOMAIN)
    bad["coloring"] = [2, 1, 1, 2]
    cfg = write(tmp_path, "bad.json", {"domain": bad, "params": PARAMS})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "/domain/coloring" in capsys.readouterr().err


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {"params": {"q": 2.0}})
    code = run(["sample", "--model", "hs", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "/params/q" in capsys.readouterr().err


HS_PARAMS = {"q": 0.5, "row_rapidities": [5.0, 6.0], "col_rapidities": [1.0, 1.1],
             "col_spins": [4.0, 4.0], "boundary_levels": [1, 2]}


@pytest.mark.parametrize("field", ["row_rapidities", "col_rapidities", "col_spins"])
def test_sample_hs_short_list_exits_2_at_its_field(tmp_path, capsys, field):
    params = dict(HS_PARAMS, **{field: HS_PARAMS[field][:1]})
    cfg = write(tmp_path, "cfg.json", {"params": params, "rect": [2, 2]})
    code = run(["sample", "--model", "hs", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert f"at /params/{field}:" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--suite", "identities", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(c["status"] == "pass" for c in doc["checks"])


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "ising", "--config", "cfg.json", "--out", "x.jsonl"],
    ["moment", "--theorem", "7.7", "--query", "q.json", "--out", "x.json"],
    ["verify", "--suite", "nothing"],
])
def test_unknown_choice_exits_2(argv, capsys):
    # argparse rejects the value before any command runs or reads a file
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_kappa_golden_value(capsys):
    code = run(["kappa", "--pi", "2,3,1", "--rho", "1,3,2",
                "--w", "[[0.3,0.1],[1.2,-0.4],[0.7,0.9]]", "--q", "0.42"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    w = [0.3 + 0.1j, 1.2 - 0.4j, 0.7 + 0.9j]
    want = kappa(Permutation((2, 3, 1)), Permutation((1, 3, 2)), w, q=0.42)
    got = complex(*(float(t) for t in printed.replace("j", "").replace(" + ", " ").replace(" - ", " -").split()))
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("flags, pointer", [
    (["--pi", "2,1", "--rho", "1,2", "--w", "[1]"], "/w"),  # was an IndexError traceback
    (["--pi", "2,1", "--rho", "1,2,3", "--w", "[1, 2]"], "/rho"),  # was 0 + 0j
    (["--pi", "2,1", "--rho", "1,2", "--w", "[1, 2, 3]"], "/w"),  # was accepted
    (["--pi", "2,x", "--rho", "1,2", "--w", "[1, 2]"], "/pi"),
    (["--pi", "2,1", "--rho", "1,1", "--w", "[1, 2]"], "/rho"),
    (["--pi", "2,1", "--rho", "1,2", "--w", "[1, 2"], "/w"),
    (["--pi", "2,1", "--rho", "1,2", "--w", "[[1], 2]"], "/w"),
    (["--pi", "2,1", "--rho", "1,2", "--w", "[1.5, 1.5]"], "/w"),  # coincident
])
def test_kappa_flag_error_exits_2_at_its_flag(capsys, flags, pointer):
    assert run(["kappa", *flags]) == 2
    assert f"at {pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, pointer", [
    (["--sigma", "6", "--rho", "1.5", "--m", "5", "--t", "3"], "/m"),
    (["--sigma", "6", "--rho", "1.5", "--m", "0", "--t", "3"], "/m"),
    (["--sigma", "6", "--rho", "1.5", "--m", "1", "--t", "3", "--delay", "5"], "/delay"),
    (["--sigma", "6", "--rho", "1.5", "--m", "1", "--t", "0"], "/t"),
    (["--sigma", "1", "--rho", "1.5", "--m", "1", "--t", "3"], "/sigma"),
    (["--sigma", "6", "--rho", "-1", "--m", "1", "--t", "3"], "/rho"),
    (["--sigma", "inf", "--rho", "1.5", "--m", "1", "--t", "3"], "/sigma"),  # was /params
    (["--sigma", "6", "--rho", "inf", "--m", "1", "--t", "3"], "/rho"),  # was /sigma
])
def test_polymer_flag_error_exits_2_at_its_flag(capsys, flags, pointer):
    assert run(["polymer", *flags]) == 2
    assert f"at {pointer}:" in capsys.readouterr().err


def test_polymer_subcommand(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run(["polymer", "--sigma", "6.0", "--rho", "1.5", "--m", "1", "--t", "4",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value_re"] - doc["analytic"]) < 1e-8


def test_polymer_analytic_with_delay(tmp_path):
    # E[Z_(1)^(1,4)] = mu^(t - 1 - delay) = 0.75^2, not mu^(t - 1)
    from vertexflow.sampler import beta_first_moment

    out = tmp_path / "p.json"
    assert run(["polymer", "--sigma", "6", "--rho", "1.5", "--m", "1", "--t", "4",
                "--delay", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["analytic"] - beta_first_moment(6.0, 1.5, 1, 1, 4)) < 1e-15
    assert abs(doc["value_re"] - doc["analytic"]) < 1e-10


def test_verify_all_suites_pass(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--suite", "all", "--seed", "1", "--out", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert len(names) == 20
    assert {"shift_invariance_exact", "moment_vs_enumeration_pi(2, 1)"} <= set(names)


def test_sample_beta_writes_the_simulated_values(tmp_path):
    from vertexflow.sampler import simulate_beta_polymer

    cfg = write(tmp_path, "cfg.json", {"params": {"sigma": 6.0, "rho": 1.5, "t_max": 4,
                                                  "delays": [0, 1]}})
    out = tmp_path / "z.jsonl"
    assert run(["sample", "--model", "beta", "--config", cfg, "--samples", "5",
                "--seed", "2", "--out", str(out)]) == 0
    batch = simulate_beta_polymer(6.0, 1.5, 4, [0, 1], 2, 5)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5
    for i, doc in enumerate(lines):
        assert set(doc) == {f"{d}:{m}:{t}" for d, m, t in batch.values}
        for (d, m, t), values in batch.values.items():
            assert float(doc[f"{d}:{m}:{t}"]) == values[i]


def test_moment_hs_pole_separation_exits_2_at_params(tmp_path, capsys):
    # row 2 = q * row 1 and the query reads rows 1-3
    params = dict(HS_PARAMS, row_rapidities=[5.0, 2.5, 7.0], col_rapidities=[1.0, 1.1, 1.2],
                  col_spins=[4.0, 4.0, 4.0], boundary_levels=[1, 2, 3])
    query = write(tmp_path, "q.json", {"points": [[1.5, 3.5]], "colors": [0], "params": params})
    code = run(["moment", "--theorem", "8.1", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /params: pole separation fails" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    from vertexflow import lattice

    dom = lattice.domain_from_json(DOMAIN)
    assert lattice.domain_to_json(dom) == DOMAIN
    par = lattice.params_from_json(PARAMS)
    back = lattice.params_to_json(par)
    assert back["q"] == PARAMS["q"]
    assert back["row_rapidities"] == PARAMS["row_rapidities"]


def test_console_entry_point():
    # the subprocess imports the package this test imported, installed or not
    src = str(Path(vertexflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "vertexflow.cli"],
                         capture_output=True, text=True, env=env)
    # argparse exits 2 on missing subcommand; message mentions usage
    assert res.returncode == 2


if __name__ == "__main__":
    pytest.main([__file__, "-q"])


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("VERTEXFLOW_WORKERS", "2")
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": PARAMS})
    out = tmp_path / "b.jsonl"
    assert run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "10",
                "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 10


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sample_count_not_positive_exits_2_at_samples(tmp_path, capsys, samples):
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": PARAMS})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", samples,
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "at /samples:" in capsys.readouterr().err


def test_workers_env_not_an_integer_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VERTEXFLOW_WORKERS", "abc")
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": PARAMS})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "/workers" in capsys.readouterr().err


def test_sample_qhahn_missing_param_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"params": {"q": 0.4, "z": 0.7, "boundary_levels": [1, 2]},
                                       "rect": [2, 2]})
    code = run(["sample", "--model", "qhahn", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "/params/s" in capsys.readouterr().err


def test_sample_beta_missing_param_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"params": {"rho": 1.5, "t_max": 4, "delays": [0]}})
    code = run(["sample", "--model", "beta", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "/params/sigma" in capsys.readouterr().err


def test_moment_qhahn_missing_param_exits_2(tmp_path, capsys):
    query = write(tmp_path, "q.json", {
        "points": [[1.5, 0.5]], "colors": [0],
        "params": {"q": 0.4, "s": 0.4, "boundary_levels": [1, 2]},
    })
    code = run(["moment", "--theorem", "8.5", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "/params/z" in capsys.readouterr().err


def test_moment_beta_missing_param_exits_2(tmp_path, capsys):
    query = write(tmp_path, "q.json", {"points": [[1, 3]], "colors": [0],
                                       "params": {"sigma": 6.0}})
    code = run(["moment", "--theorem", "9.2", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "/params/rho" in capsys.readouterr().err


def test_moment_reports_convergence(tmp_path, capsys):
    query = write(tmp_path, "q.json", {
        "points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1],
        "nodes_per_circle": 64, "domain": DOMAIN, "params": PARAMS,
    })
    out = tmp_path / "res.json"
    assert run(["moment", "--theorem", "6.1", "--query", query, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True and doc["error_estimate"] < 1e-10
    assert "converged at 64 nodes/circle" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["row_rapidities", "col_rapidities"])
def test_sample_sc6v_short_list_exits_2_at_its_field(tmp_path, capsys, field):
    # the 2x2 domain needs two of each; the sampler read past the end of a shorter list
    params = dict(PARAMS, **{field: PARAMS[field][:1]})
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": params})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert f"at /params/{field}:" in capsys.readouterr().err


QHAHN_PARAMS = {"q": 0.4, "s": 0.4, "z": 0.7, "boundary_levels": [1, 2]}


@pytest.mark.parametrize("model, params, field", [
    ("qhahn", dict(QHAHN_PARAMS, boundary_levels=[2, 1]), "boundary_levels"),
    ("hs", dict(HS_PARAMS, boundary_levels=[2, 1]), "boundary_levels"),
    ("hs", dict(HS_PARAMS, col_spins=[4.0, 0.0]), "col_spins"),
])
def test_sample_model_params_error_exits_2_at_its_field(tmp_path, capsys, model, params, field):
    cfg = write(tmp_path, "cfg.json", {"params": params, "rect": [2, 2]})
    code = run(["sample", "--model", model, "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert f"at /params/{field}:" in capsys.readouterr().err


BETA_PARAMS = {"sigma": 6.0, "rho": 1.5, "t_max": 3, "delays": [0]}


@pytest.mark.parametrize("model, doc, pointer", [
    ("hs", {"params": HS_PARAMS, "rect": [2, 2], "domain": DOMAIN}, "/domain"),
    ("hs", {"params": HS_PARAMS, "rect": [2, 2], "keep_points": [[0, 1, 2]]}, "/keep_points"),
    ("hs", {"params": dict(HS_PARAMS, sigma=6.0), "rect": [2, 2]}, "/params/sigma"),
    ("sc6v", {"domain": DOMAIN, "params": PARAMS, "rect": [2, 2]}, "/rect"),
    ("sc6v", {"domain": DOMAIN, "params": dict(PARAMS, col_spins=[4.0, 4.0])}, "/params/col_spins"),
    ("qhahn", {"params": dict(QHAHN_PARAMS, col_rapidities=[1.0]), "rect": [2, 2]},
     "/params/col_rapidities"),
    ("beta", {"params": dict(BETA_PARAMS, q=0.4)}, "/params/q"),
    ("beta", {"params": BETA_PARAMS, "rect": [2, 2]}, "/rect"),
    # two unread fields: the first in the document is reported
    ("hs", {"domain": DOMAIN, "params": dict(HS_PARAMS, sigma=6.0), "rect": [2, 2]}, "/domain"),
    ("hs", {"params": dict(HS_PARAMS, sigma=6.0), "rect": [2, 2], "domain": DOMAIN},
     "/params/sigma"),
    # a field no model reads is reported at its own pointer, not at the root
    ("hs", {"params": HS_PARAMS, "rect": [2, 2], "rects": [2, 2]}, "/rects"),
])
def test_sample_field_the_model_never_reads_exits_2_at_it(tmp_path, capsys, model, doc, pointer):
    # a field the model ignores is a mistake in the config, not something to drop silently
    cfg = write(tmp_path, "cfg.json", doc)
    out = tmp_path / "x.jsonl"
    code = run(["sample", "--model", model, "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(out)])
    assert code == 2
    assert f"at {pointer}: the {model} model does not read this field" in capsys.readouterr().err
    assert not out.exists()


def test_moment_qhahn_string_levels_exits_2(tmp_path, capsys):
    query = write(tmp_path, "q.json", {
        "points": [[1.5, 0.5]], "colors": [0],
        "params": {"q": 0.4, "s": 0.4, "z": 0.7, "boundary_levels": "ab"},
    })
    code = run(["moment", "--theorem", "8.5", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "/params/boundary_levels" in capsys.readouterr().err


def test_sample_qhahn_parameter_range_exits_2_at_params(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"params": {"q": 0.4, "s": 3.0, "z": 0.7,
                                                  "boundary_levels": [1, 2]}, "rect": [2, 2]})
    code = run(["sample", "--model", "qhahn", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "at /params" in capsys.readouterr().err


def test_sample_sc6v_vertex_law_error_exits_2_at_params(tmp_path, capsys):
    params = dict(PARAMS, row_rapidities=[0.5, 0.6])  # z < 1: R leaves [0, 1]
    cfg = write(tmp_path, "cfg.json", {"domain": DOMAIN, "params": params})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "at /params" in err and "vertex" in err


def test_sample_hs_stream_row_error_exits_2_at_params(tmp_path, capsys):
    # sz < 1: the first row that fails is built inside a stream, on a thread
    params = dict(HS_PARAMS, row_rapidities=[1.0, 1.1])
    cfg = write(tmp_path, "cfg.json", {"params": params, "rect": [2, 2]})
    code = run(["sample", "--model", "hs", "--config", cfg, "--samples", "50", "--workers", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "at /params" in err and "vertex" in err


MOMENT_QUERY = {"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "nodes_per_circle": 64,
                "domain": DOMAIN, "params": PARAMS}


@pytest.mark.parametrize("change, pointer", [
    ({"colors": [1, 0]}, "/colors"),
    ({"pi": [2, 1, 3]}, "/pi"),
    ({"pi": [1, 1]}, "/pi"),
    ({"points": [[2.5, 1.5], [2.5, 2.5]]}, "/points"),  # betas increase
    ({"points": [[1.5, 1.5]], "colors": [0]}, "/points"),  # not on P
    ({"nodes_per_circle": 8}, "/nodes_per_circle"),  # too coarse for the contours' margin rule
])
def test_moment_query_error_exits_2_at_its_field(tmp_path, capsys, change, pointer):
    query = write(tmp_path, "q.json", dict(MOMENT_QUERY, **change))
    code = run(["moment", "--theorem", "6.1", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"at {pointer}:" in capsys.readouterr().err


BETA_QUERY = {"points": [[2, 5], [3, 5]], "colors": [0, 1], "params": {"sigma": 6.0, "rho": 1.5}}


@pytest.mark.parametrize("change, pointer", [
    ({"points": [[3, 5], [2, 5]]}, "/points"),  # m decreases
    ({"colors": [0, 4]}, "/colors"),  # 3 + 4 > t = 5: alpha_pi(i) + c_i > beta_pi(i)
    ({"params": {"sigma": 1.0, "rho": 1.5}}, "/params"),  # sigma < rho
    ({"params": {"sigma": 1.6, "rho": 1.5}}, "/params"),  # too close to nest two contours
])
def test_moment_beta_query_error_exits_2_at_its_field(tmp_path, capsys, change, pointer):
    query = write(tmp_path, "q.json", dict(BETA_QUERY, **change))
    code = run(["moment", "--theorem", "9.2", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"at {pointer}:" in capsys.readouterr().err


QHAHN_PARAMS = {"q": 0.4, "s": 0.4, "z": 0.7, "boundary_levels": [1, 2, 3, 4]}


@pytest.mark.parametrize("theorem, doc", [
    ("6.1", dict(MOMENT_QUERY, points=[[2.0, 2.5]], colors=[0])),
    ("8.1", {"points": [[2.0, 2.5]], "colors": [0], "params": HS_PARAMS}),
    ("8.4", {"points": [[2.0, 2.5]], "colors": [1], "params": HS_PARAMS}),
    ("8.5", {"points": [[1.9, 3.5]], "colors": [0], "params": QHAHN_PARAMS}),
    ("9.2", dict(BETA_QUERY, points=[[2.5, 5], [3, 5]])),  # (m, t) pairs are integers
])
def test_moment_malformed_point_exits_2_at_points(tmp_path, capsys, theorem, doc):
    # no theorem may evaluate the query at the point truncated to the lattice
    query = write(tmp_path, "q.json", doc)
    code = run(["moment", "--theorem", theorem, "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /points:" in capsys.readouterr().err


def test_moment_whole_float_color_reads_as_int(tmp_path):
    # JSON Schema's "integer" admits 1.0: it is color 1, not a TypeError traceback
    values = []
    for colors in ([1], [1.0]):
        query = write(tmp_path, "q.json", {"points": [[2.5, 2.5]], "colors": colors,
                                           "params": HS_PARAMS})
        code = run(["moment", "--theorem", "8.1", "--query", query, "--out", str(tmp_path / "r.json")])
        assert code == 0
        values.append(json.loads((tmp_path / "r.json").read_text())["value_re"])
    assert values[0] == values[1]


@pytest.mark.parametrize("theorem, doc", [
    ("8.1", {"points": [[2.5, 2.5]], "colors": [1.5], "params": HS_PARAMS}),
    ("9.2", dict(BETA_QUERY, colors=[0, 0.5])),
])
def test_moment_non_integer_color_exits_2_at_colors(tmp_path, capsys, theorem, doc):
    query = write(tmp_path, "q.json", doc)
    code = run(["moment", "--theorem", theorem, "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /colors" in capsys.readouterr().err


def test_moment_qhahn_unsupported_regime_exits_2_at_points(tmp_path, capsys):
    query = write(tmp_path, "q.json", {"points": [[1.5, 1.5]], "colors": [3],
                                       "params": QHAHN_PARAMS})
    code = run(["moment", "--theorem", "8.5", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /points: the implemented formula requires beta_k > l_{c_k}" in capsys.readouterr().err


@pytest.mark.parametrize("change, pointer", [
    ({"z": 0}, "/params/z"),
    ({"z": 1e-300}, "/params/z"),  # z^2 underflows to 0
    ({"s": 0}, "/params/s"),
])
def test_moment_qhahn_singular_parameter_exits_2_at_its_field(tmp_path, capsys, change, pointer):
    # the 8.5 formula divides by z^2 and by s: a config error, not a ZeroDivisionError
    query = write(tmp_path, "q.json", {"points": [[1.5, 4.5]], "colors": [0],
                                       "params": dict(QHAHN_PARAMS, **change)})
    code = run(["moment", "--theorem", "8.5", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"at {pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"s": 0.7, "z": 0.4}, {"z": 1.2}])
def test_moment_qhahn_outside_its_regime_exits_2_at_params(tmp_path, capsys, change):
    # outside 0 < s^2 < z^2 < 1 the 8.5 integral is no expectation: no value is written
    query = write(tmp_path, "q.json", {"points": [[1.5, 3.5], [2.5, 3.5]], "colors": [0, 1],
                                       "pi": [2, 1], "params": dict(QHAHN_PARAMS, **change)})
    out = tmp_path / "r.json"
    code = run(["moment", "--theorem", "8.5", "--query", query, "--out", str(out)])
    assert code == 2
    assert "at /params: q-Hahn boundary needs 0 < s^2 < z^2 < 1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_beta_delay_past_t_max_exits_2_at_delays(tmp_path, capsys):
    # a delay with nothing to simulate is an error, not a batch of empty rows
    cfg = write(tmp_path, "cfg.json", {"params": {"sigma": 6.0, "rho": 1.5, "t_max": 5,
                                                  "delays": [9]}})
    out = tmp_path / "x.jsonl"
    code = run(["sample", "--model", "beta", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "at /params/delays:" in capsys.readouterr().err
    assert not out.exists()


def test_moment_without_node_count_starts_at_the_family_count(tmp_path):
    # no nodes_per_circle: the loop starts at the least power of two >= 8 that the
    # contour family's margin rule accepts, and still meets the default tolerance
    doc = dict(MOMENT_QUERY, pi=[2, 1])
    del doc["nodes_per_circle"]
    out = tmp_path / "res.json"
    assert run(["moment", "--theorem", "6.1", "--query", write(tmp_path, "q.json", doc),
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["converged"] and res["error_estimate"] < 1e-10
    assert res["nodes_per_circle"] < 256


@pytest.mark.parametrize("theorem", ["8.1", "8.4"])
@pytest.mark.parametrize("field", ["row_rapidities", "col_rapidities", "col_spins"])
def test_moment_hs_short_list_exits_2_at_its_field(tmp_path, capsys, theorem, field):
    query = write(tmp_path, "q.json", {"points": [[2.5, 2.5]], "colors": [1],
                                       "params": dict(HS_PARAMS, **{field: HS_PARAMS[field][:1]})})
    code = run(["moment", "--theorem", theorem, "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"at /params/{field}:" in capsys.readouterr().err


def test_moment_shifted_level_past_rapidities_exits_2(tmp_path, capsys):
    # color 2 enters below row 1: the level factor needs a second row rapidity
    query = write(tmp_path, "q.json", {"points": [[0.5, 0.5]], "colors": [2],
                                       "params": dict(HS_PARAMS, row_rapidities=[5.0])})
    code = run(["moment", "--theorem", "8.4", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /params/row_rapidities:" in capsys.readouterr().err


def test_moment_shifted_base_color_zero_exits_2_at_colors(tmp_path, capsys):
    # shifted observables take base colors >= 1
    query = write(tmp_path, "q.json", {"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1],
                                       "params": HS_PARAMS})
    code = run(["moment", "--theorem", "8.4", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /colors: base colors must be nondecreasing and >= 1" in capsys.readouterr().err


def test_moment_shifted_huge_color_gives_the_value_of_a_small_one(tmp_path):
    # above the last of three boundary levels every color enters at that level, so on
    # these params 1e300 is color 4; the formula reads only the colors present, so the
    # call returns at once
    params = {"q": 0.5, "row_rapidities": [5.0, 6.0, 7.0], "col_rapidities": [1.0, 1.1, 1.2],
              "col_spins": [4.0, 4.0, 4.0], "boundary_levels": [1, 2, 3]}
    doc = {"points": [[1.5, 2.5], [2.5, 1.5]], "pi": [2, 1], "params": params}
    small, huge = tmp_path / "small.json", tmp_path / "huge.json"
    assert run(["moment", "--theorem", "8.4", "--out", str(small),
                "--query", write(tmp_path, "small_q.json", dict(doc, colors=[1, 4]))]) == 0
    src = str(Path(vertexflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "vertexflow.cli", "moment", "--theorem", "8.4",
                          "--query", write(tmp_path, "huge_q.json", dict(doc, colors=[1, 1e300])),
                          "--out", str(huge)], capture_output=True, text=True, env=env, timeout=30)
    assert res.returncode == 0, res.stderr
    assert json.loads(huge.read_text()) == json.loads(small.read_text())


def test_sample_sc6v_missing_domain_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"params": PARAMS})
    code = run(["sample", "--model", "sc6v", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "at /domain: required field is missing" in capsys.readouterr().err


def test_sample_beta_keep_point_outside_exits_2_at_keep_points(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {
        "params": {"sigma": 6.0, "rho": 1.5, "t_max": 3, "delays": [0]},
        "keep_points": [[0, 9, 3]]})
    code = run(["sample", "--model", "beta", "--config", cfg, "--samples", "2",
                "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "at /keep_points:" in capsys.readouterr().err


def test_moment_params_without_q_exits_2_at_params_q(tmp_path, capsys):
    params = {key: v for key, v in PARAMS.items() if key != "q"}
    query = write(tmp_path, "q.json", dict(MOMENT_QUERY, params=params))
    code = run(["moment", "--theorem", "6.1", "--query", query, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "at /params/q: required field is missing" in capsys.readouterr().err


@pytest.mark.parametrize("theorem, doc, pointer", [
    ("6.1", dict(MOMENT_QUERY, params=dict(PARAMS, s=0.5)), "/params/s"),
    ("8.1", {"points": [[1.5, 2.5]], "colors": [0], "params": dict(HS_PARAMS, sigma=6.0)},
     "/params/sigma"),
    ("8.4", {"points": [[1.5, 2.5]], "colors": [1], "params": dict(HS_PARAMS, delays=[0])},
     "/params/delays"),
    ("8.5", {"points": [[1.5, 3.5]], "colors": [0],
             "params": dict(QHAHN_PARAMS, row_rapidities=[1.0])}, "/params/row_rapidities"),
    ("9.2", dict(BETA_QUERY, params={"sigma": 6.0, "rho": 1.5, "q": 0.4}), "/params/q"),
    # only 6.1 reads a domain; with two unread fields the first in the query is reported
    ("8.1", {"points": [[1.5, 2.5]], "colors": [0], "params": HS_PARAMS, "domain": DOMAIN},
     "/domain"),
    ("8.5", {"points": [[1.5, 3.5]], "colors": [0], "domain": DOMAIN,
             "params": dict(QHAHN_PARAMS, row_rapidities=[1.0])}, "/domain"),
    ("9.2", dict(BETA_QUERY, rect=[2, 2]), "/rect"),
    ("9.2", dict(BETA_QUERY, keep_points=[[0, 2, 5]]), "/keep_points"),
    ("9.2", dict(BETA_QUERY, params={"sigma": 6.0, "rho": 1.5, "t_max": 5}), "/params/t_max"),
])
def test_moment_field_the_theorem_never_reads_exits_2_at_it(tmp_path, capsys, theorem, doc,
                                                             pointer):
    # as for sample: a field the formula ignores is a mistake in the query
    query = write(tmp_path, "q.json", doc)
    out = tmp_path / "r.json"
    code = run(["moment", "--theorem", theorem, "--query", query, "--out", str(out)])
    assert code == 2
    assert f"at {pointer}: theorem {theorem} does not read this field" in capsys.readouterr().err
    assert not out.exists()


def test_moment_unknown_domain_key_exits_2_at_domain(tmp_path, capsys):
    # the domain schema is shared with sample, so a key it does not define is an error here too
    params = dict(PARAMS, sigma=1.0, s=0.5)  # fields 6.1 never reads, reported after /domain
    query = write(tmp_path, "q.json", dict(MOMENT_QUERY, domain=dict(DOMAIN, bogus=1),
                                           params=params))
    out = tmp_path / "r.json"
    code = run(["moment", "--theorem", "6.1", "--query", query, "--out", str(out)])
    assert code == 2
    assert "at /domain: Additional properties are not allowed ('bogus' was unexpected)" in \
        capsys.readouterr().err
    assert not out.exists()


FUZZ_VALUES = [0, 1, -1, 1e-300, 1e300, 0.5, 2]
# each model's config and the params fields of it that hold reals; rect, boundary_levels,
# t_max, delays and keep_points stay fixed, so no case can ask for much time or memory
FUZZ_MODELS = {
    "sc6v": ({"domain": DOMAIN, "params": PARAMS}, ["q", "row_rapidities", "col_rapidities"]),
    "hs": ({"params": HS_PARAMS, "rect": [2, 2]},
           ["q", "row_rapidities", "col_rapidities", "col_spins"]),
    "qhahn": ({"params": QHAHN_PARAMS, "rect": [2, 2]}, ["q", "s", "z"]),
    "beta": ({"params": BETA_PARAMS}, ["sigma", "rho"]),
}


def fuzzed_params(model, mixes=40, table=FUZZ_MODELS, command="sample"):
    """``model``'s params in ``table`` with its real slots (scalars and list entries) taken
    from ``FUZZ_VALUES``: each slot alone at each value, every slot at one value, and
    ``mixes`` draws of a generator seeded by ``command`` and ``model``."""
    (doc, fields), rng = table[model], random.Random(f"{command}-fuzz-{model}")
    slots = [(f, i) for f in fields
             for i in (range(len(doc["params"][f])) if isinstance(doc["params"][f], list) else [None])]

    def with_values(values):
        params = json.loads(json.dumps(doc["params"]))
        for (field, i), v in zip(slots, values):
            if i is None:
                params[field] = v
            else:
                params[field][i] = v
        return params

    base = [doc["params"][f] if i is None else doc["params"][f][i] for f, i in slots]
    cases = [with_values(base[:n] + [v] + base[n + 1:])
             for n in range(len(slots)) for v in FUZZ_VALUES]
    cases += [with_values([v] * len(slots)) for v in FUZZ_VALUES]
    cases += [with_values([rng.choice(FUZZ_VALUES) for _ in slots]) for _ in range(mixes)]
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", FUZZ_MODELS)
def test_sample_fuzzed_params_exit_0_or_2_at_a_params_pointer(tmp_path, capsys, model):
    # every real-valued param at 0, +-1, 1e-300, 1e300, 0.5 and 2: the run either samples
    # or is a config error named at /params or below, never a traceback, a numpy warning
    # or the root pointer
    doc, _ = FUZZ_MODELS[model]
    for params in fuzzed_params(model):
        cfg = write(tmp_path, "cfg.json", dict(doc, params=params))
        out = tmp_path / "x.jsonl"
        code = run(["sample", "--model", model, "--config", cfg, "--samples", "3",
                    "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err, (params, err)
        if code == 0:
            assert len(out.read_text().splitlines()) == 3, params
        else:
            assert code == 2 and "configuration error at /params" in err, (params, code, err)
        out.unlink(missing_ok=True)


FUZZ_HS = {"q": 0.5, "row_rapidities": [5.0, 6.0, 7.0], "col_rapidities": [1.0, 1.1, 1.2],
           "col_spins": [4.0, 4.0, 4.0], "boundary_levels": [1, 2, 3]}
# each theorem's query, the CLI step's shape at its default start count, and the params
# fields of it that hold reals
FUZZ_THEOREMS = {
    "6.1": ({"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1], "domain": DOMAIN,
             "params": PARAMS}, ["q", "row_rapidities", "col_rapidities"]),
    "8.1": ({"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [0, 1], "pi": [2, 1], "params": FUZZ_HS},
            ["q", "row_rapidities", "col_rapidities", "col_spins"]),
    "8.4": ({"points": [[1.5, 2.5], [2.5, 1.5]], "colors": [1, 2], "pi": [2, 1], "params": FUZZ_HS},
            ["q", "row_rapidities", "col_rapidities", "col_spins"]),
    "8.5": ({"points": [[1.5, 3.5], [2.5, 3.5]], "colors": [0, 1], "pi": [2, 1],
             "params": QHAHN_PARAMS}, ["q", "s", "z"]),
    "9.2": (dict(BETA_QUERY, pi=[2, 1]), ["sigma", "rho"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theorem", FUZZ_THEOREMS)
def test_moment_fuzzed_params_exit_0_or_2_at_a_params_pointer(tmp_path, capsys, theorem):
    # the moment twin of the sample fuzz: the run either writes its result or is a config
    # error named at /params or below, never a traceback, a numpy warning or the root pointer
    doc, _ = FUZZ_THEOREMS[theorem]
    for params in fuzzed_params(theorem, table=FUZZ_THEOREMS, command="moment"):
        query = write(tmp_path, "q.json", dict(doc, params=params))
        out = tmp_path / "r.json"
        code = run(["moment", "--theorem", theorem, "--query", query, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err, (params, err)
        if code == 0:
            assert json.loads(out.read_text())["theorem"] == theorem, params
        else:
            assert code == 2 and "configuration error at /params" in err, (params, code, err)
        out.unlink(missing_ok=True)
