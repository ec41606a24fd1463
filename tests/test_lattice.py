"""Domains, configurations, height functions, color merging, serialization."""

import pytest

from vertexflow.errors import (
    NonMonotoneColoringError,
    PathMismatchError,
    PathOrderError,
    ValidationError,
)
from vertexflow.lattice import (
    Configuration,
    ModelParams,
    SkewDomain,
    UpLeftPath,
    check_pole_separation,
    config_from_json,
    config_to_json,
    domain_from_json,
    domain_to_json,
    height,
    merge_colors,
    params_from_json,
    params_to_json,
    rectangle_domain,
)
from vertexflow.sampler import sample_sc6v


def figure_domain():
    """The paper's staircase skew domain with coloring (1,2,2,3,4,5,5,5)."""
    q_path = UpLeftPath.from_floats((4.5, 0.5), "HVHHVHVV")
    p_path = UpLeftPath.from_floats((4.5, 0.5), "VVVHVHHH")
    return SkewDomain(q_path, p_path, (1, 2, 2, 3, 4, 5, 5, 5))


def figure_config():
    dom = figure_domain()
    h_edges = {(3, 1): 2, (4, 1): 2, (1, 2): 4, (2, 2): 4, (3, 2): 4, (4, 2): 1,
               (0, 3): 5, (1, 3): 5, (2, 3): 5, (3, 3): 5, (4, 3): 5,
               (0, 4): 5, (1, 4): 5, (2, 4): 3, (3, 4): 3}
    v_edges = {(4, 0): 1, (4, 1): 1, (4, 2): 4, (4, 3): 4,
               (3, 1): 2, (3, 2): 2, (3, 3): 2, (3, 4): 2,
               (2, 1): 3, (2, 2): 3, (2, 3): 3, (2, 4): 5,
               (1, 2): 5, (1, 3): 5, (1, 4): 5}
    for x in range(5):
        for y in range(5):
            h_edges.setdefault((x, y), 0)
            v_edges.setdefault((x, y), 0)
    return Configuration(h_edges, v_edges, dom, 5)


def test_domain_validation_errors():
    start = (5, 1)
    q = UpLeftPath(start, "HHVV")
    with pytest.raises(PathMismatchError):
        SkewDomain(q, UpLeftPath(start, "HHV"), (1, 1, 1))
    with pytest.raises(PathMismatchError):
        SkewDomain(q, UpLeftPath((7, 1), "HHHV" + "V"), (1, 1, 1, 1))
    with pytest.raises(PathOrderError):
        SkewDomain(UpLeftPath(start, "VVHH"), UpLeftPath(start, "HHVV"), (1, 1, 2, 2))
    with pytest.raises(NonMonotoneColoringError):
        SkewDomain(q, UpLeftPath(start, "VVHH"), (2, 1, 2, 2))


def test_degenerate_domain_has_no_vertices():
    start = (5, 1)
    path = UpLeftPath(start, "HVHV")
    dom = SkewDomain(path, path, (0, 1, 1, 3))
    assert dom.vertices() == []


def test_figure_domain_vertex_count():
    dom = figure_domain()
    verts = dom.vertices()
    assert len(verts) == 11
    assert set(verts) == {(4, 1), (4, 2), (4, 3), (3, 2), (3, 3), (3, 4),
                          (2, 2), (2, 3), (2, 4), (1, 3), (1, 4)}


def test_figure_heights_match_printed_values():
    cfg = figure_config()
    cfg.check_conservation()
    # h_{>=4} = h_{>3} values printed on the figure; the face (4.5, 3.5) is
    # misprinted as 0 there but its own configuration forces 1.
    expected = {(4.5, 0.5): 0, (3.5, 0.5): 0, (3.5, 1.5): 0, (4.5, 1.5): 0,
                (4.5, 2.5): 0, (4.5, 3.5): 1, (3.5, 2.5): 1, (3.5, 3.5): 2,
                (3.5, 4.5): 2, (2.5, 1.5): 0, (2.5, 2.5): 1, (2.5, 3.5): 2,
                (2.5, 4.5): 2, (1.5, 1.5): 0, (1.5, 2.5): 1, (1.5, 3.5): 2,
                (1.5, 4.5): 3, (0.5, 2.5): 2, (0.5, 3.5): 3, (0.5, 4.5): 4}
    for pt, val in expected.items():
        assert height(cfg, pt, 3) == val, pt


def test_quadrant_heights_from_intro_figure():
    # higher-spin quadrant configuration: vertical edges carry compositions
    h = {(0, 1): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1, (1, 2): 1,
         (0, 3): 2, (1, 3): 2, (2, 3): 2, (0, 4): 2, (0, 5): 3, (3, 4): 2, (3, 5): 1}
    v = {(3, 1): (1, 0, 0), (3, 2): (1, 0, 0), (3, 3): (1, 1, 0), (3, 4): (1, 0, 0),
         (2, 2): (1, 0, 0), (2, 3): (1, 0, 0), (2, 4): (1, 0, 0), (2, 5): (1, 0, 0),
         (1, 4): (0, 1, 0), (1, 5): (0, 1, 1)}
    for x in range(5):
        for y in range(6):
            h.setdefault((x, y), 0)
            v.setdefault((x, y), (0, 0, 0))
    cfg = Configuration(h, v, rectangle_domain(5, 4, (0, 0, 0, 0, 1, 1, 2, 2, 3)), 3)
    assert height(cfg, (1.5, 0.5), 0) == 0
    assert height(cfg, (2.5, 3.5), 1) == 1
    assert height(cfg, (1.5, 4.5), 0) == 3


def test_height_trivial_for_large_color():
    cfg = figure_config()
    for pt in [(0.5, 4.5), (2.5, 2.5)]:
        assert height(cfg, pt, 5) == 0
        assert height(cfg, pt, 9) == 0


def test_height_color_monotonicity_and_path_independence():
    # sampled configs: h_{>c} nonincreasing in c; recomputation via a second
    # route (neighboring face + edge crossing) agrees
    params = ModelParams(q=0.3, row_rapidities=(2.0, 2.4), col_rapidities=(1.0, 1.1))
    dom = rectangle_domain(2, 2, (0, 1, 1, 2))
    batch = sample_sc6v(dom, params, seed=41, count=50)
    for idx in range(20):
        cfg = batch.config(idx)
        cfg.check_conservation()
        for pt in [(1.5, 1.5), (2.5, 2.5), (1.5, 2.5)]:
            hs = [height(cfg, pt, c) for c in range(0, 4)]
            assert all(a >= b for a, b in zip(hs, hs[1:])), (pt, hs)
        for c in range(3):
            # localH1: step right across a vertical edge decreases by 1_{i>c}
            left = height(cfg, (1.5, 1.5), c)
            right = height(cfg, (2.5, 1.5), c)
            lab = cfg.v_edges[(2, 1)]
            assert right == left - (1 if lab > c else 0)


def test_threshold_points():
    dom = figure_domain()
    assert dom.threshold(0) == dom.q_path.points()[0]
    assert dom.threshold(1) == dom.q_path.points()[1]
    assert dom.threshold(2) == dom.q_path.points()[3]
    assert dom.threshold(5) == dom.q_path.points()[8]


def test_merge_colors_identity_and_deletion():
    cfg = figure_config()
    same = merge_colors(cfg, (1, 2, 3, 4, 5))
    assert same.h_edges == cfg.h_edges and same.v_edges == cfg.v_edges
    empty = merge_colors(cfg, (0, 0, 0, 0, 0))
    assert all(v == 0 for v in empty.h_edges.values())
    assert all(v == 0 for v in empty.v_edges.values())


def test_merge_colors_color_blind_preserves_h0():
    cfg = figure_config()
    blind = merge_colors(cfg, (1, 1, 1, 1, 1))
    blind.check_conservation()
    for pt in [(0.5, 4.5), (2.5, 2.5), (3.5, 1.5)]:
        assert height(blind, pt, 0) == height(cfg, pt, 0)


def test_merge_colors_commutes_with_height_on_blocks():
    # theta merging {1,2,3} -> 1 and {4,5} -> 2: h_{>1} merged = h_{>3} original
    cfg = figure_config()
    merged = merge_colors(cfg, (1, 1, 1, 2, 2))
    for pt in [(0.5, 4.5), (1.5, 3.5), (3.5, 2.5)]:
        assert height(merged, pt, 1) == height(cfg, pt, 3)
        assert height(merged, pt, 0) == height(cfg, pt, 0)
    with pytest.raises(ValidationError):
        merge_colors(cfg, (2, 1, 1, 2, 2))


def test_json_round_trips():
    dom = figure_domain()
    assert domain_from_json(domain_to_json(dom)) == dom
    params = ModelParams(q=0.4, row_rapidities=(1.0, 2.0), col_rapidities=(3.0,),
                         col_spins=(0.5,), boundary_levels=(1, 3))
    assert params_from_json(params_to_json(params)) == params
    cfg = figure_config()
    back = config_from_json(config_to_json(cfg), dom)
    assert back.h_edges == cfg.h_edges and back.v_edges == cfg.v_edges
    with pytest.raises(ValidationError):  # a configuration reads only on a domain of its shape
        config_from_json(config_to_json(cfg), rectangle_domain(4, 3, (0,) * 7))


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(q=1.2)
    with pytest.raises(ValidationError):
        ModelParams(q=0.5, row_rapidities=(0.0,))
    with pytest.raises(ValidationError):
        ModelParams(q=0.5, boundary_levels=(2, 1))
    p = ModelParams(q=0.5, boundary_levels=(1, 3))
    assert p.level(0) == 0 and p.level(1) == 1 and p.level(2) == 3 and p.level(7) == 3
    assert [p.row_color(r) for r in (1, 2, 3, 4)] == [1, 2, 2, 0]


def test_pole_separation_predicate():
    check_pole_separation([1.0, 1.3], 0.4)
    with pytest.raises(ValidationError):
        check_pole_separation([1.0, 0.4], 0.4)  # zeta_2 = q * zeta_1
