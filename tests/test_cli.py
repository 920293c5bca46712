import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varcap
from _oracles import dense_graph_energy, loop_space_from_doc
from test_golden import _command_doc
from test_mms import UNKNOWN_LABEL, space_docs, with_one_fault
from varcap.cli import COMMANDS, RunConfig, main, parse_config
from varcap.errors import ConfigError
from varcap.mms import build_planar_sheet
from varcap.profiles import cylinder_transition_profile, euclidean_profile, schwarzschild_profile
from varcap.radial_fem import RadialGrid
from varcap import sequences
from varcap.sequences import experiment_csv_from_payload


def radial_input(tmp_path, s0=1.0):
    doc = {"profile": euclidean_profile(3).to_doc(), "s0": s0}
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(doc))
    return path


# -- config validation ----------------------------------------------------------


def test_minimal_radial_config_applies_defaults(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["capacity-radial", "--input", str(radial_input(tmp_path)), "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "L,h,cap,energy"
    L_values = sorted({float(l.split(",")[0]) for l in lines[1:]})
    assert L_values == [100.0, 1000.0, 10000.0]  # default ladder {1e2,1e3,1e4} * s0


def test_unknown_key_names_nearest_valid():
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "capacity-radial", "capcity": 1})
    message = str(err.value)
    assert "capcity" in message
    assert "closest valid key" in message


def test_unknown_command_suggests():
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "capacity-radail"})
    assert "capacity-radial" in str(err.value)


def test_experiment_keys_validated_per_family():
    with pytest.raises(ConfigError, match="unknown key 'h'"):
        parse_config({"command": "experiment", "input_doc": {"example": "ex1", "h": 0.1}})
    # the same key is legal for the planar families
    cfg = parse_config({"command": "experiment", "input_doc": {"example": "ex3", "h": 0.1}})
    assert cfg.input_doc["h"] == 0.1


@pytest.mark.parametrize("i_list", [[0, 2, 4], [2, -3], [2, 2.5], ["4"], [True], 4])
@pytest.mark.parametrize("example", ["ex1", "ex3", "ex4"])
def test_i_list_entries_must_be_integers_at_least_one(example, i_list):
    with pytest.raises(ConfigError, match="i_list"):
        parse_config({"command": "experiment", "input_doc": {"example": example, "i_list": i_list}})


def test_ex4_with_zero_index_exits_two(tmp_path, capsys):
    inp = tmp_path / "ex4.json"
    inp.write_text(json.dumps({"i_list": [0, 2, 4]}))
    out = tmp_path / "ex4.csv"
    assert main(["experiment", "ex4", "--input", str(inp), "--out", str(out)]) == 2
    assert "i_list" in capsys.readouterr().err
    assert not out.exists()


def test_nan_coordinate_graph_document_gives_no_capacity(tmp_path, capsys):
    sheet = build_planar_sheet((-1, 1, -1, 1), 0.5, label_prefix="p")
    doc = {"space": sheet.to_doc(), "inner": ["p:0_0"], "outer": ["p:2_2"], "m": 2}
    doc["space"]["points"][3]["xyz"][1] = float("nan")
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))  # NaN is written as the JSON extension literal
    out = tmp_path / "graph.csv"
    assert main(["capacity-graph", "--input", str(path), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def _radial_doc(**changes):
    return {"profile": euclidean_profile(3).to_doc(), "s0": 1.0, **changes}


def _graph_doc(**changes):
    sheet = build_planar_sheet((-1, 1, -1, 1), 0.5, label_prefix="p")
    return {"space": sheet.to_doc(), "inner": ["p:0_0"], "outer": ["p:2_2"], "m": 2, **changes}


def _graph_doc_with_edge(edge):
    doc = _graph_doc()
    doc["space"]["edges"][3] = edge
    return doc


def _graph_doc_with_point(**changes):
    doc = _graph_doc()
    doc["space"]["points"][2].update(changes)
    return doc


def _graph_doc_with_dist(dist):
    doc = _graph_doc()
    doc["space"]["dist"] = dist
    return doc


def _profile_doc(**changes):
    return {**euclidean_profile(3).to_doc(), **changes}


def _power_piece(**changes):
    """The Euclidean profile document with its one power piece changed."""
    piece = {"kind": "power", "range": [0.0, None], "params": {"a": 1.0, "p": 1.0}, **changes}
    return _profile_doc(pieces=[piece])


def _spline_piece(**changes):
    """The cylinder-transition profile document with its spline bridge on [3, 4] changed."""
    doc = cylinder_transition_profile(3).to_doc()
    doc["pieces"][1].update(changes)
    return doc


def _mass_doc(**changes):
    return {"profile": schwarzschild_profile(1.0).to_doc(), "radii": [10.0, 20.0, 40.0, 80.0, 160.0], **changes}


_UNKNOWN_PIECE = {"dimension": 3, "pieces": [{"kind": "cubic", "range": [0.0, None], "params": {}}]}

_CONDENSER_KEYS = "capacity-graph input keys 'space' and 'inner' and 'outer': "

MALFORMED = [
    (["capacity-radial"], _radial_doc(levels=2.5), "input.levels"),
    (["capacity-radial"], _radial_doc(levels="2"), "input.levels"),
    (["capacity-radial"], _radial_doc(levels=1), "input.levels"),
    (["capacity-radial"], _radial_doc(L_values="abc"), "input.L_values"),
    (["capacity-radial"], _radial_doc(ends="three"), "input.ends"),
    (["capacity-radial"], _radial_doc(s0=math.nan), "input.s0"),
    (["capacity-radial"], _radial_doc(profile=_UNKNOWN_PIECE), "input.profile"),
    (["capacity-graph"], _graph_doc(m=2.5), "input.m"),
    (["capacity-graph"], _graph_doc(m="2"), "input.m"),
    (["capacity-graph"], _graph_doc(inner="p:0_0"), "input.inner"),
    (["capacity-graph"], _graph_doc_with_edge(["p:0_0", "p:1_0"]), "input.space is not a valid document: edge 3"),
    (["capacity-graph"], _graph_doc_with_edge(["p:0_0", "zz", 1.0]), "input.space is not a valid document: edge 3"),
    (["capacity-graph"], _graph_doc_with_edge(["p:0_0", "p:1_0", "2"]), "document: edge 3 conductance"),
    (["capacity-graph"], _graph_doc_with_edge(["p:0_0", "p:1_0", True]), "document: edge 3 conductance"),
    (["capacity-graph"], _graph_doc_with_point(weight=True), "document: point 2 weight"),
    (["capacity-graph"], _graph_doc_with_point(weight="2"), "document: point 2 weight"),
    (["capacity-graph"], _graph_doc_with_point(xyz=["0", "0", "0"]), "document: point 2 xyz"),
    (["capacity-graph"], _graph_doc_with_point(xyz=[0.0, 0.0]), "document: point 2 xyz must be [x, y, z]"),
    (["capacity-radial"], _radial_doc(profile=_power_piece(params={"a": True, "p": 1.0})), "pieces[0].params.a"),
    (["capacity-radial"], _radial_doc(profile=_power_piece(params={"a": "1", "p": 1.0})), "pieces[0].params.a"),
    (["capacity-radial"], _radial_doc(profile=_power_piece(params={"a": 1.0})), "pieces[0].params"),
    (["capacity-radial"], _radial_doc(profile=_power_piece(range=["0", None])), "pieces[0].range[0]"),
    (["capacity-radial"], _radial_doc(profile=_profile_doc(pole_at_origin="no")), "document: pole_at_origin"),
    (["capacity-radial"], _radial_doc(profile=_profile_doc(pieces=["power"])), "pieces[0] must be an object"),
    (["capacity-radial"], _radial_doc(profile=_spline_piece(range=[7.0, 9.0])), "pieces[1].range of a spline"),
    (["capacity-radial"], _radial_doc(profile=_spline_piece(range=[3.0, None])), "pieces[1].range of a spline"),
    (["capacity-radial"], _radial_doc(profile=_spline_piece(params={"x": [3.0, 3.5, 4.0], "y": [3.0, 1.0]})),
     "pieces[1]: spline y must hold one number per x"),
    (["mass"], _mass_doc(radii="abc"), "input.radii"),
    (["mass"], _mass_doc(tail_points=2.5), "input.tail_points"),
    (["experiment", "ex1"], {"m": 3.5}, "input.m"),
    (["experiment", "ex1"], {"L_values": [100.0, "1000", 10000.0]}, "input.L_values[1]"),
    (["experiment", "ex3"], {"alphas": "abc"}, "input.alphas"),
    (["experiment", "ex3"], {"h": 0}, "input.h"),
    (["experiment", "ex2"], {"L": 1000.0}, "unknown key 'L' in experiment ex2 input"),
    (["capacity-graph"], _graph_doc_with_point(label=True), "document: point 2 must be an object with a string"),
    (["capacity-graph"], _graph_doc_with_dist([[0.0, "1"], [1.0, 0.0]]), "document: dist[0][1]"),
    (["capacity-graph"], _graph_doc_with_dist([[0.0, 1.0], [True, 0.0]]), "document: dist[1][0]"),
    (["capacity-graph"], _graph_doc_with_dist([0.0, 1.0]), "document: dist must be a list of rows"),
    (["experiment", "ex1"], {"r": 5.0}, "input keys 'i_list' and 'r': ball radius r=5.0"),
    (["experiment", "ex3"], {"alphas": [0.0, 0.0]}, "input keys 'i_list' and 'alphas': need one threshold"),
    (["experiment", "ex3"], {"i_list": [2, 4, 8], "alphas": [0.1, 0.1, 0.1, 5.0]},
     "input keys 'i_list' and 'alphas': need one threshold per family index, got 4 for 3"),
    (["experiment", "ex3"], {"alphas": [0, 0, 0], "alpha_rule_c": 1.0},
     "input keys 'i_list' and 'alphas' and 'alpha_rule_c': provide at most one of an alpha list or a c/i rule"),
    (["experiment", "ex4"], {"i_list": [2]}, "experiment ex4 input.i_list must list at least 3 entries"),
    (["experiment", "ex1"], {"i_list": []}, "experiment ex1 input.i_list must list at least 3 entries"),
    (["experiment", "ex3"], {"alphas": [0.0, -0.1, 0.0]}, "ex3 input.alphas[1] must be a number (finite, >= 0)"),
    (["experiment", "ex3"], {"alpha_rule_c": -1.0}, "ex3 input.alpha_rule_c must be a number (finite, >= 0)"),
    (["experiment", "ex1"], {"i_list": [1, 2, 4], "r": 0.5}, "ex1 input.i_list[0] must be an integer >= 2"),
    (["experiment", "ex2"], {"a": -1}, "ex2 input.a must be a number (finite, > 0)"),
    (["experiment", "ex2"], {"b": 0}, "ex2 input.b must be a number (finite, > 0)"),
    (["capacity-radial"], _radial_doc(L_values=[100.0, 10000.0]), "input.L_values must list at least 3 entries"),
    (["experiment", "ex1"], {"L_values": [100.0, 1e4]}, "ex1 input.L_values must list at least 3 entries"),
    (["capacity-graph"], _graph_doc(inner=["zz"]), _CONDENSER_KEYS + "condenser references unknown point 'zz'"),
    (["capacity-graph"], _graph_doc(outer=["qq"]), _CONDENSER_KEYS + "condenser references unknown point 'qq'"),
    (["capacity-graph"], _graph_doc(inner=[]), _CONDENSER_KEYS + "condenser needs a nonempty inner set K"),
    (["capacity-graph"], _graph_doc(outer=["p:0_0"]), _CONDENSER_KEYS + "inner and outer sets must be disjoint"),
    (["experiment", "ex3"], {"h": 0.2}, "ex3 input keys 'h' and 'rim_radius': lattice spacing h=0.2 too coarse"),
    (["experiment", "ex4"], {"h": 0.2}, "ex4 input keys 'h' and 'rim_radius': lattice spacing h=0.2 too coarse"),
    (["experiment", "ex3"], {"rim_radius": 1.2}, "ex3 input keys 'h' and 'rim_radius': rim radius sits too close "
     "to the disk"),
    (["experiment", "ex4"], {"h": 0.05, "rim_radius": 2.2}, "ex4 input keys 'h' and 'rim_radius': rim radius sits "
     "too close to the annulus"),
    (["capacity-radial"], _radial_doc(ratio=1.6), "capacity-radial input.ratio must be a number in (1, 1.5]"),
]


@pytest.mark.parametrize("command, doc, path", MALFORMED, ids=[case[2] for case in MALFORMED])
def test_malformed_document_exits_two_naming_its_key(tmp_path, capsys, command, doc, path):
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(doc))
    assert main([*command, "--input", str(inp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert path in err and err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, doc, message", [
    (["experiment", "ex3"], {"h": 1e-300}, "ex3 input keys 'h' and 'rim_radius': a plane sheet with h=1e-300"),
    (["experiment", "ex4"], {"rim_radius": 1e12},
     "ex4 input keys 'h' and 'rim_radius': a plane sheet with h=0.1 out to rim_radius=1e+12 has 4e+26 nodes"),
    (["experiment", "ex1"], {"i_list": [2, 4, 2**64]}, "ex1 input keys 'i_list': transition radius i=1.84467e+19"),
    (["experiment", "ex1"], {"i_list": [2, 4, 2**60]}, "ex1 input keys 'i_list': transition radius i=1.15292e+18"),
    (["capacity-radial"], _radial_doc(levels=30),
     "capacity-radial input keys 's0' and 'levels' and 'ratio': the schedule's finest grids hold 2.66e+11"),
    (["capacity-radial"], _radial_doc(ratio=1.0 + 1e-9, h0=1e-12),
     "capacity-radial input keys 's0' and 'levels' and 'h0' and 'ratio': the schedule's finest grids hold"),
], ids=["ex3 h=1e-300", "ex4 rim=1e12", "ex1 i=2**64", "ex1 i=2**60", "30 levels", "ratio near 1"])
def test_input_past_a_size_or_float_limit_exits_two_without_a_lattice_or_grid(
        tmp_path, capsys, monkeypatch, command, doc, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice or grid was built")

    for owner, name in [(sequences, "build_planar_sheet"), (sequences, "_plane_quotient"),
                        (RadialGrid, "geometric"), (RadialGrid, "refined")]:
        monkeypatch.setattr(owner, name, refuse)
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(doc))
    assert main([*command, "--input", str(inp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


_SCHEDULE_KEYS = "capacity-radial input keys 's0' and 'L_values' and 'levels' and 'ratio': "
_RADII_KEYS = "mass input keys 'profile' and 'radii': "

RULE_FAULTS = [
    (["capacity-radial"], _radial_doc(L_values=[100.0, 1000.0, 1e4, 1e4]),
     _SCHEDULE_KEYS + "need at least 3 truncation radii, all distinct"),
    (["capacity-radial"], _radial_doc(L_values=[1.0, 1000.0, 1e4]),
     _SCHEDULE_KEYS + "truncation radius 1.0 must exceed the inner radius 1.0"),
    # 13 float spacings past s0: this exited 0 with cap 0.0 at 2 levels, and 1 at 4
    (["capacity-radial"], _radial_doc(s0=4.2, L_values=[4.200000000000012, 5.2, 6.2], levels=2),
     _SCHEDULE_KEYS + "the finest grid from the inner radius 4.2 to the truncation radius 4.200000000000012"),
    (["capacity-radial"], _radial_doc(s0=4.2, L_values=[4.200000000000012, 5.2, 6.2], levels=4),
     "(h0=0.065625, 4 levels) would have elements under 4 float spacings"),
    (["capacity-radial"], _radial_doc(s0=-1.0),
     "capacity-radial input keys 'profile' and 's0': inner radius -1.0 outside profile domain [0.0, inf)"),
    (["capacity-radial"], _radial_doc(s0=0.0),
     "capacity-radial input keys 'profile' and 's0': inner radius 0.0 must lie strictly outside the pole"),
    (["experiment", "ex1"], {"i_list": [2, 4, 20000]},
     "ex1 input keys 'i_list' and 'r': every truncation radius in 'L_values' (smallest 100) must lie past"),
    (["experiment", "ex1"], {"i_list": [2, 4, 99]}, "which begins at max(i) + 1 = 100"),
    (["experiment", "ex1"], {"L_values": [0.5, 100.0, 1000.0]},
     "ex1 input keys 'i_list' and 'r' and 'L_values': truncation radius 0.5 must exceed the inner radius 1.0"),
    (["mass"], _mass_doc(radii=[1e103]), _RADII_KEYS + "mass extrapolation needs at least 4 radii"),
    (["mass"], _mass_doc(radii=[10.0, 20.0, 40.0]), _RADII_KEYS + "mass extrapolation needs at least 4 radii"),
    (["mass"], _mass_doc(radii=[10.0, 20.0, 40.0, 60.0]),
     _RADII_KEYS + "mass extrapolation needs radii spanning a decade"),
    (["mass"], _mass_doc(radii=[40.0, 20.0, 100.0, 400.0]), _RADII_KEYS + "radii must be increasing"),
    (["mass"], _mass_doc(radii=[1.0, 20.0, 100.0, 400.0]),
     _RADII_KEYS + "inner radius 1.0 outside profile domain [2.0, inf)"),
    (["mass"], _mass_doc(profile=cylinder_transition_profile(3).to_doc()),
     _RADII_KEYS + "profile fails the flat-tail test"),
    (["mass"], _mass_doc(radii=[10.0, 20.0, 40.0, 400.0], tail_points=9),
     "mass input keys 'profile' and 'radii' and 'tail_points': tail_points=9 exceeds the number of radii, 4"),
    (["mass"], _mass_doc(tail_points=2),
     "mass input keys 'profile' and 'radii' and 'tail_points': tail_points=2 is below 3"),
]


@pytest.mark.parametrize("command, doc, message", RULE_FAULTS, ids=[
    "repeated radius", "radius at s0", "radius 13 ulps past s0 at 2 levels", "radius 13 ulps past s0 at 4 levels",
    "s0 outside the profile", "s0 on the pole", "ex1 i=20000", "ex1 i=99",
    "ex1 radius below r", "one mass radius", "three mass radii", "radii within a decade", "radii unsorted",
    "radius inside the horizon", "profile not flat", "tail past the radii", "tail of two points"])
def test_rule_fault_exits_two_before_any_solve_or_quadrature(tmp_path, capsys, monkeypatch, command, doc, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve or quadrature ran")

    for target in ["varcap.radial_fem.solve_radial", "varcap.profiles.WarpProfile.resistance_between",
                   "varcap.profiles.WarpProfile.volume_between", "varcap.mass.volume_and_boundary"]:
        monkeypatch.setattr(target, refuse)
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(doc))
    assert main([*command, "--input", str(inp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


def _path_doc(free):
    """A path of `free` + 2 points, K and B at its two ends."""
    labels = [f"v{k}" for k in range(free + 2)]
    return {"space": {"points": [{"label": lab, "xyz": [float(k), 0.0, 0.0]} for k, lab in enumerate(labels)],
                      "edges": [[a, b, 1.0] for a, b in zip(labels, labels[1:])]},
            "inner": labels[:1], "outer": labels[-1:]}


def test_graph_document_past_the_free_budget_exits_two_before_any_solve(tmp_path, capsys, monkeypatch):
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(_path_doc(2**13)))
    assert main(["capacity-graph", "--input", str(inp), "--out", str(out)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr("varcap.cli.graph_capacity", refuse)
    out.unlink()
    inp.write_text(json.dumps(_path_doc(2**13 + 1)))
    assert main(["capacity-graph", "--input", str(inp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and _CONDENSER_KEYS + (
        "the condenser leaves 8,193 nodes free, more than the 8,192 a graph document may have") in err
    assert not out.exists()


def test_two_element_grid_document_exits_zero(tmp_path):
    # h0 = 60 makes the first grid (L = 100) two elements long: one free node
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(_radial_doc(s0=1, h0=60)))
    assert main(["capacity-radial", "--input", str(inp), "--out", str(out)]) == 0
    assert "# cap=" in out.read_text()


def test_every_input_problem_listed_at_once():
    doc = _radial_doc(levels=2.5, ends="three", s0=math.nan, capcity=1)
    with pytest.raises(ConfigError) as err:
        parse_config({"command": "capacity-radial", "input_doc": doc})
    assert len(err.value.problems) == 4


# one valid document per command entry, holding every key the entry declares
VALID = [
    (["capacity-radial"], _radial_doc(ends="one", L_values=[100.0, 1000.0, 1e4], levels=2, h0=0.02, ratio=1.05)),
    (["capacity-graph"], _graph_doc(rim_radius=1.0)),
    (["mass"], _mass_doc(tail_points=4)),
    (["experiment", "ex1"], {"i_list": [2, 4, 8], "r": 1.0, "L_values": [100.0, 1000.0, 1e4], "m": 3}),
    (["experiment", "ex2"], {"i_list": [1, 2, 4], "a": 1.0, "b": 1.0, "m": 3}),
    (["experiment", "ex3"], {"i_list": [2, 4, 8], "h": 0.1, "rim_radius": 4.0, "strip_conductance": 0.2,
                             "alphas": [0.0, 0.0, 0.0]}),
    (["experiment", "ex3"], {"i_list": [2, 4, 8], "alpha_rule_c": 0.5}),
    (["experiment", "ex4"], {"i_list": [2, 4, 8], "h": 0.1, "rim_radius": 4.0}),
]

WRONG_TYPED = st.one_of(
    st.text(max_size=8).filter(lambda t: t not in ("one", "two_symmetric")),
    st.booleans(),
    st.just(math.nan),
    st.lists(st.one_of(st.booleans(), st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)),
             min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=10), st.integers(), min_size=1, max_size=3),
)


@pytest.mark.parametrize("command, doc", VALID)
def test_valid_documents_pass_the_boundary(command, doc):
    cfg = parse_config({"command": command[0], "input_doc": doc}, *command[1:])
    assert set(cfg.args) == set(doc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_wrong_typed_value_under_any_key_exits_two(data):
    command, doc = data.draw(st.sampled_from(VALID))
    key = data.draw(st.sampled_from(sorted(doc)))
    bad = {**doc, key: data.draw(WRONG_TYPED)}
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "input.json", Path(tmp) / "report.csv"
        inp.write_text(json.dumps(bad))
        assert main([*command, "--input", str(inp), "--out", str(out)]) == 2
        assert not out.exists()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**300, max_value=10**400)
    | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


# keys a document may hold ("input", a path, is left out: it would read files),
# and "solver", a tolerance the graph solve no longer takes
KEY_NAMES = sorted({"command", "input_doc", "output", "format", "tolerances", "seed", "example", "dist",
                    "quadrature", "solver", "verdict"} | {key for spec in COMMANDS.values() for key in spec.keys})


def _replace_somewhere(data, value):
    """`value` with one node, drawn at any depth, replaced or added as arbitrary JSON."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        if isinstance(value, list):
            key = data.draw(st.integers(0, len(value) - 1))
        else:
            key = data.draw(st.sampled_from(sorted(value)) | st.sampled_from(KEY_NAMES) | st.text(max_size=6))
        copy = value.copy()
        copy[key] = _replace_somewhere(data, value[key] if key in copy else None)
        return copy
    return data.draw(JSON)


# The property stops at the boundary: a valid but tiny `h` or a huge `levels`
# would make `main` build lattices and grids without bound.
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_arbitrary_json_is_converted_or_refused(data):
    command, doc = data.draw(st.sampled_from(VALID))
    document = {"command": command[0], "input_doc": {"example": command[1]} | doc if command[1:] else doc}
    document = _replace_somewhere(data, document)
    try:
        assert isinstance(parse_config(document), RunConfig)
    except ConfigError:
        pass


@st.composite
def graph_documents(draw):
    """A small `capacity-graph` document and the fault put into it, if any:
    one in its space (see `test_mms.with_one_fault`), its condenser or `m`."""
    conductances = st.floats(0.1, 10.0) | st.integers(1, 10)
    space = draw(space_docs(min_points=2, max_points=10, max_edges=20, conductances=conductances))
    labels = [point["label"] for point in space["points"]]
    inner = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1, unique=True))
    outer = draw(st.lists(st.sampled_from([lab for lab in labels if lab not in inner]), unique=True))
    doc = {"space": space, "inner": inner, "outer": outer, **draw(st.fixed_dictionaries({}, optional={
        "m": st.integers(2, 4), "rim_radius": st.floats(0.5, 10.0)}))}
    fault = draw(st.sampled_from([None, "space", "inner", "outer", "overlap", "m"]))
    if fault == "space":
        doc["space"] = draw(with_one_fault(space))
    elif fault in ("inner", "outer"):
        doc[fault] = draw(st.sampled_from([[UNKNOWN_LABEL], [5], labels[0], None] + ([[]] if fault == "inner" else [])))
    elif fault == "overlap":
        doc["outer"] = outer + inner[:1]
    elif fault == "m":
        doc["m"] = draw(st.sampled_from([1, 2.5, "2", True]))
    return doc, fault


@settings(max_examples=80, deadline=None)
@given(case=graph_documents())
def test_capacity_graph_on_generated_documents(case):
    doc, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "input.json", Path(tmp) / "report.json"
        inp.write_text(json.dumps(doc))
        code = main(["capacity-graph", "--input", str(inp), "--format", "json", "--out", str(out)])
        assert code == (0 if fault is None else 2)
        if code == 0:
            raw_energy = json.loads(out.read_text())["rows"][0][1]
            dense, _ = dense_graph_energy(loop_space_from_doc(doc["space"]), doc["inner"], doc["outer"])
            assert abs(raw_energy - dense) <= 1e-10 * max(1.0, dense)
        else:
            assert not out.exists()


@st.composite
def spline_radial_documents(draw):
    """A small `capacity-radial` document on a power core, a spline bridge and
    a constant end, and the fault put into it, if any."""
    a, x0, width, c = (draw(st.floats(lo, hi)) for lo, hi in ((0.5, 2.0), (1.5, 4.0), (0.5, 2.0), (0.5, 2.0)))
    n = draw(st.integers(2, 12))
    x = list(np.linspace(x0, x0 + width, n))
    # values in [0.5, 3] and slopes in [-0.5, 0.5] keep a Hermite bridge of width <= 2 positive
    y = [a * x0, *draw(st.lists(st.floats(0.5, 3.0), min_size=n - 2, max_size=n - 2)), c]
    params = {"x": x, "y": y}
    if draw(st.booleans()):
        params["dydx"] = [a, *draw(st.lists(st.floats(-0.5, 0.5), min_size=n - 2, max_size=n - 2)), 0.0]
    bridge = {"kind": "spline", "range": [x[0], x[-1]], "params": params}
    profile = {"dimension": 3, "pole_at_origin": True, "pieces": [
        {"kind": "power", "range": [0.0, x[0]], "params": {"a": a, "p": 1.0}},
        bridge,
        {"kind": "constant", "range": [x[-1], None], "params": {"c": c}},
    ]}
    doc = {"profile": profile, "s0": draw(st.floats(0.25, 1.0)) * x0, "levels": 2}
    fault = draw(st.sampled_from([None, "short", "order", "entry", "range", "key"]))
    if fault == "short":
        table = draw(st.sampled_from(sorted(params)))
        params[table] = params[table][:-1]
    elif fault == "order":
        k = draw(st.integers(0, n - 2))
        x[k + 1] = x[k] if draw(st.booleans()) else x[k] - 0.25
    elif fault == "entry":
        table = draw(st.sampled_from([*sorted(params), "range"]))
        values = params[table] if table != "range" else bridge["range"]
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([True, False, "1", None]))
    elif fault == "range":
        bridge["range"] = draw(st.sampled_from([[x[0], None], [x[0] + 0.5, x[-1] + 0.5], [x[0], x[-1] - 0.25]]))
    elif fault == "key":
        where = draw(st.sampled_from([bridge, params, profile, doc]))
        where["spline_knots"] = 3
    return doc, fault


@settings(max_examples=100, deadline=None)
@given(case=spline_radial_documents())
def test_capacity_radial_on_generated_spline_documents(case):
    doc, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "input.json", Path(tmp) / "report.csv"
        inp.write_text(json.dumps(doc))
        code = main(["capacity-radial", "--input", str(inp), "--out", str(out)])
        assert code == (0 if fault is None else 2)
        assert out.exists() == (code == 0)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _i_list(least: int):
    return st.lists(st.integers(least, 12), min_size=3, max_size=4)


def _mass_radii(radii: list, huge: float | None, order: str) -> list:
    radii = radii + ([] if huge is None else [huge])
    return sorted(radii) if order == "sorted" else radii


# Values are drawn near their valid ranges, so that most documents reach the
# computation; sizes stay small (at most four family indices and nine radii)
# because `main` runs every document that converts.  A mass document may add
# one radius as large as 1e300.
EXPERIMENT_AND_MASS_DOCUMENTS = st.one_of(
    st.tuples(st.just(["experiment", "ex1"]), st.fixed_dictionaries({"i_list": _i_list(2)}, optional={
        "r": _log_uniform(-2, 0.3), "m": st.integers(2, 6),
        "L_values": st.lists(_log_uniform(0.5, 300), min_size=3, max_size=4)})),
    st.tuples(st.just(["experiment", "ex2"]), st.fixed_dictionaries({"i_list": _i_list(1)}, optional={
        "a": _log_uniform(-2, 2), "b": _log_uniform(-2, 2), "m": st.integers(2, 6)})),
    st.tuples(st.just(["mass"]), st.fixed_dictionaries({
        "profile": st.one_of(
            _log_uniform(-1, 0.5).map(lambda mass: schwarzschild_profile(mass).to_doc()),
            st.just(euclidean_profile(3).to_doc()),
            st.tuples(st.floats(0.95, 1.05), st.floats(0.98, 1.02)).map(
                lambda ap: _power_piece(params={"a": ap[0], "p": ap[1]}))),
        "radii": st.builds(_mass_radii, st.lists(_log_uniform(0.7, 3), max_size=8),
                           st.none() | _log_uniform(0, 300), st.sampled_from(["sorted", "sorted", "as drawn"]))},
        optional={"tail_points": st.integers(1, 8)})),
)


@settings(max_examples=150, deadline=None)
@given(case=EXPERIMENT_AND_MASS_DOCUMENTS, data=st.data())
def test_experiments_and_mass_on_generated_documents(case, data):
    """Every document exits 0, 1 or 2, and a report exists exactly on exit 0;
    an exception escaping `main` fails the property."""
    command, doc = case
    if data.draw(st.booleans()):
        doc = _replace_somewhere(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "input.json", Path(tmp) / "report.csv"
        inp.write_text(json.dumps(doc))
        code = main([*command, "--input", str(inp), "--out", str(out)])
        assert code in (0, 1, 2)
        assert out.exists() == (code == 0)


@pytest.mark.parametrize("command, doc, message", [
    (["mass"], _mass_doc(radii=[10.0, 20.0, 40.0, 80.0, 160.0, 1e125]),
     "volume integral over [2.0, 1e+125] exceeds the float range"),
    (["mass"], {"profile": _power_piece(), "radii": [10.0, 20.0, 40.0, 80.0, 160.0, 1e200]},
     "volume integral over [0.0, 1e+200] exceeds the float range"),
    (["mass"], {"profile": _power_piece(), "radii": [10.0, 20.0, 40.0, 80.0, 160.0, 2e102]},
     "mass values at R=2e+102 exceed the float range"),
    (["experiment", "ex2"], {"m": 344}, "unit sphere area for m=344 is outside the float range"),
    (["capacity-radial"],
     _radial_doc(profile={**_power_piece(range=[1.0, None], params={"a": 1.0, "p": -1.0}), "pole_at_origin": False},
                 s0=1e100),
     "chain resistance or energy over [1e+100, 1e+103] exceeds the float range"),
    (["capacity-graph"],
     {"space": {"points": [{"label": lab, "xyz": [x, 0.0, 0.0]} for lab, x in zip("abc", (0.0, 1.0, 2.0))],
                "edges": [["a", "b", 1e308], ["a", "c", 1e308]]},
      "inner": ["a"], "outer": ["b", "c"]},
     "capacity exceeds the float range (raw energy inf, m=2)"),
    # scaled by 2^-997, the free node's conductances fall below the smallest subnormal
    (["capacity-graph"],
     {"space": {"points": [{"label": lab, "xyz": [x, 0.0, 0.0]} for lab, x in zip("kyb", (0.0, 1.0, 2.0))],
                "edges": [["k", "b", 1e300], ["k", "y", 1e-30], ["y", "b", 1e-30]]},
      "inner": ["k"], "outer": ["b"]},
     "computation error: conductance 1e-30 at a free node is more than 2^1022 times below the largest, 1e+300"),
], ids=["schwarzschild volume overflow", "power volume overflow", "mass overflow",
        "dimension overflow", "radial chain overflow", "graph energy overflow", "graph conductance underflow"])
def test_library_domain_rule_exits_one(tmp_path, capsys, command, doc, message):
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(doc))
    assert main([*command, "--input", str(inp), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_programming_error_is_not_a_computation_error(tmp_path, capsys, monkeypatch):
    def broken_runner(**args):
        raise TypeError("a programming error")

    monkeypatch.setattr(sequences, "run_example1", broken_runner)
    out = tmp_path / "ex1.csv"
    with pytest.raises(TypeError, match="a programming error"):
        main(["experiment", "ex1", "--out", str(out)])
    assert "computation error" not in capsys.readouterr().err
    assert not out.exists()


def test_tol_on_a_command_without_tolerance_exits_two(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["capacity-radial", "--input", str(radial_input(tmp_path)), "--tol", "1e-8", "--out", str(out)]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_tol_sets_each_commands_declared_tolerance():
    mass = parse_config({"command": "mass", "input_doc": _mass_doc()}, tol_override=1e-8)
    ex1 = parse_config({"command": "experiment", "input_doc": {"example": "ex1"}}, tol_override=1e-9)
    assert (mass.tolerances["quadrature"], ex1.tolerances["verdict"]) == (1e-8, 1e-9)


def test_graph_solve_has_no_tolerance_to_set(tmp_path, capsys):
    # the graph solve is a direct factorisation: neither `tolerances.solver`
    # nor capacity-graph's --tol has anything to set
    inp, out = tmp_path / "input.json", tmp_path / "report.csv"
    inp.write_text(json.dumps(_command_doc("capacity-graph")))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {"solver": 1e-12}}))
    assert main(["capacity-graph", "--config", str(config), "--input", str(inp), "--out", str(out)]) == 2
    assert "unknown key 'solver' in tolerances" in capsys.readouterr().err
    assert main(["capacity-graph", "--input", str(inp), "--tol", "1e-3", "--out", str(out)]) == 2
    assert "--tol: capacity-graph has no tolerance to set" in capsys.readouterr().err
    assert not out.exists()


def test_all_problems_reported_together():
    with pytest.raises(ConfigError) as err:
        parse_config(
            {
                "command": "mass",
                "typo_one": 1,
                "format": "xml",
                "tolerances": {"quadrature": -1.0, "bogus": 2.0},
                "seed": "zero",
            }
        )
    problems = err.value.problems
    assert len(problems) >= 4


def test_malformed_number_rejected():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(
            {"command": "experiment", "input_doc": {"example": "ex1", "r": "one"}}
        )


def test_nonexistent_input_path_is_config_error(tmp_path):
    code = main(["capacity-radial", "--input", str(tmp_path / "missing.json")])
    assert code == 2


def test_nonexistent_config_path_is_config_error(tmp_path):
    code = main(["capacity-radial", "--config", str(tmp_path / "missing.json")])
    assert code == 2


# -- reports -----------------------------------------------------------------------


def test_euclidean_radial_report_value(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["capacity-radial", "--input", str(radial_input(tmp_path)), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    cap_line = [l for l in text.splitlines() if l.startswith("# cap=")][0]
    cap = float(cap_line.split("=")[1])
    assert cap == pytest.approx(1.0, abs=1e-3)
    assert "# tool=varcap" in text
    assert "# config_sha256=" in text
    assert "# provenance=fem" in text


def test_experiment_ex4_verdict_violated(tmp_path):
    out = tmp_path / "ex4.csv"
    code = main(
        ["experiment", "ex4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[-1].endswith("violated")


def test_json_format(tmp_path):
    out = tmp_path / "ex2.json"
    code = main(["experiment", "ex2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "ex2"
    assert payload["verdict"] == "consistent-strict-jump"
    assert payload["limit_capacity"] == pytest.approx(4 / math.pi, abs=1e-3)
    assert "config_sha256" in payload


def test_json_report_regenerates_identical_csv(tmp_path):
    csv_out = tmp_path / "ex2.csv"
    json_out = tmp_path / "ex2.json"
    assert main(["experiment", "ex2", "--out", str(csv_out)]) == 0
    assert main(["experiment", "ex2", "--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    meta = {"tool": payload["tool"], "config_sha256": payload["config_sha256"]}
    regenerated = experiment_csv_from_payload(payload, meta)
    assert regenerated == csv_out.read_text()


def test_round_trip_for_every_command(tmp_path):
    from varcap.cli import csv_from_payload

    sheet = build_planar_sheet((-2, 2, -2, 2), 0.5, label_prefix="p")
    r = np.sqrt(sheet.coords[:, 0] ** 2 + sheet.coords[:, 1] ** 2)
    graph_doc = {
        "space": sheet.to_doc(),
        "inner": [lab for lab, ri in zip(sheet.labels, r) if ri <= 0.5 + 1e-9],
        "outer": [lab for lab, ri in zip(sheet.labels, r) if ri >= 2.0 - 1e-9],
        "m": 2,
        "rim_radius": 2.0,
    }
    mass_doc = {
        "profile": schwarzschild_profile(1.0).to_doc(),
        "radii": list(np.geomspace(10.0, 200.0, 6)),
    }
    radial_doc = json.loads(radial_input(tmp_path).read_text())
    cases = [
        ("capacity-radial", radial_doc),
        ("capacity-graph", graph_doc),
        ("experiment", {"example": "ex1"}),
        ("mass", mass_doc),
    ]
    for k, (command, doc) in enumerate(cases):
        inp = tmp_path / f"in{k}.json"
        inp.write_text(json.dumps(doc))
        csv_out = tmp_path / f"{k}.csv"
        json_out = tmp_path / f"{k}.json"
        argv = [command, "--input", str(inp)]
        assert main(argv + ["--out", str(csv_out)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        assert csv_from_payload(payload) == csv_out.read_text(), command


def test_capacity_graph_command(tmp_path):
    sheet = build_planar_sheet((-2, 2, -2, 2), 0.25, label_prefix="p")
    r = np.sqrt(sheet.coords[:, 0] ** 2 + sheet.coords[:, 1] ** 2)
    inner = [lab for lab, ri in zip(sheet.labels, r) if ri <= 0.5 + 1e-9]
    outer = [lab for lab, ri in zip(sheet.labels, r) if ri >= 2.0 - 1e-9]
    doc = {"space": sheet.to_doc(), "inner": inner, "outer": outer, "m": 2, "rim_radius": 2.0}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "graph.csv"
    assert main(["capacity-graph", "--input", str(path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "label,raw_energy,capacity,rim_radius"
    cap = float(lines[1].split(",")[2])
    assert 0.2 < cap < 2.0


def test_mass_command(tmp_path):
    doc = {
        "profile": schwarzschild_profile(2.0).to_doc(),
        "radii": list(np.geomspace(20.0, 1000.0, 10)),
    }
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "mass.csv"
    assert main(["mass", "--input", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "R,A,V,cap,m_iso,m_cv,m_cv_alt"
    m_line = [l for l in text.splitlines() if l.startswith("# m_iso=")][0]
    assert float(m_line.split("=")[1]) == pytest.approx(2.0, rel=0.02)


def test_mass_document_with_a_far_radius_reaches_the_tail_fit(tmp_path, capsys):
    # the capacity at R = 1e90 is exact now, but the mass formulas subtract
    # volumes near R^3 that agree to far more digits than a float holds
    # (m_iso reads -3e74 there), so the tail fit refuses the curve
    inp, out = tmp_path / "mass.json", tmp_path / "mass.csv"
    inp.write_text(json.dumps(_mass_doc(radii=[10.0, 20.0, 40.0, 80.0, 1e90])))
    assert main(["mass", "--input", str(inp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "mass curve tail does not follow value + c/R" in err and "tail integration" not in err


def test_tol_flag_reaches_verdict_tolerance(tmp_path):
    cfg = parse_config(
        {"command": "experiment", "input_doc": {"example": "ex1"}, "tolerances": {"verdict": 0.5}}
    )
    assert cfg.tolerances["verdict"] == 0.5


def test_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "ex2", "--out", str(a)]) == 0
    assert main(["experiment", "ex2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_runs_as_a_process(tmp_path):
    src = str(Path(varcap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_radial_doc(levels=2.5)))
    runs = [
        subprocess.run([sys.executable, "-m", "varcap.cli", "capacity-radial", "--input", str(path)],
                       capture_output=True, text=True, env=env, timeout=120)
        for path in (radial_input(tmp_path), bad)
    ]
    ok, refused = runs
    assert ok.returncode == 0 and "# provenance=fem" in ok.stdout
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("configuration error: ")


def test_console_entry_point():
    """The `[project.scripts]` target runs as an installed console script
    would, in a fresh interpreter; so does the installed script, if any."""
    import shutil
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, function = tomllib.loads(pyproject.read_text())["project"]["scripts"]["varcap"].split(":")
    src = str(Path(varcap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
    runs = [[sys.executable, "-c", script, "--version"]]
    exe = shutil.which("varcap")
    if exe is not None:
        runs.append([exe, "--version"])
    for argv in runs:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == f"varcap {varcap.__version__}\n"
