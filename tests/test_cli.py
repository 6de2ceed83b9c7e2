import builtins
import json
import logging
import math
import os
import random
import re

import pytest

import outerspacekit.axes as axes_mod
import outerspacekit.cli as cli_mod
import outerspacekit.graphs as graphs_mod
import outerspacekit.traintrack as traintrack_mod
from outerspacekit.cli import main
from outerspacekit.graphs import point_from_dict, point_to_dict, random_point, rose
from outerspacekit.traintrack import pf_metric, selfmap_from_dict
from outerspacekit.words import (
    ALPHABET,
    Automorphism,
    CyclicWord,
    format_letters,
    random_whitehead_move,
)

from . import oracles
from .oracles import apply_cyclic
from .conftest import FIG1_TARGET_DICT, THETA_DICT

GOLDEN_MAP = {
    "graph": {
        "rank": 2,
        "vertices": ["v"],
        "edges": [
            {"id": "e1", "from": "v", "to": "v", "length": 0.5},
            {"id": "e2", "from": "v", "to": "v", "length": 0.5},
        ],
        "marking": {"x": ["e1"], "y": ["e2"]},
        "basepoint": "v",
    },
    "edge_images": {"e1": ["e1", "e2"], "e2": ["e1"]},
    "vertex_images": {"v": "v"},
}

GOLDEN_INV_MAP = {
    "graph": GOLDEN_MAP["graph"],
    "edge_images": {"e1": ["e2"], "e2": ["~e2", "e1"]},
    "vertex_images": {"v": "v"},
}




def _rose_map(images, marking=None):
    """A rose self-map file: edge e_i -> images[i - 1], a tuple of signed
    edge numbers; the identity marking unless one is given."""
    rank = len(images)
    ref = lambda h: ("~" if h < 0 else "") + f"e{abs(h)}"  # noqa: E731
    return {
        "graph": {
            "rank": rank,
            "vertices": ["v"],
            "edges": [{"id": f"e{i}", "from": "v", "to": "v", "length": 1 / rank}
                      for i in range(1, rank + 1)],
            "marking": marking or {ALPHABET[i]: [f"e{i + 1}"] for i in range(rank)},
            "basepoint": "v",
        },
        "edge_images": {f"e{i}": [ref(h) for h in image] for i, image in enumerate(images, 1)},
        "vertex_images": {"v": "v"},
    }


# the golden, silver, x -> xxxy, plastic and rank-4 maps, the golden one also
# with the markings y -> e1 e2 and y -> e2 e1, whose leaf words cancel (with
# y -> e2 e1 also where tt leaf joins its pieces, at --iters 2 and from 4 on),
# and the plastic and rank-4 inverses, whose images hold reversed
# half-edges; and a golden map on the theta graph, whose tree edge e1 reads
# the empty word, as do pieces of tt leaf at --iters 0 to 2; each with odd
# and even --iters, with leaves shorter and longer than 1 024 half-edges
LEAF_WORD_CASES = [
    ("golden", GOLDEN_MAP, (0, 1, 4, 15, 16, 22)),
    ("silver", _rose_map([(1, 1, 2), (1,)]), (0, 1, 2, 7, 10)),
    ("x-xxxy", _rose_map([(1, 1, 1, 2), (1,)]), (0, 1, 3, 6, 7)),
    ("golden-marked", _rose_map([(1, 2), (1,)], {"x": ["e1"], "y": ["e1", "e2"]}), (0, 3, 15, 16, 21)),
    ("golden-marked-yx", _rose_map([(1, 2), (1,)], {"x": ["e1"], "y": ["e2", "e1"]}),
     (0, 1, 3, 14, 15, 21)),
    ("plastic", _rose_map([(2,), (3,), (1, 2)]), (0, 2, 9, 26, 33)),
    ("plastic-inverse", _rose_map([(3, -1), (1,), (2,)]), (0, 3, 8, 17, 20, 23)),
    ("rank-4", _rose_map([(2,), (3,), (4,), (1, 2)]), (0, 3, 17, 41, 50)),
    ("rank-4-inverse", _rose_map([(4, -1), (1,), (2,), (3,)]), (0, 5, 12, 19, 22, 27)),
    ("theta", {"graph": THETA_DICT, "vertex_images": {"u": "u", "v": "v"},
               "edge_images": {"e1": ["e2"], "e2": ["e1", "~e3", "e1"], "e3": ["e1"]}},
     (0, 1, 2, 5, 16, 21)),
]


@pytest.fixture()
def files(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return {
        "rose": write("rose.graph", point_to_dict(rose(2))),
        "uneven": write("uneven.graph", point_to_dict(rose(2, [1 / 3, 2 / 3]))),
        "theta": write("theta.graph", THETA_DICT),
        "fig1": write("fig1.graph", FIG1_TARGET_DICT),
        "fwd": write("golden.map", GOLDEN_MAP),
        "bwd": write("golden_inv.map", GOLDEN_INV_MAP),
        "tmp": tmp_path,
    }


class TestValidate:
    def test_graph_ok(self, files, capsys):
        assert main(["validate", files["theta"]]) == 0
        assert "valid" in capsys.readouterr().out

    def test_selfmap_ok(self, files, capsys):
        assert main(["validate", files["fwd"]]) == 0
        out = capsys.readouterr().out
        assert "train-track=True" in out

    def test_reducible_selfmap_fails(self, tmp_path, capsys):
        # x -> x y X, y -> y is a train-track map whose transition matrix is
        # reducible; validate prints its line and fails as tt verify and pf do
        p = tmp_path / "reducible.map"
        p.write_text(json.dumps(_rose_map([(1, 2, -1), (2,)])))
        assert main(["validate", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "self-map: train-track=True irreducible=False\n"
        assert captured.err == "error: transition matrix is reducible\n"
        for action in ("verify", "pf"):
            assert main(["tt", action, str(p)]) == 1
            assert capsys.readouterr().err == "error: transition matrix is reducible\n"

    def test_illegal_turn_has_one_message(self, tmp_path, capsys):
        # x -> x y x Y, y -> x crosses the illegal turn (-1, 2); validate and
        # tt verify print their report lines, then fail as tt pf does
        p = tmp_path / "illegal.map"
        p.write_text(json.dumps(_rose_map([(1, 2, 1, -2), (1,)])))
        message = "error: not a train-track map: edge image crosses illegal turn (-1, 2)\n"
        for argv, out in ((["validate"], "self-map: train-track=False irreducible=True\n"),
                          (["tt", "verify"],
                           "train-track False\nirreducible True\nillegal-turn (-1, 2)\n"),
                          (["tt", "pf"], "")):
            assert main(argv + [str(p)]) == 1
            assert capsys.readouterr() == (out, message)

    def test_emitted_files_roundtrip(self, files, capsys):
        # every file the suite emits validates
        for key in ("rose", "uneven", "theta", "fig1"):
            assert main(["validate", files[key]]) == 0

    def test_far_axis_point(self, tmp_path, capsys, golden_axis):
        # the golden axis point at s = 16 has 4 181 marking letters; a copy
        # with one letter of a marking loop changed is no basis
        d = point_to_dict(golden_axis.shift(golden_axis.base, 16))
        p = tmp_path / "far.graph"
        p.write_text(json.dumps(d))
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr().out == "valid\n"
        loop = list(d["marking"]["a"])
        loop[1000] = "e2" if loop[1000] == "e1" else "e1"
        p.write_text(json.dumps(dict(d, marking=dict(d["marking"], a=loop))))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == (
            "invalid: marking loops do not define a basis of the free group\n",
            "error: point fails validation\n")

    @pytest.mark.parametrize("graph, problem", [
        (dict(GOLDEN_MAP["graph"], rank=3, marking={"x": ["e1"], "y": ["e2"], "z": ["e1"]}),
         "first Betti number 2 != rank 3"),
        (dict(GOLDEN_MAP["graph"], marking={"x": [], "y": ["e2"]}), "marking loop 1 is empty"),
        (dict(THETA_DICT, marking={"x": ["e1"], "y": ["e2", "~e3"]}),
         "marking loop 1 is not closed at the basepoint"),
    ], ids=["betti", "empty-loop", "open-loop"])
    def test_marking_problems(self, tmp_path, capsys, graph, problem):
        p = tmp_path / "bad.graph"
        p.write_text(json.dumps(graph))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == (f"invalid: {problem}\n", "error: point fails validation\n")

    def test_nan_length_is_invalid(self, files, tmp_path, capsys):
        # NaN fails every comparison: the point once validated, and dist
        # printed "value nan" before failing on an empty min()
        p = tmp_path / "nan.graph"
        edges = [dict(THETA_DICT["edges"][0], length=math.nan), *THETA_DICT["edges"][1:]]
        p.write_text(json.dumps(dict(THETA_DICT, edges=edges)))
        problems = ["volume nan != 1", "edge e1 length nan outside [0, 1]"]
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("".join(f"invalid: {s}\n" for s in problems),
                                       "error: point fails validation\n")
        assert main(["dist", str(p), files["theta"]]) == 1
        assert capsys.readouterr() == ("", f"error: {'; '.join(problems)}\n")

    @pytest.mark.parametrize("kind", ["graph", "self-map"])
    @pytest.mark.parametrize("graph, message", [
        (dict(GOLDEN_MAP["graph"], edges=[dict(GOLDEN_MAP["graph"]["edges"][0], id="~e1"),
                                          GOLDEN_MAP["graph"]["edges"][1]],
              marking={"x": ["~e1"], "y": ["e2"]}),
         "edge id '~e1' starts with '~', which marks an edge reversed"),
        (dict(GOLDEN_MAP["graph"], vertices=["v", "v"]), "duplicate vertex name 'v'"),
        (dict(GOLDEN_MAP["graph"], vertices=["v", 1, "1"]), "duplicate vertex name '1'"),
    ], ids=["tilde-edge-id", "duplicate-vertex", "duplicate-after-str"])
    def test_ambiguous_names(self, tmp_path, capsys, kind, graph, message):
        # "~e1" once read as e1 reversed ("unknown edge id 'e1' in marking"),
        # and duplicate vertex names collapsed into one ("vertex 0 has
        # valence 0 < 3; graph is not connected")
        p = tmp_path / "ambiguous.json"
        p.write_text(json.dumps(graph if kind == "graph" else dict(GOLDEN_MAP, graph=graph)))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: invalid {kind} file {p}: {message}\n")

    def test_invalid_graph(self, files, tmp_path, capsys):
        bad = dict(THETA_DICT)
        bad["edges"] = [dict(e, length="1/2") for e in THETA_DICT["edges"]]
        p = tmp_path / "bad.graph"
        p.write_text(json.dumps(bad))
        assert main(["validate", str(p)]) == 1


# graph files of the wrong shape: each once raised a traceback from some command
MALFORMED_GRAPHS = {
    "unknown-vertex": dict(THETA_DICT, edges=[dict(THETA_DICT["edges"][0], to="w"),
                                              *THETA_DICT["edges"][1:]]),
    "no-length": dict(THETA_DICT, edges=[{k: v for k, v in e.items() if k != "length"}
                                         for e in THETA_DICT["edges"]]),
    "unknown-basepoint": dict(THETA_DICT, basepoint="w"),
    "zero-denominator": dict(THETA_DICT, edges=[dict(THETA_DICT["edges"][0], length="1/0"),
                                                *THETA_DICT["edges"][1:]]),
    "edges-a-number": dict(THETA_DICT, edges=5),
    "top-level-array": [THETA_DICT],
    "top-level-number": 5,
}
MALFORMED_MAPS = {
    **{f"graph-{name}": dict(GOLDEN_MAP, graph=g) for name, g in MALFORMED_GRAPHS.items()},
    "top-level-array": [GOLDEN_MAP],
    "images-a-number": dict(GOLDEN_MAP, edge_images=3),
    "ref-a-number": dict(GOLDEN_MAP, edge_images={"e1": ["e1", 2], "e2": ["e1"]}),
    "empty-image": {"graph": GOLDEN_MAP["graph"], "edge_images": {"e1": [], "e2": ["e1"]}},
}


# JSON values a mutated file puts in place of a value, or adds
MUTATION_VALUES = [None, True, 0, -1, 3, 10 ** 400, 0.5, 1e308, "", "v", "w", "e1", "~e1", "e9",
                   "1/0", "x", [], {}, ["e1"], ["~e2", "e1"], [1], {"v": "v"}, {"x": ["e1"]}]


def _mutated(data, rng):
    """data, read back from its JSON text, after one to three edits at
    random places: a value replaced, a key or entry deleted, or a key or
    entry added, each new value drawn from MUTATION_VALUES."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 3)):
        places, stack = [], [data]
        while stack:
            node = stack.pop()
            keys = list(node) if isinstance(node, dict) else range(len(node))
            places += [(node, k) for k in keys]
            stack += [node[k] for k in keys if isinstance(node[k], (dict, list))]
        if not places:
            continue
        node, key = rng.choice(places)
        value = json.loads(json.dumps(rng.choice(MUTATION_VALUES)))
        edit = rng.randrange(3)
        if edit == 0:
            node[key] = value
        elif edit == 1:
            del node[key]
        elif isinstance(node, dict):
            node[rng.choice(["extra", "rank", "v", "e1", "x"])] = value
        else:
            node.insert(rng.randint(0, len(node)), value)
    return data


class TestFileErrors:
    def test_readers_raise_only_value_error(self):
        # cli._parse turns a ValueError, and nothing else, into an invalid
        # file error: no file of the wrong shape may raise another type
        rng = random.Random("mutated-files")
        rejected = 0
        for reader, data in ((point_from_dict, THETA_DICT), (selfmap_from_dict, GOLDEN_MAP)) * 1000:
            mutated = _mutated(data, rng)
            try:
                reader(mutated)
            except ValueError:
                rejected += 1
            except Exception as e:
                pytest.fail(f"{reader.__name__} raised {e!r} on {json.dumps(mutated)}")
        assert 1000 < rejected < 2000

    @pytest.mark.parametrize("name", MALFORMED_GRAPHS)
    def test_malformed_graph_file(self, files, tmp_path, capsys, name):
        p = tmp_path / f"{name}.graph"
        p.write_text(json.dumps(MALFORMED_GRAPHS[name]))
        for argv in (["validate", p], ["candidates", p], ["dist", files["rose"], p],
                     ["axis", "project", files["fwd"], files["bwd"], p]):
            assert main([str(a) for a in argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: invalid graph file {p}: ")

    @pytest.mark.parametrize("name", MALFORMED_MAPS)
    def test_malformed_selfmap_file(self, files, tmp_path, capsys, name):
        p = tmp_path / f"{name}.map"
        p.write_text(json.dumps(MALFORMED_MAPS[name]))
        argvs = [["tt", "pf", p], ["tt", "leaf", p, "--edge", "e1", "--iters", "1"],
                 ["axis", "project", p, files["bwd"], files["rose"]]]
        if name != "top-level-array":  # validate reads a file without edge_images as a graph
            argvs.append(["validate", p])
        for argv in argvs:
            assert main([str(a) for a in argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: invalid self-map file {p}: ")

    def test_zero_denominator_is_named(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text(json.dumps(MALFORMED_GRAPHS["zero-denominator"]))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == (
            "", f"error: invalid graph file {p}: length '1/0' divides by zero\n")

    @pytest.mark.parametrize("length, message", [
        (True, "length True is not a number or a fraction string"),
        (None, "length None is not a number or a fraction string"),
        ([1], "length [1] is not a number or a fraction string"),
        ("one", "Invalid literal for Fraction: 'one'"),
        (10 ** 400, f"length {10 ** 400!r} is too large for a float"),
    ], ids=["true", "null", "list", "word", "huge"])
    def test_length_must_be_a_number(self, tmp_path, capsys, length, message):
        # a length of true once loaded as 1.0, and the theta of lengths
        # true, 0, 0 was judged as a point with a zero-length circle
        p = tmp_path / "bad.graph"
        edges = [dict(THETA_DICT["edges"][0], length=length),
                 *(dict(e, length=0) for e in THETA_DICT["edges"][1:])]
        p.write_text(json.dumps(dict(THETA_DICT, edges=edges)))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: invalid graph file {p}: {message}\n")

    @pytest.mark.parametrize("kind, data, message", [
        ("graph", dict(THETA_DICT, edges=[dict(THETA_DICT["edges"][0], **{"from": "w"}),
                                          *THETA_DICT["edges"][1:]]),
         "unknown vertex 'w' in edge e1"),
        ("graph", dict(THETA_DICT, edges=[*THETA_DICT["edges"][:2],
                                          dict(THETA_DICT["edges"][2], to="w")]),
         "unknown vertex 'w' in edge e3"),
        ("graph", dict(THETA_DICT, basepoint="w"), "unknown vertex 'w' in basepoint"),
        ("self-map", dict(GOLDEN_MAP, vertex_images={"v": "v", "u": "v"}),
         "unknown vertex 'u' in vertex_images"),
        ("self-map", dict(GOLDEN_MAP, vertex_images={"v": "w"}),
         "unknown vertex 'w' in vertex_images"),
    ], ids=["edge-from", "edge-to", "basepoint", "image-key", "image-value"])
    def test_unknown_vertex_is_named(self, tmp_path, capsys, kind, data, message):
        # each once printed the bare name as the whole reason
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: invalid {kind} file {p}: {message}\n")

    def test_unknown_refs_keep_their_messages(self, files, tmp_path, capsys):
        p = tmp_path / "bad.map"
        p.write_text(json.dumps(dict(GOLDEN_MAP, edge_images={"e1": ["e1", "~e3"], "e2": ["e1"]})))
        assert main(["tt", "pf", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid self-map file {p}: unknown edge id 'e3' in edge image\n")
        p.write_text(json.dumps(dict(THETA_DICT, marking={"x": ["e1", "~e9"], "y": ["e2", "~e3"]})))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid graph file {p}: unknown edge id 'e9' in marking\n")

    def test_unknown_edge_image_key_is_named(self, tmp_path, capsys):
        p = tmp_path / "bad.map"
        p.write_text(json.dumps(dict(GOLDEN_MAP, edge_images={"e1": ["e1", "e2"], "e9": ["e1"]})))
        for argv in (["tt", "pf"], ["validate"]):
            assert main(argv + [str(p)]) == 1
            assert capsys.readouterr().err == (
                f"error: invalid self-map file {p}: unknown edge id 'e9' in edge_images\n")

    def test_missing_top_level_key_is_named(self, files, tmp_path, capsys):
        # each once printed the bare key as the whole reason
        assert main(["tt", "pf", files["rose"]]) == 1
        assert capsys.readouterr() == (
            "", f"error: invalid self-map file {files['rose']}: "
            "self-map file missing key 'graph'\n")
        p = tmp_path / "bad.map"
        no_graph = {"edge_images": GOLDEN_MAP["edge_images"]}
        no_images = {"graph": GOLDEN_MAP["graph"], "vertex_images": {"v": "v"}}
        # validate reads a file without edge_images as a graph
        for data, key, commands in ((no_graph, "graph", (["tt", "pf"], ["validate"])),
                                    (no_images, "edge_images", (["tt", "pf"],))):
            p.write_text(json.dumps(data))
            for argv in commands:
                assert main(argv + [str(p)]) == 1
                assert capsys.readouterr() == (
                    "", f"error: invalid self-map file {p}: self-map file missing key '{key}'\n")

    @pytest.mark.parametrize("kind, argv, data, message", [
        # a string was read one character at a time: this file loaded as
        # the golden map on the edges a and b, and tt pf printed its lambda
        ("self-map", ["tt", "pf"],
         {"graph": dict(GOLDEN_MAP["graph"], edges=[dict(e, id=n) for e, n in zip(
             GOLDEN_MAP["graph"]["edges"], "ab")], marking={"x": ["a"], "y": ["b"]}),
          "edge_images": {"a": "ab", "b": "a"}},
         "edge image 'a' must be a JSON array, not string"),
        # and this graph file was valid
        ("graph", ["validate"],
         dict(GOLDEN_MAP["graph"], edges=[dict(e, id=n) for e, n in zip(
             GOLDEN_MAP["graph"]["edges"], "ab")], marking={"x": "a", "y": ["b"]}),
         "marking loop 'x' must be a JSON array, not string"),
        ("self-map", ["tt", "pf"], dict(GOLDEN_MAP, graph=None),
         "key 'graph' must be a JSON object, not null"),
        ("self-map", ["tt", "pf"], dict(GOLDEN_MAP, edge_images=[["e1", "e2"], ["e1"]]),
         "key 'edge_images' must be a JSON object, not array"),
        ("self-map", ["tt", "pf"], dict(GOLDEN_MAP, vertex_images=["v"]),
         "key 'vertex_images' must be a JSON object, not array"),
        ("graph", ["validate"], dict(THETA_DICT, edges=None),
         "key 'edges' must be a JSON array, not null"),
        ("graph", ["validate"], dict(THETA_DICT, rank="2"),
         "key 'rank' must be a JSON integer, not string"),
        ("graph", ["validate"], dict(THETA_DICT, edges=[5, *THETA_DICT["edges"][1:]]),
         "entry 0 of 'edges' must be a JSON object, not integer"),
        ("graph", ["validate"], dict(THETA_DICT, edges=[
            {k: v for k, v in e.items() if k != "length"} for e in THETA_DICT["edges"]]),
         "entry 0 of 'edges' missing key 'length'"),
        ("graph", ["validate"], [THETA_DICT], "a graph must be a JSON object, not array"),
        ("self-map", ["tt", "pf"], [GOLDEN_MAP], "a self-map must be a JSON object, not array"),
        ("self-map", ["tt", "pf"], dict(GOLDEN_MAP, edge_images={"e1": ["e1", 2], "e2": ["e1"]}),
         "unknown edge id 2 in edge image"),
    ], ids=["image-a-string", "loop-a-string", "graph-null", "images-a-list",
            "vertex-images-a-list", "edges-null", "rank-a-string", "edge-a-number",
            "edge-without-length", "graph-a-list", "self-map-a-list", "ref-a-number"])
    def test_wrong_json_type_is_named(self, tmp_path, capsys, kind, argv, data, message):
        # each once printed Python's own message, or loaded
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(argv + [str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: invalid {kind} file {p}: {message}\n")

    def test_empty_image_reads_as_missing(self, tmp_path, capsys):
        # with no vertex_images, the vertex images are read off the edge images
        for name, images in (("empty", {"e1": [], "e2": ["e1"]}), ("missing", {"e2": ["e1"]})):
            p = tmp_path / f"{name}.map"
            p.write_text(json.dumps({"graph": GOLDEN_MAP["graph"], "edge_images": images}))
            for argv in (["validate", p], ["tt", "pf", p]):
                assert main([str(a) for a in argv]) == 1
                assert capsys.readouterr().err == (
                    f"error: invalid self-map file {p}: edge e1 has empty or missing image\n")

    def test_unparsable_file_is_an_io_error_in_every_command(self, files, tmp_path, capsys):
        p = tmp_path / "bad.json"
        for content in (b"{not json", b"\xff\xfe"):
            p.write_bytes(content)
            for argv in (["validate", p], ["candidates", p], ["dist", files["rose"], p],
                         ["tt", "pf", p], ["tt", "leaf", p, "--edge", "e1", "--iters", "1"],
                         ["axis", "project", p, files["bwd"], files["rose"]]):
                assert main([str(a) for a in argv]) == 2
                assert capsys.readouterr().err.startswith(f"error: cannot parse {p}: ")

    def test_validate_opens_a_file_once(self, files, capsys, monkeypatch):
        opened = []
        real = open

        def counting(path, *args, **kwargs):
            opened.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting)
        for key in ("fwd", "theta"):
            assert main(["validate", files[key]]) == 0
            assert opened.count(files[key]) == 1
            opened.clear()


class TestDist:
    def test_basic(self, files, capsys):
        assert main(["dist", files["rose"], files["uneven"]]) == 0
        out = capsys.readouterr().out
        assert "value 0.287682072" in out
        assert "witness b" in out
        assert "class,len_x,len_y,stretch" in out

    def test_oracle_flag(self, files, capsys):
        assert main(["dist", files["rose"], files["uneven"], "--oracle", "4"]) == 0
        assert "oracle(L=4) 0.287682072" in capsys.readouterr().out

    def test_oracle_zero_is_a_usage_error(self, files, capsys):
        # a bound on an option is a usage error, as for --oracle -1; it once
        # exited 1 with "oracle length bound must be >= 1"
        assert main(["dist", files["rose"], files["uneven"], "--oracle", "0"]) == 2
        assert capsys.readouterr() == ("", "error: --oracle must be >= 1\n")

    def test_missing_file(self, files, capsys):
        assert main(["dist", str(files["tmp"] / "missing.graph"), files["rose"]]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_out_csv(self, files, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["dist", files["rose"], files["uneven"], "--out", str(out)]) == 0
        assert out.read_text().startswith("class,len_x,len_y,stretch")

    @pytest.mark.parametrize("argv", [
        ["dist", "rose", "uneven"],
        ["axis", "contract", "fwd", "bwd", "--samples", "1"],
        ["axis", "pair", "fwd", "bwd", "--pairs", "1", "--window", "2"],
    ], ids=["dist", "contract", "pair"])
    def test_unwritable_out(self, files, tmp_path, capsys, argv):
        # once a FileNotFoundError traceback; now an I/O error, and no CSV
        # reaches stdout in its place
        out = tmp_path / "missing" / "t.csv"
        args = [files.get(a, a) for a in argv] + ["--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert "," not in captured.out

    @pytest.mark.parametrize("argv", [
        ["dist", "rose", "uneven"],
        ["axis", "contract", "fwd", "bwd", "--samples", "1"],
        ["axis", "pair", "fwd", "bwd", "--pairs", "1", "--window", "2"],
    ], ids=["dist", "contract", "pair"])
    def test_out_is_checked_first(self, files, tmp_path, capsys, monkeypatch, argv):
        # the path was once tried after the work: dist printed its value
        # and witness lines, and contract ran every sample, before exit 2
        calls = []

        def counting(f):
            return lambda *a, **k: calls.append(f) or f(*a, **k)

        for name in ("distance", "two_axis_report"):
            monkeypatch.setattr(cli_mod, name, counting(getattr(cli_mod, name)))
        for mode, (header, sample, summary) in list(axes_mod.CONTRACTION_MODES.items()):
            monkeypatch.setitem(axes_mod.CONTRACTION_MODES, mode,
                                (header, counting(sample), summary))
        args = [files.get(a, a) for a in argv]
        out = tmp_path / "missing" / "t.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: No such file or directory\n")
        assert calls == []
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
        assert calls

    OUT_COMMANDS = pytest.mark.parametrize("argv", [
        ["dist", "rose", "uneven"],
        ["axis", "contract", "fwd", "bwd", "--samples", "1"],
        ["axis", "pair", "fwd", "bwd", "--pairs", "1", "--window", "2"],
    ], ids=["dist", "contract", "pair"])

    @OUT_COMMANDS
    def test_out_overwrites_a_longer_file(self, files, tmp_path, capsys, argv):
        args = [files.get(a, a) for a in argv]
        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        assert main(args + ["--out", str(fresh)]) == 0
        old.write_bytes(b"stale,row\n" * 1000)
        assert main(args + ["--out", str(old)]) == 0
        assert old.read_bytes() == fresh.read_bytes()

    @OUT_COMMANDS
    def test_failed_run_leaves_out_as_it_is(self, files, tmp_path, capsys, argv):
        # the first input file is invalid, which is found after --out is open
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        args = [files.get(a, a) for a in argv]
        args[next(i for i, a in enumerate(argv) if a in files)] = str(bad)
        old = tmp_path / "old.csv"
        old.write_bytes(b"stale,row\n" * 100)
        assert main(args + ["--out", str(old)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid ")
        assert old.read_bytes() == b"stale,row\n" * 100

    @OUT_COMMANDS
    def test_out_to_dev_null(self, files, capsys, argv):
        assert main([files.get(a, a) for a in argv] + ["--out", os.devnull]) == 0
        assert "," not in capsys.readouterr().out

    @OUT_COMMANDS
    def test_out_is_opened_once_without_truncation(self, files, tmp_path, capsys,
                                                   monkeypatch, argv):
        out = str(tmp_path / "t.csv")
        opened = []
        real_os_open, real_open = os.open, builtins.open

        def os_open(path, flags, *args, **kwargs):
            opened.append(("os.open", str(path), flags))
            return real_os_open(path, flags, *args, **kwargs)

        def py_open(file, mode="r", *args, **kwargs):
            opened.append(("open", str(file), mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", py_open)
        args = [files.get(a, a) for a in argv] + ["--out", out]
        for _ in range(2):  # the file created, then overwritten
            opened.clear()
            assert main(args) == 0
            (kind, _, how), = [o for o in opened if o[1] == out]
            assert not (how & os.O_TRUNC if kind == "os.open" else "w" in how)


class TestWhitehead:
    def test_minimize_trace_format(self, capsys):
        assert main(["whitehead", "minimize", "ab"]) == 0
        out = capsys.readouterr().out
        assert "step 1: move" in out and "length 2->1" in out
        assert "basis-reached" in out

    def test_repeated_generator_is_no_basis(self, capsys):
        # a and A are one cyclic word twice: not part of a basis
        assert main(["whitehead", "minimize", "a", "A"]) == 0
        assert capsys.readouterr().out == "final a a (no-cut-vertex)\n"

    def test_primitive(self, capsys):
        assert main(["whitehead", "primitive", "xyXY"]) == 0
        assert "not primitive" in capsys.readouterr().out
        assert main(["whitehead", "primitive", "x"]) == 0

    def test_rank_flag(self, capsys):
        assert main(["whitehead", "primitive", "aa", "--rank", "3"]) == 0
        assert "not primitive" in capsys.readouterr().out

    def test_rank8_without_exhaustive_scan(self, capsys):
        # the 2n * 4^(n-1) move list lives only in tests/oracles.py, so the
        # library cannot fall back to it; at rank 8 it has 262 144 moves
        rng = random.Random(8)
        w = CyclicWord.make((1,))
        while len(w) < 200:
            w = apply_cyclic(random_whitehead_move(8, rng).automorphism(8), w)
        assert main(["whitehead", "primitive", format_letters(w.letters), "--rank", "8"]) == 0
        assert capsys.readouterr().out.strip() == "primitive"
        root = [rng.choice([1, -1]) * x for x in [*range(1, 9), *range(1, 9)]]
        square = format_letters(tuple(root + root))
        assert main(["whitehead", "primitive", square, "--rank", "8"]) == 0
        assert capsys.readouterr().out.strip() == "not primitive"


class TestTT:
    def test_verify(self, files, capsys):
        assert main(["tt", "verify", files["fwd"]]) == 0
        out = capsys.readouterr().out
        assert "train-track True" in out and "irreducible True" in out

    def test_pf(self, files, capsys):
        assert main(["tt", "pf", files["fwd"]]) == 0
        out = capsys.readouterr().out
        assert "lambda 1.61803399" in out
        assert "length e1 0.618" in out

    def test_leaf(self, files, capsys):
        assert main(["tt", "leaf", files["fwd"], "--edge", "e1", "--iters", "4"]) == 0
        out = capsys.readouterr().out
        assert "word abaababa" in out

    def test_leaf_word_read_through_label_table(self, files, capsys, monkeypatch):
        # golden f^25(e1) has 196 418 half-edges; once the map is loaded
        # and its marking inverse read (on first use, since validation
        # reads none), neither letter-by-letter pass of the old path_word
        # may run, nor the reduce_letters that graphs looks up
        tt = pf_metric(selfmap_from_dict(GOLDEN_MAP))
        path = oracles.leaf_path(tt, 1, 25)
        word = oracles.path_word(tt.point, path)

        def refuse(*args):
            raise AssertionError("letter-by-letter pass over the leaf")

        def pf_then_refuse(sm):
            tt = pf_metric(sm)
            tt.point.marking_inverse()
            monkeypatch.setattr(Automorphism, "apply_letters", refuse)
            monkeypatch.setattr(graphs_mod, "reduce_letters", refuse)
            return tt

        monkeypatch.setattr(cli_mod, "pf_metric", pf_then_refuse)
        assert main(["tt", "leaf", files["fwd"], "--edge", "e1", "--iters", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and len(lines[0].split()) == 1 + len(path) == 196_419
        assert lines[1] == f"word {word}"

    def test_leaf_path_line_with_refs_of_unequal_length(self, tmp_path, capsys):
        # the golden maps with edges "a" and "edge22": refs of 1 to 7 bytes
        ids = {"e1": "a", "e2": "edge22", "~e2": "~edge22"}
        graph = dict(GOLDEN_MAP["graph"],
                     edges=[dict(e, id=ids[e["id"]]) for e in GOLDEN_MAP["graph"]["edges"]],
                     marking={"x": ["a"], "y": ["edge22"]})
        refs = {1: "a", -1: "~a", 2: "edge22", -2: "~edge22"}
        for name, images in (("fwd", GOLDEN_MAP["edge_images"]),
                             ("bwd", GOLDEN_INV_MAP["edge_images"])):
            p = tmp_path / f"{name}.map"
            p.write_text(json.dumps({
                "graph": graph, "vertex_images": {"v": "v"},
                "edge_images": {ids[e]: [ids[h] for h in image] for e, image in images.items()}}))
            tt = pf_metric(selfmap_from_dict(json.loads(p.read_text())))
            for edge, h in (("a", 1), ("edge22", 2)):
                for k in (0, 1, 2, 9, 17):
                    assert main(["tt", "leaf", str(p), "--edge", edge, "--iters", str(k)]) == 0
                    path = oracles.leaf_path(tt, h, k)
                    assert capsys.readouterr().out == (
                        f"path {' '.join(refs[x] for x in path)}\n"
                        f"word {oracles.path_word(tt.point, path)}\n")

    @pytest.mark.parametrize("name, data, iters", LEAF_WORD_CASES, ids=[c[0] for c in LEAF_WORD_CASES])
    def test_leaf_word_line_matches_format_letters(self, tmp_path, capsys, name, data, iters):
        p = tmp_path / f"{name}.map"
        p.write_text(json.dumps(data))
        tt = pf_metric(selfmap_from_dict(data))
        for k in iters:
            for h in range(1, tt.graph.n_edges + 1):
                assert main(["tt", "leaf", str(p), "--edge", f"e{h}", "--iters", str(k)]) == 0
                word = oracles.path_word(tt.point, oracles.leaf_path(tt, h, k))
                assert capsys.readouterr().out.splitlines()[1] == (
                    f"word {format_letters(word.letters) or 1}")

    @pytest.mark.parametrize("name, data, iters", LEAF_WORD_CASES, ids=[c[0] for c in LEAF_WORD_CASES])
    def test_leaf_of_reversed_edge(self, tmp_path, capsys, name, data, iters):
        p = tmp_path / f"{name}.map"
        p.write_text(json.dumps(data))
        tt = pf_metric(selfmap_from_dict(data))
        for k in iters:
            for h in range(1, tt.graph.n_edges + 1):
                assert main(["tt", "leaf", str(p), "--edge", f"~e{h}", "--iters", str(k)]) == 0
                path = oracles.leaf_path(tt, -h, k)
                refs = " ".join(("~" if x < 0 else "") + f"e{abs(x)}" for x in path)
                assert capsys.readouterr().out == (
                    f"path {refs}\nword {oracles.path_word(tt.point, path)}\n")

    def test_leaf_word_reduced_only_where_a_join_cancels(self, tmp_path, capsys, monkeypatch):
        # of these runs, only those of y -> e2 e1 from --iters 14 on have a
        # piece join that cancels, and only theta's at --iters 0 a piece
        # with the empty word
        reduced = []
        real = cli_mod.join_pieces
        monkeypatch.setattr(cli_mod, "join_pieces",
                            lambda pieces, keys: reduced.append(len(keys)) or real(pieces, keys))
        for name, data, iters in LEAF_WORD_CASES:
            p = tmp_path / f"{name}.map"
            p.write_text(json.dumps(data))
            for k in iters:
                assert main(["tt", "leaf", str(p), "--edge", "e1", "--iters", str(k)]) == 0
                capsys.readouterr()
                assert len(reduced) == ((name == "golden-marked-yx" and k >= 14)
                                        or (name == "theta" and k == 0))
                reduced.clear()

    def test_leaf_edge_errors(self, files, capsys):
        assert main(["tt", "leaf", files["fwd"], "--edge", "~e3", "--iters", "1"]) == 2
        assert capsys.readouterr().err == "error: unknown edge ~e3\n"
        assert main(["tt", "leaf", files["fwd"], "--edge", "~~e1", "--iters", "1"]) == 2
        assert capsys.readouterr().err == "error: unknown edge ~~e1\n"
        assert main(["tt", "leaf", files["fwd"], "--edge", "~e2", "--iters", "60"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: leaf f^60(~e2) has more than 10000000 half-edges")

    def test_leaf_too_long_is_a_domain_error(self, files, capsys):
        assert main(["tt", "leaf", files["fwd"], "--edge", "e1", "--iters", "60"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: leaf f^60(e1) has more than 10000000 half-edges")

    def test_whsearch(self, files, capsys):
        assert main(["tt", "whsearch", files["fwd"], files["bwd"]]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "moves", "stabilized-k", "lamination-plus", "lamination-minus", "axis-distance"]
        assert "moves 0" in out

    def test_whsearch_rank_mismatch(self, files, tmp_path, capsys):
        start = tmp_path / "rose3.graph"
        start.write_text(json.dumps(point_to_dict(rose(3))))
        assert main(["tt", "whsearch", files["fwd"], files["bwd"], "--start", str(start)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rank mismatch: 3 vs 2\n"
        assert captured.out == ""

    def test_non_tt_rejected(self, files, tmp_path, capsys):
        bad = dict(GOLDEN_MAP)
        bad["edge_images"] = {"e1": ["e2"], "e2": ["e1"]}
        p = tmp_path / "swap.map"
        p.write_text(json.dumps(bad))
        assert main(["tt", "pf", str(p)]) == 1


class TestAxis:
    def test_project(self, files, capsys):
        assert main(["axis", "project", files["fwd"], files["bwd"], files["rose"]]) == 0
        out = capsys.readouterr().out
        assert "argmin 0" in out
        # d(rose, G_0) = log(2 / phi) = 0.21193535550034...
        assert "value 0.211935356" in out

    def test_profile(self, files, capsys):
        assert main(["axis", "profile", files["fwd"], files["bwd"],
                     "--word", "a", "--window", "3"]) == 0
        out = capsys.readouterr().out
        assert "min-set -1" in out

    def test_profile_word_in_axis_basis(self, files, capsys):
        # b is the second generator of the axis, not renamed onto a
        assert main(["axis", "profile", files["fwd"], files["bwd"],
                     "--word", "b", "--window", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("l(-1) 1\nl(0) 0.381966011\nl(1) 0.618033989\n")

    def test_profile_window_below_one(self, files, capsys):
        # window 0 once printed slopes fitted to the single level 0
        assert main(["axis", "profile", files["fwd"], files["bwd"],
                     "--word", "ab", "--window", "0"]) == 2
        assert capsys.readouterr() == ("", "error: --window must be >= 1\n")

    def test_profile_letter_beyond_rank(self, files, capsys):
        assert main(["axis", "profile", files["fwd"], files["bwd"], "--word", "c"]) == 1
        captured = capsys.readouterr()
        assert "letter 3 out of rank range (rank 2)" in captured.err
        assert captured.out == ""

    def test_project_rank_mismatch(self, files, tmp_path, capsys):
        point = tmp_path / "rose3.graph"
        point.write_text(json.dumps(point_to_dict(rose(3))))
        assert main(["axis", "project", files["fwd"], files["bwd"], str(point)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rank mismatch: 3 vs 2\n"
        assert captured.out == ""

    def test_contract_deterministic(self, files, tmp_path):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        args = ["axis", "contract", files["fwd"], files["bwd"],
                "--samples", "4", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pair(self, files, capsys):
        assert main(["axis", "pair", files["fwd"], files["bwd"],
                     "--pairs", "1", "--window", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("windows,diam,parallel")

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_pair_window_below_two(self, files, capsys, window):
        assert main(["axis", "pair", files["fwd"], files["bwd"],
                     "--pairs", "2", "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --window must be >= 2\n"
        assert captured.out == ""

    def test_pair_window_checked_with_no_pairs(self, files, capsys):
        # a run of zero pairs never reaches two_axis_report; no map is read
        missing = str(files["tmp"] / "missing.map")
        assert main(["axis", "pair", missing, missing, "--pairs", "0", "--window", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --window must be >= 2\n"
        assert captured.out == ""

    @pytest.mark.parametrize("images, message", [
        ({"e1": ["e1", "e2"], "e2": ["e1", "~e2"]},
         "not a train-track map: edge image crosses illegal turn (-1, 2)"),
        (GOLDEN_MAP["edge_images"], "backward train track does not represent the inverse"),
    ], ids=["illegal-turn", "not-inverse"])
    def test_bad_backward_map(self, files, tmp_path, capsys, images, message):
        bwd = tmp_path / "bad_inv.map"
        bwd.write_text(json.dumps(dict(GOLDEN_INV_MAP, edge_images=images)))
        assert main(["axis", "project", files["fwd"], str(bwd), files["rose"]]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["diverge", "--radius", "6"],
                                      ["profile", "--word", "a", "--window", "25"]],
                             ids=["diverge", "profile"])
    def test_far_levels_are_bounded(self, files, capsys, monkeypatch, argv):
        # both pass at the bound LEAF_PATH_MAX; at 10^4 the paths of their
        # far levels pass it, and both fail naming it: diverge before it
        # realizes a detour point at the next, profile at a walk level
        args = ["axis", argv[0], files["fwd"], files["bwd"], *argv[1:]]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(graphs_mod, "LEAF_PATH_MAX", 10_000)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(" half-edges, more than LEAF_PATH_MAX (10000)\n")

    @pytest.mark.parametrize("argv", [["diverge", "--radius", "600"],
                                      ["pair", "--pairs", "1", "--window", "1500"]],
                             ids=["diverge", "pair"])
    def test_far_points_are_bounded(self, files, capsys, monkeypatch, argv):
        # G_-1247 and G_-1500 once overflowed the stack, one frame a level;
        # built by a loop, both stop at the bound
        monkeypatch.setattr(graphs_mod, "LEAF_PATH_MAX", 10_000)
        assert main(["axis", argv[0], files["fwd"], files["bwd"], *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the marking loops of the axis point at shift -18 join "
                                "10946 half-edges, more than LEAF_PATH_MAX (10000)\n")

    def test_projection_budget_is_a_domain_error(self, files, tmp_path, capsys, monkeypatch):
        # G_12 read from a file is its own root: its scan widens from level 0
        # and passes a budget of 3 before it brackets 12
        point = tmp_path / "g12.graph"
        point.write_text(json.dumps(point_to_dict(cli_mod._load_axis(files["fwd"], files["bwd"])
                                                  .point(12))))
        monkeypatch.setattr(axes_mod, "PROJECT_BUDGET", 3)
        assert main(["axis", "project", files["fwd"], files["bwd"], str(point)]) == 1
        assert capsys.readouterr() == (
            "", "error: no interior minimum within the widest window [-2, 6]\n")

    def test_detour_without_tries_is_a_domain_error(self, files, capsys, monkeypatch):
        monkeypatch.setattr(axes_mod, "DETOUR_TRIES", 0)
        assert main(["axis", "diverge", files["fwd"], files["bwd"], "--radius", "2"]) == 1
        assert capsys.readouterr() == (
            "", "error: could not sample a ball-avoiding detour point\n")

    def test_diverge_negative_d_emp(self, files, capsys):
        assert main(["axis", "diverge", files["fwd"], files["bwd"],
                     "--radius", "3", "--d-emp", "-1"]) == 1
        captured = capsys.readouterr()
        assert "must be >= 0" in captured.err
        assert "satisfied" not in captured.out


class TestUsage:
    def test_unknown_flag(self, files, capsys):
        assert main(["dist", files["rose"], files["rose"], "--bogus"]) == 2

    def test_parser_built_once(self, files, capsys):
        parser = cli_mod.build_parser()
        before = cli_mod.build_parser.cache_info()
        assert main(["dist", files["rose"], files["uneven"]]) == 0
        assert main(["dist", files["rose"], files["uneven"], "--bogus"]) == 2
        after = cli_mod.build_parser.cache_info()
        assert (after.hits - before.hits, after.misses) == (2, before.misses)
        assert cli_mod.build_parser() is parser
        err = capsys.readouterr().err
        assert "unrecognized arguments: --bogus" in err

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_lists_subcommands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("validate", "dist", "candidates", "whitehead", "tt", "axis"):
            assert name in out

    def test_leaf_help_says_what_it_prints_and_bounds(self, capsys):
        assert main(["tt", "leaf", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "Prints: path, the refs of f^k(e); word, its word in the marking." in out
        assert f"LEAF_PATH_MAX ({traintrack_mod.LEAF_PATH_MAX}) half-edges" in out

    @pytest.mark.parametrize("command, prints", [
        ("verify", "Prints: train-track, whether every edge image is legal"),
        ("pf", "Prints: lambda, the float nearest the Perron-Frobenius root of the "
         "transition matrix; one `length` line per edge"),
    ])
    def test_tt_help_says_what_it_prints(self, capsys, command, prints):
        assert main(["tt", command, "--help"]) == 0
        assert prints in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("command, prints, options", [
        ("project", "Prints: argmin, the levels m of the axis points G_m nearest the point",
         ["graph file of the point projected"]),
        ("profile", "Prints: one `l(m)` line per level m of the window",
         ["cyclic word in the generators", f"LEAF_PATH_MAX ({graphs_mod.LEAF_PATH_MAX})"]),
        ("diverge", "Prints: avoids-ball, whether every point of the path",
         ["the radius R of the ball", "seed of the detour path", "empirical contraction "
          "bound", "empirical constant c", f"LEAF_PATH_MAX ({graphs_mod.LEAF_PATH_MAX})"]),
        ("pair", "Prints CSV, header windows,diam,parallel",
         ["the number of random automorphisms psi", "project the levels -W..W, W >= 2"]),
        ("contract", "Prints CSV, the mode's header, seed,sample,r,n_ball_points,"
         "proj_diam_m,proj_diam_dist for balls and seed,sample,n_points,max_off_axis for "
         "morse, then one row per sample, to --out or stdout; then `max-diam X`",
         ["--samples SAMPLES the number of samples, one row each, >= 1",
          "--seed SEED seed of the samples", "--mode {balls,morse} balls: project a ball",
          "--out OUT write the rows as CSV to this file", "or `max-off-axis X`"]),
    ])
    def test_axis_help_says_what_it_prints(self, capsys, command, prints, options):
        assert main(["axis", command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for text in (prints, *options):
            assert text in out

    def test_whitehead_help_says_what_it_prints(self, capsys):
        assert main(["whitehead", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "Prints: for minimize, one `step k: move (A, a), length b->a` line" in out
        assert "`final <words> (<terminal state>)`" in out
        assert "basis-reached, disconnected-min or no-cut-vertex" in out
        assert "For primitive, `primitive` or `not primitive`." in out
        assert "--rank RANK the rank of the free group, at least the number of " \
               "distinct letters used (the default)" in out

    def test_negative_flag_rejected(self, files, capsys):
        assert main(["axis", "contract", files["fwd"], files["bwd"],
                     "--samples", "-3"]) == 2

    @pytest.mark.parametrize("mode", ["balls", "morse"])
    def test_zero_samples_is_a_usage_error(self, files, capsys, mode):
        # checked before the maps are read: missing map files do not matter
        missing = str(files["tmp"] / "missing.map")
        for fwd, bwd in ((files["fwd"], files["bwd"]), (missing, missing)):
            assert main(["axis", "contract", fwd, bwd, "--samples", "0", "--mode", mode]) == 2
            assert capsys.readouterr().err == "error: --samples must be >= 1\n"

    def test_negative_flag_message_says_zero_is_allowed(self, files, capsys):
        assert main(["tt", "leaf", files["fwd"], "--edge", "e1", "--iters", "-1"]) == 2
        assert capsys.readouterr().err == "error: --iters must be >= 0\n"
        assert main(["tt", "leaf", files["fwd"], "--edge", "e1", "--iters", "0"]) == 0
        assert capsys.readouterr().out == "path e1\nword a\n"


@pytest.fixture()
def package_logger():
    """The outerspacekit logger, its level and handlers restored afterwards."""
    logger = logging.getLogger("outerspacekit")
    level, handlers = logger.level, list(logger.handlers)
    yield logger
    logger.setLevel(level)
    for h in list(logger.handlers):
        if h not in handlers:
            logger.removeHandler(h)


class TestLogLevel:
    def test_debug_logs_window_widening_to_stderr(self, files, capsys, monkeypatch,
                                                  package_logger):
        # from this start the golden search widens a window of 1 half-edge
        start = files["tmp"] / "start.graph"
        start.write_text(json.dumps(point_to_dict(random_point(2, 1, n_moves=2))))
        argv = ["tt", "whsearch", files["fwd"], files["bwd"], "--start", str(start)]
        monkeypatch.setattr(traintrack_mod, "LEAF_WINDOW", 1)
        level = package_logger.level
        assert main(argv) == 0
        assert "leaf window widened" not in capsys.readouterr().err
        assert package_logger.level == level
        assert main(["--log-level", "debug"] + argv) == 0
        err = capsys.readouterr().err
        assert "leaf window widened" in err and "leaf ends repeat at level" in err
        assert package_logger.level == logging.DEBUG

    def test_debug_logs_one_line_per_projection(self, files, capsys, package_logger):
        argv = ["axis", "project", files["fwd"], files["bwd"], files["uneven"]]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert main(["--log-level", "debug"] + argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"projection window \[-?\d+, -?\d+\]: levels \[[-\d, ]*\] decided "
                            r"by a cap, \d+ candidate-levels walked", lines[0])

    def test_repeated_calls_add_one_handler(self, files, capsys, package_logger):
        before = len(package_logger.handlers)
        for level in ("info", "warning", "error"):
            assert main(["--log-level", level, "tt", "pf", files["fwd"]]) == 0
            assert package_logger.level == getattr(logging, level.upper())
            assert len(package_logger.handlers) == before + 1

    def test_unknown_level_is_a_usage_error(self, files, capsys):
        assert main(["--log-level", "verbose", "tt", "pf", files["fwd"]]) == 2
