"""Fixed-seed `osk` outputs, pinned byte for byte: the exit code, stdout,
stderr and every --out file of about twenty commands on the conftest maps
and seeded points. A change that moves any of them must say why.

The expected texts live in cli_outputs.json next to this file;
`python -m tests.test_cli_outputs` rewrites it from the current code. The
benchmark-sized `tt leaf` outputs are pinned by their SHA-256 digests
(LEAF_DIGESTS), which that command does not rewrite.
"""

import contextlib
import hashlib
import io
import json
import logging
import pathlib
import re
import tempfile

import pytest

from outerspacekit.cli import main
from outerspacekit.graphs import point_to_dict, random_point

from .conftest import (
    DUMBBELL_DICT,
    FIG1_TARGET_DICT,
    THETA_DICT,
    golden_selfmaps,
    rank4_selfmaps,
    silver_selfmap,
    swap_golden_selfmaps,
    tribo_selfmaps,
)

EXPECTED = pathlib.Path(__file__).with_name("cli_outputs.json")


def _map_file(f):
    """The self-map file of a GraphSelfMap, as selfmap_from_dict reads it."""
    g = f.graph
    return {
        "graph": point_to_dict(f.point),
        "edge_images": {g.edge_ids[e - 1]: list(map(g.ref, path))
                        for e, path in sorted(f.edge_images.items())},
        "vertex_images": {f"v{v}": f"v{w}" for v, w in sorted(f.vertex_images.items())},
    }


def _inputs():
    """File name -> JSON data of every input the commands read."""
    maps = {
        "golden": golden_selfmaps(),
        "tribo": tribo_selfmaps(),
        "rank4": rank4_selfmaps(),
        "swap": swap_golden_selfmaps(),
    }
    files = {}
    for name, (fwd, bwd) in maps.items():
        files[f"{name}.map"] = _map_file(fwd)
        files[f"{name}_inv.map"] = _map_file(bwd)
    files["silver.map"] = _map_file(silver_selfmap())
    for rank, seed in ((2, 1), (3, 2), (4, 3)):
        files[f"r{rank}s{seed}.graph"] = point_to_dict(random_point(rank, seed))
    files["theta.graph"] = THETA_DICT
    files["fig1.graph"] = FIG1_TARGET_DICT
    files["dumbbell.graph"] = DUMBBELL_DICT
    files["long.graph"] = {**THETA_DICT, "edges": [
        {**e, "length": "1/2"} if e["id"] == "e1" else e for e in THETA_DICT["edges"]]}
    return files


# name -> argv; {name} is the file of that name in a scratch folder
COMMANDS = {
    "validate-map": "validate {golden.map}",
    "validate-control": "validate {swap_inv.map}",
    "validate-point": "validate {r3s2.graph}",
    "validate-invalid": "validate {long.graph}",
    "dist-oracle": "dist {r2s1.graph} {theta.graph} --oracle 4",
    "dist-out": "dist {theta.graph} {fig1.graph} --out {dist.csv}",
    "dist-barbell": "dist {dumbbell.graph} {r2s1.graph}",
    "candidates-theta": "candidates {theta.graph}",
    "candidates-rose": "candidates {r3s2.graph}",
    "tt-pf": "tt pf {golden.map}",
    "tt-pf-inverse": "tt pf {rank4_inv.map}",
    "tt-verify": "tt verify {tribo.map}",
    "tt-leaf": "tt leaf {silver.map} --edge e1 --iters 6",
    "tt-leaf-reversed": "tt leaf {rank4_inv.map} --edge ~e4 --iters 11",
    "tt-whsearch": "tt whsearch {golden.map} {golden_inv.map}",
    "tt-whsearch-debug": "--log-level debug tt whsearch {tribo.map} {tribo_inv.map}",
    "tt-whsearch-start": "tt whsearch {rank4.map} {rank4_inv.map} --start {r4s3.graph}",
    "axis-project": "axis project {golden.map} {golden_inv.map} {r2s1.graph}",
    "axis-project-rank4": "axis project {rank4.map} {rank4_inv.map} {r4s3.graph}",
    "axis-profile": "axis profile {tribo.map} {tribo_inv.map} --word abC --window 4",
    "axis-balls": "axis contract {golden.map} {golden_inv.map} --samples 3 --seed 1 "
                  "--out {balls.csv}",
    "axis-balls-control": "axis contract {swap.map} {swap_inv.map} --samples 2 --seed 0",
    "axis-morse": "axis contract {rank4.map} {rank4_inv.map} --mode morse --samples 2 "
                  "--seed 2 --out {morse.csv}",
    "axis-pair": "axis pair {tribo.map} {tribo_inv.map} --pairs 2 --seed 1 --out {pair.csv}",
    # ranks 2-8, each terminal state, cut-vertex and min-cut steps, word sets
    "wh-min-r2": "whitehead minimize ababb",
    "wh-min-r2-power": "whitehead minimize aaBaaB",
    "wh-min-r3-set": "whitehead minimize b accbcb",
    "wh-min-r4-set": "whitehead minimize aBc acddcd",
    "wh-min-r5-powers": "whitehead minimize aCbcaCbcaCbc bdECedEbdECedE",
    "wh-min-r5-no-cut": "whitehead minimize aebEABEcEdeCDeee",
    "wh-min-r6": "whitehead minimize aBFcBecBdBBFcBCfbbDCfb",
    "wh-min-r6-no-cut": "whitehead minimize acdceBeCAcedceCfceCFcECDEdcedcDECCDEbECDEC",
    "wh-min-r7": "whitehead minimize aDfeFdbdgDFdFcD",
    "wh-min-r7-no-cut": "whitehead minimize abDcADCdBcdCDCedfEcFDCgDCg",
    "wh-min-r8-set": "whitehead minimize afDFd agHCGbgHChGEgh",
    "wh-min-r8-no-cut": "whitehead minimize abAcBcdCDCefCEcFcgChcGCH",
    "wh-min-rank": "whitehead minimize abAB --rank 3",
    "wh-min-letters": "whitehead minimize a b --rank 3",
    "wh-min-letter-inverse": "whitehead minimize a A",
    "wh-primitive-r7": "whitehead primitive aDfeFdbdgDFdFcD",
    "wh-primitive-r8-no": "whitehead primitive abAcBcdCDCefCEcFcgChcGCH",
    "wh-primitive-r2-no": "whitehead primitive aaBaaB",
    "wh-primitive-two-words": "whitehead primitive ab cd",
}


# "<map file> <edge> <iters>" -> SHA-256 of the stdout of `tt leaf` there:
# every edge of the leaves of the benchmark's laminations workload, about
# 10^5 half-edges each
LEAF_DIGESTS = {
    "golden.map e1 25": "8d9c80e7d1650d8ca1cd64cc5b72fb2585a50b60b963e3d92ecdbbb8e34de4e1",
    "golden.map e2 25": "2701b82cb133d8d9bde514071802d6cbee02af39a100bd9229a44fbe652321da",
    "silver.map e1 13": "1774f151c8c16bcda942eb074e2375ed76c59bfec946aa69b334db47cc288ba5",
    "silver.map e2 13": "67d94e1bc3e39f6270c40b99e0b349d956fe06bfac9c5361238ecc8c0122ad78",
    "tribo.map e1 42": "20db01809b08f3a9882ac14afa094cf091bbb3812b1eab608ff3954b35ff8cd5",
    "tribo.map e2 42": "0b4a4a4c09c49c7c97d3a52a9248d5c1499d51011cfb8ba0c1fdf124579f6859",
    "tribo.map e3 42": "a00c481822b4f5a379f5904dd52a595ce8dfd93dbf7fa954e2527c40e3f3c437",
    "rank4.map e1 58": "859dd92bf2e3a3723fec4b668c497e90db693fe292325ea6d70df49b67810075",
    "rank4.map e2 58": "2f5710635d21c08e36132dd3206d0f8f3ac1294c106e4fc27ab2e6a2c8410b04",
    "rank4.map e3 58": "007affb66dd7d3e875e88576e51da17a0be729ec6c2884a6b7bb114bb50eba5d",
    "rank4.map e4 58": "9dc77b1c6cda69a07f36398506e8f25b9496625a04cde8d0eb9ae4aa85564cef",
}


def run(command, folder):
    """The exit code, stdout, stderr and --out files of `command`, an argv
    of COMMANDS, run in-process with its inputs written to `folder`, the
    folder's path written as <tmp> in the texts. The package logger is
    restored after."""
    paths = {}
    for file, data in _inputs().items():
        paths[file] = folder / file
        paths[file].write_text(json.dumps(data))
    words = command.split()
    outs = [w[1:-1] for w in words if w.endswith(".csv}")]
    paths.update((out, folder / out) for out in outs)
    argv = [re.sub(r"\{(.*)\}", lambda m: str(paths[m[1]]), w) for w in words]
    logger = logging.getLogger("outerspacekit")
    level, handlers = logger.level, list(logger.handlers)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        logger.setLevel(level)
        for h in list(logger.handlers):
            if h not in handlers:
                logger.removeHandler(h)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(folder), "<tmp>"),
        "stderr": err.getvalue().replace(str(folder), "<tmp>"),
        "files": {out: paths[out].read_text() for out in outs if paths[out].exists()},
    }


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_pinned(name, tmp_path):
    expected = json.loads(EXPECTED.read_text())[name]
    assert run(COMMANDS[name], tmp_path) == expected


@pytest.mark.parametrize("leaf", LEAF_DIGESTS)
def test_benchmark_leaf_is_pinned(leaf, tmp_path):
    file, edge, iters = leaf.split()
    result = run(f"tt leaf {{{file}}} --edge {edge} --iters {iters}", tmp_path)
    assert (result["exit"], result["stderr"], result["files"]) == (0, "", {})
    assert hashlib.sha256(result["stdout"].encode()).hexdigest() == LEAF_DIGESTS[leaf]


def test_every_command_is_pinned():
    assert sorted(json.loads(EXPECTED.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    logging.getLogger("outerspacekit").setLevel(logging.ERROR)  # as conftest sets it
    recorded = {}
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as d:
            recorded[name] = run(COMMANDS[name], pathlib.Path(d))
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} commands to {EXPECTED}")
