"""The four benchmark workloads: operations built from a seed, and checks.

`build(name, seed, tmpdir)` generates the inputs, does the workload's
certification and warm-up, and returns one cycle of `Op`s. The runner
times `op.run()` alone; `op.check(output)` runs outside the timed section.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import outerspacekit.axes as axes
import outerspacekit.cli as cli
import outerspacekit.graphs as graphs
import outerspacekit.metric as metric
import outerspacekit.traintrack as traintrack
import outerspacekit.whitehead as whitehead
import outerspacekit.words as words

import inputs

NAMES = ("certify", "distances", "axes", "laminations")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # output -> one bool per lamination estimate made, True when converged
    estimates: Callable[[object], list] = None


def build(name, seed, tmpdir):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    ops = globals()[f"build_{name}"](seed, tmpdir)
    random.Random(seed).shuffle(ops)
    return ops


def _rng(seed, salt):
    return random.Random(f"{salt}:{seed}")


def _cli(argv):
    """Run the CLI in-process; return (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.dumps(obj))
    return path


# -- certify ---------------------------------------------------------------

# (rank, cell or None for every cell, count) of valid point dicts per cycle.
CERTIFY_VALID = [(2, None, 4), (3, None, 3), (4, None, 1), (5, None, 2), (6, "trivalent", 1)]
# Ranks 2-4 scramble the marking with two Whitehead moves. Ranks 5-6 keep
# the spanning-tree basis: validating it is then exactly one exhaustive
# Whitehead move scan (the rank cliff itself), while each scrambling move
# adds another scan or not depending on the seed.
CERTIFY_MOVES = {2: 2, 3: 2, 4: 2, 5: 0, 6: 0}
CERTIFY_INVALID_PER_RANK = {2: 3, 3: 3, 4: 3, 5: 3, 6: 3}
# random_point(rank, seed, n_moves=1): one move keeps its cost steady per rank
CERTIFY_RANDOM_POINT = {2: 9, 3: 8, 4: 2, 5: 2}
# rank -> (primitive words, proper squares, minimum primitive length, root length);
# rank 6 has one short primitive only, since deciding a rank-6 square takes ~3 s
CERTIFY_WORDS = {3: (12, 12, 12, 6), 4: (2, 2, 12, 6), 5: (1, 2, 3, 5), 6: (1, 0, 2, 0)}
# These counts put op_p50_ms inside the ~10 ms rank-3 ops and op_p90_ms
# inside the rank-5 accepts, with more than ten ops beyond it.


def _accepts(data):
    try:
        graphs.point_from_dict(data)
    except graphs.InvalidPointError:
        return False
    return True


def build_certify(seed, tmpdir):
    rng = _rng(seed, "certify")
    ops = []
    for rank, cell, count in CERTIFY_VALID:
        for c in ([cell] if cell else inputs.CELLS):
            for _ in range(count):
                d = inputs.valid_point(c, rank, rng, n_moves=CERTIFY_MOVES[rank])
                ops.append(Op(f"accept.r{rank}", lambda d=d: _accepts(d), lambda ok: ok is True))
    for rank, count in CERTIFY_INVALID_PER_RANK.items():
        for i in range(count):
            kind = inputs.INVALID_KINDS[(rank + i) % len(inputs.INVALID_KINDS)]
            good = inputs.valid_point(inputs.CELLS[i % len(inputs.CELLS)], rank, rng, n_moves=2)
            d = inputs.invalid_variant(good, kind, rng)
            ops.append(Op(f"reject.r{rank}", lambda d=d: _accepts(d), lambda ok: ok is False))
    for rank, count in CERTIFY_RANDOM_POINT.items():
        for _ in range(count):
            s = rng.randrange(2**31)

            def check(p, rank=rank):
                return p.rank == rank and abs(p.graph.volume() - 1.0) <= 1e-9

            ops.append(Op(f"random_point.r{rank}",
                          lambda rank=rank, s=s: graphs.random_point(rank, s, n_moves=1),
                          check))
    for rank, (n_prim, n_square, min_len, root_len) in CERTIFY_WORDS.items():
        cases = [(inputs.primitive_word(rank, rng, min_len), True) for _ in range(n_prim)]
        cases += [(inputs.proper_square(rank, rng, root_len), False) for _ in range(n_square)]
        for i, (w, primitive) in enumerate(cases):
            cw = words.CyclicWord.make(w, rank)
            if i % 2 == 0:
                ops.append(Op(f"is_primitive.r{rank}",
                              lambda cw=cw, rank=rank: whitehead.is_primitive(cw, rank),
                              lambda out, p=primitive: out is p))
            else:
                def check(trace, p=primitive):
                    lengths = trace.total_lengths()
                    decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
                    return decreasing and (trace.terminal_state == "basis-reached") is p

                ops.append(Op(f"minimize.r{rank}",
                              lambda cw=cw, rank=rank: whitehead.whitehead_minimize([cw], rank),
                              check))
    _accepts(inputs.valid_point("theta", 2, random.Random(0), n_moves=2))  # warm-up
    return ops


# -- distances -------------------------------------------------------------

# rank -> (cells, points per cell) certified in set-up. Several points per
# cell average out how the seed's markings and lengths weigh on query cost;
# rank 6 holds one point of two cells only, since certifying a rank-6 point
# costs a second of set-up. Each graph comes from a generator seeded by cell
# and rank alone: random trivalent graphs differ in candidate count (e.g.
# 128-222 at rank 6), and query cost would follow that draw.
DISTANCE_POOL = {2: (inputs.CELLS, 3), 3: (inputs.CELLS, 3), 4: (inputs.CELLS, 3),
                 5: (inputs.CELLS, 2), 6: (("theta", "trivalent"), 1)}
# One Whitehead move per marking (none at ranks 5-6, as in certify): each
# move can triple word lengths, and query cost follows them.
DISTANCE_MOVES = {2: 1, 3: 1, 4: 1, 5: 0, 6: 0}
# share of queries per rank in a cycle: ranks 5-6 form the latency tail, and
# op_p50_ms falls among the ~0.1-0.15 ms rank-3 fresh and rank-4 cached ones
DISTANCE_RANK_WEIGHTS = {2: 12, 3: 30, 4: 28, 5: 25, 6: 5}
DISTANCE_QUERIES = 2000
DISTANCE_ORACLE_LEN = {2: 6, 3: 4}
DISTANCE_ORACLE_SHARE = 0.15


def _jittered(lengths, rng, jitter=0.3):
    raw = [x * (1.0 + jitter * (2.0 * rng.random() - 1.0)) for x in lengths]
    vol = math.fsum(raw)
    return [x / vol for x in raw]


def _moved(point, rank, rng, n_moves=1):
    """point acted on by seeded Whitehead moves, with fresh lengths."""
    for _ in range(n_moves):
        A, a = inputs.random_move(rank, rng)
        point = point.act(words.WhiteheadMove(A, a).automorphism(rank))
    return point.with_lengths(_jittered(point.graph.lengths, rng))


def build_distances(seed, tmpdir):
    rng = _rng(seed, "distances")
    pools = {}
    for rank, (cells, per_cell) in DISTANCE_POOL.items():
        pool = []
        for cell in cells * per_cell:
            d = inputs.valid_point(cell, rank, rng, n_moves=DISTANCE_MOVES[rank],
                                   graph_rng=random.Random(f"{cell}:{rank}"))
            p = graphs.point_from_dict(d, validate=False)
            report = graphs.validate_point(p)
            if not report.valid:
                raise RuntimeError(f"generated point fails validation: {report.problems}")
            pool += [(cell, p), (cell, _moved(p, rank, rng))]
        pools[rank] = pool
    for pool in pools.values():  # warm-up: the reused queries hit cached candidates
        for _, p in pool:
            p.candidates()
    ranks = [r for r, w in DISTANCE_RANK_WEIGHTS.items() for _ in range(w)]
    turn = dict.fromkeys(pools, 0)
    ops = []
    for i in range(DISTANCE_QUERIES):
        rank = ranks[i % len(ranks)]
        pool = pools[rank]
        cell, x = pool[turn[rank] % len(pool)]  # every point is x equally often
        turn[rank] += 1
        y = rng.choice([p for _, p in pool if p is not x])
        oracle_len = DISTANCE_ORACLE_LEN.get(rank) if rng.random() < DISTANCE_ORACLE_SHARE else None
        if i % 2 == 0:
            lengths = _jittered(x.graph.lengths, rng)
            run = lambda x=x, y=y, L=lengths: _query(x.with_lengths(L), y)  # noqa: E731
            kind = f"fresh.r{rank}.{cell}"
        else:
            run = lambda x=x, y=y: _query(x, y)  # noqa: E731
            kind = f"cached.r{rank}.{cell}"
        ops.append(Op(kind, run, lambda out, L=oracle_len: _check_distance(out, L)))
    return ops


def _query(x, y):
    return x, y, metric.distance(x, y)


def _check_distance(out, oracle_len):
    x, y, res = out
    if not math.isfinite(res.value) or abs(metric.distance(x, x).value) > 1e-12:
        return False
    return oracle_len is None or metric.distance_oracle(x, y, oracle_len) <= res.value + 1e-12


# -- axes --------------------------------------------------------------------

AXIS_MAPS = ("golden", "plastic", "rank4")  # ranks 2, 3, 4
# map -> {op: count per cycle}. The counts put op_p50_ms among the plastic
# (rank 3) ops and op_p90_ms among the rank-4 projections.
AXIS_OPS = {
    "golden": {"contract-balls": 8, "contract-morse": 8, "pair": 8, "project": 5, "probe": 8},
    "plastic": {"contract-balls": 10, "contract-morse": 10, "pair": 10, "project": 5, "probe": 10},
    "rank4": {"contract-balls": 4, "contract-morse": 3, "pair": 3, "project": 10, "probe": 4},
}
# `axis project` runs on the axis points G_m for m = -2..2 in turn


def _write_maps(tmpdir, names):
    dicts = inputs.selfmap_dicts()
    return {name: tuple(_write_json(os.path.join(tmpdir, f"{name}.{d}.json"), dicts[f"{name}.{d}"])
                        for d in ("fwd", "bwd")) for name in names}


def _load_axis(name):
    dicts = inputs.selfmap_dicts()
    fwd, bwd = (traintrack.pf_metric(traintrack.selfmap_from_dict(dicts[f"{name}.{d}"]))
                for d in ("fwd", "bwd"))
    return axes.Axis(fwd, bwd)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_csv(out, header, n_rows, blank_ok=()):
    code, _, path = out
    if code != 0:
        return False
    rows = _csv_rows(path)
    if rows[0] != list(header) or len(rows) != n_rows + 1:
        return False
    for row in rows[1:]:
        for col, field in zip(header, row):
            if col == "parallel":
                if field not in ("True", "False"):
                    return False
            elif not (_finite(field) or (col in blank_ok and field == "")):
                return False
    return True


def _check_project(out, m):
    code, text, _ = out
    lines = dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
    if code != 0 or "argmin" not in lines:
        return False
    return str(m) in lines["argmin"].split() and float(lines["value"]) <= 1e-9


def _check_probe(records, min_separation=3):
    return bool(records) and all(
        r.sep > min_separation and all(map(math.isfinite, (r.delta1, r.delta2, r.delta3)))
        for r in records)


def build_axes(seed, tmpdir):
    rng = _rng(seed, "axes")
    files = _write_maps(tmpdir, AXIS_MAPS)
    ops = []
    for name in AXIS_MAPS:
        fwd, bwd = files[name]
        ax = _load_axis(name)
        for op, count in AXIS_OPS[name].items():
            for i in range(count):
                s = rng.randrange(10_000)
                out = os.path.join(tmpdir, f"{name}-{op}-{i}.csv")
                kind = f"{op}.{name}"
                if op in ("contract-balls", "contract-morse"):
                    mode = op.split("-")[1]
                    samples = 2
                    argv = ["axis", "contract", fwd, bwd, "--samples", str(samples),
                            "--seed", str(s), "--mode", mode, "--out", out]
                    header = axes.BALL_HEADER if mode == "balls" else axes.MORSE_HEADER
                    check = (lambda o, h=header, n=samples:
                             _check_csv(o, h, n, blank_ok=("proj_diam_m", "proj_diam_dist")))
                elif op == "pair":
                    argv = ["axis", "pair", fwd, bwd, "--pairs", "1", "--seed", str(s),
                            "--window", "2", "--out", out]
                    check = lambda o: _check_csv(o, axes.PAIR_HEADER, 1)  # noqa: E731
                elif op == "project":
                    m = i % 5 - 2
                    point = _write_json(os.path.join(tmpdir, f"{name}-G{m}.json"),
                                        graphs.point_to_dict(ax.point(m)))
                    argv = ["axis", "project", fwd, bwd, point]
                    check = lambda o, m=m: _check_project(o, m)  # noqa: E731
                else:
                    ops.append(Op(kind, lambda name=name, s=s: axes.probe_experiment(
                        _load_axis(name), 1, s), _check_probe))
                    continue
                ops.append(Op(kind, lambda argv=argv, out=out: _cli(argv) + (out,), check))
    _cli(["tt", "pf", files["golden"][0]])  # warm-up
    return ops


# -- laminations -------------------------------------------------------------

LAMINATION_RANKS = {"golden": 2, "silver": 2, "plastic": 3, "rank4": 4}
# the silver leaf grows like 2.414^k: library defaults need minutes and ~1 GB
SILVER_K_CAP = 12
# map -> ops per cycle: estimates at the train-track point, `tt pf` and
# `tt whsearch` runs. The counts put op_p50_ms among the rank-4 ops.
LAMINATION_COUNTS = {
    "golden": {"at-point": 5, "pf": 3, "whsearch": 2},
    "silver": {"at-point": 5, "pf": 3, "whsearch": 2},
    "plastic": {"at-point": 4, "pf": 3, "whsearch": 3},
    "rank4": {"at-point": 13, "pf": 13, "whsearch": 2},
}
# Estimates at seeded random_point targets, per map and cycle: (targets
# with persistent marking junk, targets without). With junk the golden and
# silver estimates run to k_cap (~1 s and ~0.1 s) and the plastic and rank4
# ones converge late or not at all; without, all converge at k=2 or 3 in
# milliseconds. Fixing how many of each a cycle holds keeps its cost and
# converged_ratio from following a coin flip per target.
LAMINATION_TARGETS = {"golden": (2, 2), "silver": (4, 2), "plastic": (1, 7), "rank4": (1, 5)}
# random_point targets drawn at least, so set-up time does not follow how
# many draws the quotas above happen to take
TARGET_DRAWS = {"golden": 12, "silver": 16, "plastic": 16, "rank4": 12}
TARGET_MOVES = 4
# `tt leaf --iters k` on the edges in turn, k fixed per map so each leaf has
# about 10^5 half-edges; these and the estimates at junk targets form the
# p90 tail
LEAF_ITERS = {"golden": 25, "silver": 13, "plastic": 42, "rank4": 58}
LEAF_OPS = 5


def _train_track(name):
    """The forward map loaded fresh, so no op reuses another's leaf cache."""
    d = inputs.selfmap_dicts()[f"{name}.fwd"]
    return traintrack.pf_metric(traintrack.selfmap_from_dict(d))


def _transition(name):
    images = inputs.MAPS[name][0]
    A = np.zeros((len(images), len(images)))
    for j, w in enumerate(images):
        for h in w:
            A[j][abs(h) - 1] += 1
    return A


def _has_junk(name, target):
    """Whether the length ratios a_1, a_2, a_3 of the lamination estimate
    at `target` all differ, i.e. the leaf tiles keep picking up
    cancellation there.

    Computed here from the map's images and the target's marking loops,
    with no call into the library's estimator.
    """
    images = inputs.MAPS[name][0]
    A = _transition(name)
    vals, vecs = np.linalg.eig(A)
    pf_len = np.abs(vecs[:, np.argmax(vals.real)].real)
    pf_len /= pf_len.sum()
    vals, vecs = np.linalg.eig(A.T)
    freq = np.abs(vecs[:, np.argmax(vals.real)].real)
    freq /= freq.sum()
    lengths = target.graph.lengths
    loops = target.gen_loops
    ratios = []
    tiles = [(j + 1,) for j in range(len(images))]
    for _ in range(3):
        tiles = [inputs.apply(images, w) for w in tiles]
        num = sum(f * math.fsum(lengths[abs(h) - 1] for h in inputs.realize(loops, w))
                  for f, w in zip(freq, tiles))
        den = sum(f * sum(pf_len[abs(x) - 1] for x in w) for f, w in zip(freq, tiles))
        ratios.append(num / den)
    return bool(abs(ratios[1] - ratios[0]) >= 1e-6 and abs(ratios[2] - ratios[1]) >= 1e-6)


def _targets(name, rank, rng):
    """Seeded random_point targets, the set number with and without junk."""
    want = dict(zip((True, False), LAMINATION_TARGETS[name]))
    out = []
    for drawn in itertools.count():
        if drawn >= TARGET_DRAWS[name] and not any(want.values()):
            return out
        target = graphs.random_point(rank, rng.randrange(2**31), n_moves=TARGET_MOVES)
        junk = _has_junk(name, target)
        if want[junk]:
            want[junk] -= 1
            out.append(target)


def _check_pf(out, lam_ref):
    code, text = out
    lam = [float(line.split()[1]) for line in text.splitlines() if line.startswith("lambda ")]
    # the CLI prints 9 significant digits, which bounds the rounding error
    return code == 0 and len(lam) == 1 and abs(lam[0] - lam_ref) <= 1e-9 + 5e-9 * lam_ref


def _check_leaf(out, n_halfedges):
    code, text = out
    lines = dict(line.split(" ", 1) for line in text.splitlines())
    return code == 0 and len(lines["path"].split()) == n_halfedges and lines["word"] != "1"


def _check_whsearch(out, name, start):
    """The printed moves are those of a search whose combined Whitehead graph
    of the two laminations is connected with no cut vertex."""
    code, text = out
    if code != 0:
        return False
    d = inputs.selfmap_dicts()
    fwd, bwd = (traintrack.pf_metric(traintrack.selfmap_from_dict(d[f"{name}.{s}"]))
                for s in ("fwd", "bwd"))
    res = traintrack.no_cut_vertex_search(fwd, bwd, start)
    report = whitehead.cut_analysis(res.combined_graph)
    printed = [line[5:] for line in text.splitlines() if line.startswith("move ")]
    return (printed == [str(m) for m in res.moves] and report.connected
            and not report.isolated and not report.cut_vertices)


def _one_estimate(est):
    return [est.converged]


def build_laminations(seed, tmpdir):
    rng = _rng(seed, "laminations")
    files = _write_maps(tmpdir, LAMINATION_RANKS)
    ops = []
    for name, rank in LAMINATION_RANKS.items():
        kc = {"k_cap": SILVER_K_CAP} if name == "silver" else {}
        for _ in range(LAMINATION_COUNTS[name]["at-point"]):
            def at_point(name=name, kc=kc):
                tt = _train_track(name)
                return traintrack.lamination_length_ratio(tt, tt.point, **kc)

            ops.append(Op(f"at-point.{name}", at_point, lambda est: est.value == 1.0,
                          _one_estimate))
        for target in _targets(name, rank, rng):
            def at_target(name=name, target=target, kc=kc):
                return traintrack.lamination_length_ratio(_train_track(name), target, **kc)

            ops.append(Op(f"target.{name}", at_target,
                          lambda est: math.isfinite(est.value) and est.value > 0, _one_estimate))
        A = _transition(name)
        lam_ref = float(max(np.linalg.eigvals(A).real))
        fwd, bwd = files[name]
        for _ in range(LAMINATION_COUNTS[name]["pf"]):
            ops.append(Op(f"pf.{name}", lambda f=fwd: _cli(["tt", "pf", f]),
                          lambda o, lam=lam_ref: _check_pf(o, lam)))
        k = LEAF_ITERS[name]
        counts = np.linalg.matrix_power(A.astype(np.int64), k).sum(axis=1)
        for i in range(LEAF_OPS):
            e = i % rank
            ops.append(Op(f"leaf.{name}",
                          lambda f=fwd, e=e, k=k: _cli(["tt", "leaf", f, "--edge", f"e{e + 1}",
                                                        "--iters", str(k)]),
                          lambda o, n=int(counts[e]): _check_leaf(o, n)))
        for i in range(LAMINATION_COUNTS[name]["whsearch"]):
            start = graphs.random_point(rank, rng.randrange(2**31), n_moves=3)
            path = _write_json(os.path.join(tmpdir, f"{name}-start{i}.json"),
                               graphs.point_to_dict(start))
            ops.append(Op(f"whsearch.{name}",
                          lambda f=fwd, b=bwd, p=path: _cli(["tt", "whsearch", f, b, "--start", p]),
                          lambda o, name=name, start=start: _check_whsearch(o, name, start)))
    _cli(["tt", "pf", files["golden"][0]])  # warm-up
    return ops
