"""Command line front end.

Exit codes: 0 success, 1 domain errors (invalid graph, non-train-track
map, leaf tiles whose end state does not repeat by the level cap, a path
longer than LEAF_PATH_MAX half-edges), 2 usage and I/O errors. Every
bound on an option's value, such as --oracle >= 1, is a usage error. An
input file that cannot be read or is not JSON, and an --out file that
cannot be written, are I/O errors. --out is opened once, before the
command computes anything, so a path that cannot be written fails first:
a missing file is created, and a file already there is left as it is
until the command's CSV overwrites it in place and cuts it to length; it
is never truncated to zero, and one the command fails before writing
keeps its bytes. A file that is not regular, such as /dev/null, is
written without truncation. JSON of the wrong shape, such as one with a
missing key or an unknown vertex, is an invalid graph or self-map file.
Floats print with 9 significant digits; structured output goes to --out
as CSV. `osk --log-level LEVEL ...` logs the outerspacekit package to
stderr at LEVEL; without it the package logger is left as it is.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import random
import stat
import sys

from .axes import (
    Axis,
    CONTRACTION_MODES,
    PAIR_HEADER,
    contraction_experiment,
    detour_path,
    divergence_check,
    length_profile,
    project,
    two_axis_report,
)
from .graphs import LEAF_PATH_MAX, InvalidPointError, point_from_dict, rose, validate_point
from .metric import distance, distance_oracle
from .traintrack import (
    no_cut_vertex_search,
    pf_metric,
    selfmap_from_dict,
    verify_train_track,
)
from .whitehead import is_primitive, whitehead_minimize
from .words import (
    ALPHABET,
    CyclicWord,
    format_letters,
    join_pieces,
    parse_letters,
    random_automorphism,
)


def _f(x: float) -> str:
    return f"{x:.9g}"


def write_csv(header, rows) -> str:
    """The CSV text of the header and the rows: float cells with _f, every
    other cell with str, so a bool reads True or False."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_f(x) if isinstance(x, float) else str(x) for x in row] for row in rows)
    return buf.getvalue()


def _cannot_write(path, e: OSError):
    return UsageError(f"cannot write {path}: {e.strerror or e}")


def _emit_csv(header, rows, out):
    """write_csv(header, rows) to out, the (path, descriptor) of the --out
    file main opened, or to stdout without one. The one place a CSV is
    written: the text overwrites the file from its start, and a regular
    file is then cut to the bytes written, so none is truncated to zero.
    UsageError when the file cannot be written."""
    text = write_csv(header, rows)
    if not out:
        sys.stdout.write(text)
        return
    path, fd = out
    data = text.encode("utf-8")
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    except OSError as e:
        raise _cannot_write(path, e)


def _parse_words(texts, rank=None):
    """Map the sorted distinct generator letters of the inputs onto 1..k,
    unless they already are a prefix of a..z."""
    letters = sorted({ch.lower() for t in texts for ch in t})
    for ch in letters:
        if not ch.isalpha():
            raise ValueError(f"invalid character {ch!r} in word")
    k = len(letters)
    if letters == list(ALPHABET[:k]):
        names = ALPHABET
    else:
        names = "".join(letters)
    words = [parse_letters(t, names) for t in texts]
    inferred = max((abs(l) for w in words for l in w), default=1)
    if rank is not None and rank < inferred:
        raise ValueError(f"--rank {rank} smaller than the {inferred} generators used")
    return words, (rank or inferred), names


def _read(path):
    """The JSON data of the file at path, opened and parsed once; raises
    UsageError when it cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}")
    except ValueError as e:  # not JSON, or not UTF-8
        raise UsageError(f"cannot parse {path}: {e}")


def _parse(path, kind, parse, data):
    """parse(data), where _read read data from path. The readers raise
    ValueError, and only that, on JSON of the wrong shape, such as a
    missing key, a number in place of a list or an unknown name; it
    becomes a ValueError naming path as an invalid `kind` file. An
    InvalidPointError, which lists what the point breaks, passes as it is."""
    try:
        return parse(data)
    except InvalidPointError:
        raise
    except ValueError as e:
        raise ValueError(f"invalid {kind} file {path}: {e}")


def _load_point(path):
    return _parse(path, "graph", point_from_dict, _read(path))


def _load_selfmap(path):
    return _parse(path, "self-map", selfmap_from_dict, _read(path))


def _load_axis(fwd_path, bwd_path):
    """The axis of the forward map. The backward map is checked and its
    automorphism read; no output reads its PF data, so none is built."""
    fwd = pf_metric(_load_selfmap(fwd_path))
    bwd = _load_selfmap(bwd_path)
    verify_train_track(bwd).check()
    return Axis(fwd, bwd)


class UsageError(Exception):
    pass


def cmd_validate(args):
    data = _read(args.file)
    if isinstance(data, dict) and "edge_images" in data:
        report = verify_train_track(_parse(args.file, "self-map", selfmap_from_dict, data))
        print(f"self-map: train-track={report.is_tt} irreducible={report.irreducible}")
        report.check()
        return
    point = _parse(args.file, "graph", functools.partial(point_from_dict, validate=False), data)
    report = validate_point(point)
    if report.valid:
        print("valid")
    else:
        for p in report.problems:
            print(f"invalid: {p}")
        raise ValueError("point fails validation")


def cmd_dist(args):
    x = _load_point(args.x)
    y = _load_point(args.y)
    res = distance(x, y)
    print(f"value {_f(res.value)}")
    print(f"witness {res.witness.conjugacy_class} ({res.witness.kind})")
    _emit_csv(["class", "len_x", "len_y", "stretch"], res.table, args.out)
    if args.oracle is not None:
        o = distance_oracle(x, y, args.oracle)
        print(f"oracle(L={args.oracle}) {_f(o)}")


def cmd_candidates(args):
    x = _load_point(args.x)
    for c in x.candidates():
        print(f"{c.kind} {c.conjugacy_class} length {_f(c.length)}")


def cmd_whitehead(args):
    words, rank, names = _parse_words(args.words, args.rank)
    cyc = [CyclicWord.make(w, rank) for w in words]
    if args.action == "primitive":
        if len(cyc) != 1:
            raise UsageError("primitive takes exactly one word")
        print("primitive" if is_primitive(cyc[0], rank) else "not primitive")
        return
    trace = whitehead_minimize(cyc, rank)
    for k, (move, before, after) in enumerate(trace.steps, 1):
        body = "".join(sorted(format_letters((x,), names) for x in move.A))
        print(f"step {k}: move ({{{body}}}, {format_letters((move.a,), names)}), "
              f"length {before}->{after}")
    finals = " ".join(format_letters(w.letters, names) or "1" for w in trace.final_words)
    print(f"final {finals} ({trace.terminal_state})")


def cmd_tt(args):
    sm = _load_selfmap(args.map)
    if args.action == "verify":
        rep = verify_train_track(sm)
        print(f"train-track {rep.is_tt}")
        print(f"irreducible {rep.irreducible}")
        if rep.illegal_turn:
            print(f"illegal-turn {rep.illegal_turn}")
        rep.check()
        return
    tt = pf_metric(sm)
    if args.action == "pf":
        print(f"lambda {_f(tt.lam)}")
        for eid, l in zip(tt.graph.edge_ids, tt.graph.lengths):
            print(f"length {eid} {_f(l)}")
    elif args.action == "leaf":
        g = tt.graph
        try:
            e = g.halfedge(args.edge)
        except KeyError:
            raise UsageError(f"unknown edge {args.edge}") from None
        # both lines are read off the <= 2 n_edges distinct pieces of the
        # leaf and their words, which leaf_pieces carries level by level;
        # free reduction is confluent, so join_pieces of the piece words
        # gives the word of the whole leaf. Each piece word is reduced, so
        # when none is empty only a join can cancel: the last letter of one
        # piece against the first of the next
        pieces, words, first = tt.leaf_pieces(e, args.iters)
        used = set(first)
        refs = {h: g.ref(h) for h in (*range(1, g.n_edges + 1), *range(-g.n_edges, 0))}
        texts = {h: " ".join(map(refs.__getitem__, pieces[h])) for h in used}
        print("path", " ".join([texts[h] for h in first]))
        if all(words[h] for h in used) and not any(
                words[a][-1] == -words[b][0] for a, b in set(zip(first, first[1:]))):
            letters = {h: format_letters(words[h]) for h in used}
            print("word", "".join([letters[h] for h in first]))
        else:
            print("word", format_letters(join_pieces(words, first)) or "1")


def cmd_tt_whsearch(args):
    fwd = pf_metric(_load_selfmap(args.forward))
    bwd = pf_metric(_load_selfmap(args.backward))
    start = _load_point(args.start) if args.start else rose(fwd.point.rank)
    res = no_cut_vertex_search(fwd, bwd, start)
    print(f"moves {len(res.moves)}")
    for mv in res.moves:
        print(f"move {mv}")
    print(f"stabilized-k {res.stabilization_k}")
    print(f"lamination-plus {' '.join(_f(v) for v in res.plus_trace)}")
    print(f"lamination-minus {' '.join(_f(v) for v in res.minus_trace)}")
    print(f"axis-distance {_f(res.axis_distance)}")


def cmd_axis(args):
    ax = _load_axis(args.forward, args.backward)
    if args.action == "project":
        X = _load_point(args.point)
        pr = project(X, ax)
        print(f"argmin {' '.join(map(str, pr.argmin))}")
        print(f"value {_f(pr.value)}")
        print(f"diam {_f(pr.diam_dist)}")
    elif args.action == "profile":
        prof = length_profile(CyclicWord.parse(args.word, ax.rank), ax,
                              (-args.window, args.window))
        for m, v in prof.values:
            print(f"l({m}) {_f(v)}")
        print(f"min-set {' '.join(map(str, prof.min_set))}")
        print(f"slopes right {_f(prof.right_slope)} left {_f(prof.left_slope)}")
        if prof.min_at_boundary:
            print("warning: minimum at window boundary; widen the window")
    elif args.action == "contract":
        header, _, (name, summary) = CONTRACTION_MODES[args.mode]
        records = contraction_experiment(ax, args.samples, args.seed, args.mode)
        _emit_csv(header, records, args.out)
        print(f"{name} {_f(summary(records))}")
    elif args.action == "diverge":
        path = detour_path(ax, args.radius, args.seed)
        rep = divergence_check(path, ax, args.radius, args.d_emp, args.c_emp)
        print(f"avoids-ball {rep.avoids_ball}")
        print(f"length {_f(rep.length)}")
        print(f"bound {_f(rep.bound)} (b'={_f(rep.b_prime)})")
        print(f"satisfied {rep.satisfied}{' (vacuous)' if rep.vacuous else ''}")
    elif args.action == "pair":
        rng = random.Random(args.seed)
        rows = []
        for i in range(args.pairs):
            rep = two_axis_report(ax, random_automorphism(ax.rank, rng, 4), window=args.window)
            rows.append((args.window, rep.diam, rep.parallel))
        _emit_csv(PAIR_HEADER, rows, args.out)


@functools.cache
def build_parser():
    """The `osk` argument parser, built once per process.

    Each subcommand binds its cmd_* function when the parser is first
    built, so patching a cmd_* afterwards does not reach the CLI. argparse
    writes usage and errors to sys.stdout/sys.stderr as they are at parse
    time, so redirected streams still capture them.
    """
    p = argparse.ArgumentParser(
        prog="osk",
        description="Outer Space toolkit: Lipschitz distances, Whitehead "
        "reduction, train tracks, axes and projection experiments.",
    )
    p.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                   help="log the outerspacekit package at this level to stderr")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="validate a graph or self-map file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("dist", help="Lipschitz distance between two points")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--oracle", type=int, metavar="L",
                    help="also brute-force over words of length <= L")
    sp.add_argument("--out", help="write the per-candidate table as CSV")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("candidates", help="list candidate loops of a point")
    sp.add_argument("x")
    sp.set_defaults(func=cmd_candidates)

    sp = sub.add_parser(
        "whitehead", help="Whitehead minimization / primitivity",
        description="Prints: for minimize, one `step k: move (A, a), length b->a` line per "
        "Whitehead move made, with the letters of A, the letter a and the total lengths "
        "before and after the move; then `final <words> (<terminal state>)`, the minimized "
        "cyclic words and basis-reached, disconnected-min or no-cut-vertex. For primitive, "
        "`primitive` or `not primitive`.")
    sp.add_argument("action", choices=["minimize", "primitive"])
    sp.add_argument("words", nargs="+",
                    help="cyclic words in letters a-z, upper case for inverses")
    sp.add_argument("--rank", type=int,
                    help="the rank of the free group, at least the number of distinct "
                    "letters used (the default)")
    sp.set_defaults(func=cmd_whitehead)

    sp = sub.add_parser("tt", help="train-track operations")
    ttsub = sp.add_subparsers(dest="action", required=True)
    for name, help_text, prints in (
            ("verify", "check that a self-map is an irreducible train-track map",
             "train-track, whether every edge image is legal for the gates of the map; "
             "irreducible, whether its transition matrix is; illegal-turn, a turn an edge "
             "image crosses, when one does. Exits 1 unless both hold."),
            ("pf", "the Perron-Frobenius stretch factor and metric of a train-track map",
             "lambda, the float nearest the Perron-Frobenius root of the transition matrix; "
             "one `length` line per edge, its PF length, the lengths summing to 1. Each to 9 "
             "significant digits.")):
        q = ttsub.add_parser(name, help=help_text, description=f"Prints: {prints}")
        q.add_argument("map")
        q.set_defaults(func=cmd_tt, action=name)
    q = ttsub.add_parser(
        "leaf", help="expand a leaf f^k(e) of the attracting lamination",
        description="Prints: path, the refs of f^k(e); word, its word in the marking.")
    q.add_argument("map")
    q.add_argument("--edge", required=True,
                   help="edge id, or ~id for the edge reversed, as in map files")
    q.add_argument("--iters", type=int, required=True, metavar="K",
                   help=f"the k of f^k(e), >= 0; a leaf of more than LEAF_PATH_MAX "
                   f"({LEAF_PATH_MAX}) half-edges is an error")
    q.set_defaults(func=cmd_tt, action="leaf")
    q = ttsub.add_parser(
        "whsearch", help="search for a rose point whose combined lamination Whitehead "
        "graph has no cut vertex",
        description="Prints: moves N; one `move` line per Whitehead move made; "
        "stabilized-k, the larger repeat level of the two final leaf walks; "
        "lamination-plus and lamination-minus, the lamination lengths at each "
        "point visited; axis-distance, the distance of the point found to the "
        "orbit of the start.")
    q.add_argument("forward")
    q.add_argument("backward")
    q.add_argument("--start", help="start rose point (default: standard rose)")
    q.set_defaults(func=cmd_tt_whsearch)

    sp = sub.add_parser("axis", help="axis projections and experiments")
    axsub = sp.add_subparsers(dest="action", required=True)

    def common(q):
        q.add_argument("forward", help="train-track self-map file for phi")
        q.add_argument("backward", help="train-track self-map file for phi^-1")

    q = axsub.add_parser(
        "project", help="project a point onto the axis",
        description="Prints: argmin, the levels m of the axis points G_m nearest the point "
        "(within 1e-9); value, the least distance d(point, G_m); diam, the distance the "
        "argmin levels span, their spread times log(lambda). Each float to 9 significant "
        "digits.")
    common(q)
    q.add_argument("point", help="graph file of the point projected")
    q.set_defaults(func=cmd_axis, action="project")
    q = axsub.add_parser(
        "profile", help="lengths of phi^m(word) along the axis",
        description="Prints: one `l(m)` line per level m of the window, the length at the "
        "base point of the tight loop of phi^m(word); min-set, the levels of the least "
        "length; `slopes right R left L`, the log-slopes fitted to the two tails of the "
        "window; and a warning when the least length is at an end of the window.")
    common(q)
    q.add_argument("--word", required=True,
                   help="cyclic word in the generators a, b, ... of the axis rank, upper "
                   "case for inverses")
    q.add_argument("--window", type=int, default=6, metavar="W",
                   help=f"profile the levels -W..W, W >= 1 (default 6); a level whose loops "
                   f"pass LEAF_PATH_MAX ({LEAF_PATH_MAX}) half-edges is an error")
    q.set_defaults(func=cmd_axis, action="profile")
    headers = {mode: ",".join(header) for mode, (header, _, _) in CONTRACTION_MODES.items()}
    q = axsub.add_parser(
        "contract", help="ball or Morse contraction samples along the axis",
        description=f"Ball or Morse contraction samples along the axis. Prints CSV, the "
        f"mode's header, {headers['balls']} for balls and {headers['morse']} for morse, "
        "then one row per sample, to --out or stdout; then `max-diam X`, the largest "
        "projection diameter of a ball, or `max-off-axis X`, the farthest a Morse path "
        "strays from the axis. Neither sampler has been shown to detect an axis that is "
        "not strongly contracting; the flat test (TestFlat in tests/test_axes.py) does.")
    common(q)
    q.add_argument("--samples", type=int, default=20,
                   help="the number of samples, one row each, >= 1 (default 20)")
    q.add_argument("--seed", type=int, default=0,
                   help="seed of the samples, each drawn from (seed, sample) (default 0)")
    q.add_argument("--mode", choices=["balls", "morse"], default="balls",
                   help="balls: project a ball around a point off the axis; morse: project "
                   "a perturbed path between axis points (default balls)")
    q.add_argument("--out", help="write the rows as CSV to this file")
    q.set_defaults(func=cmd_axis, action="contract")
    q = axsub.add_parser(
        "diverge", help="check the quadratic divergence bound on a detour path",
        description="Samples a path between axis points whose projections are 2R apart, "
        "detouring around the R-ball at the axis midpoint. Prints: avoids-ball, whether "
        "every point of the path is at least R from the midpoint; length, the sum of the "
        "distances along the path, nan when it does not avoid the ball; `bound B "
        "(b'=b)`, B = R^2/(2b') - R/2 with b' = d_emp + 4 c_emp + 3; satisfied, whether "
        "the length is at least B, marked (vacuous) when B <= 0.")
    common(q)
    q.add_argument("--radius", type=float, required=True, metavar="R",
                   help=f"the radius R of the ball, more than 2 d_emp; a large R is an error "
                   f"once a path it realizes passes LEAF_PATH_MAX ({LEAF_PATH_MAX}) half-edges")
    q.add_argument("--seed", type=int, default=0, help="seed of the detour path (default 0)")
    q.add_argument("--d-emp", type=float, default=0.5,
                   help="empirical contraction bound of the axis, >= 0 (default 0.5)")
    q.add_argument("--c-emp", type=float, default=0.1,
                   help="empirical constant c of the bound's b', >= 0 (default 0.1)")
    q.set_defaults(func=cmd_axis, action="diverge")
    q = axsub.add_parser(
        "pair", help="project translates of the axis onto it",
        description="For each random automorphism psi, projects the points G_m . psi, for "
        "m in -W..W, onto the axis. Prints CSV, header windows,diam,parallel, one row per "
        "psi: W; the distance the projections span; and whether that span grows from the "
        "half window to W as fast as a parallel axis's does.")
    common(q)
    q.add_argument("--pairs", type=int, default=3,
                   help="the number of random automorphisms psi, one row each (default 3)")
    q.add_argument("--seed", type=int, default=0, help="seed of the automorphisms (default 0)")
    q.add_argument("--window", type=int, default=6, metavar="W",
                   help="project the levels -W..W, W >= 2 (default 6)")
    q.add_argument("--out", help="write the rows as CSV to this file")
    q.set_defaults(func=cmd_axis, action="pair")

    return p


class _StderrHandler(logging.StreamHandler):
    """The handler --log-level puts on the package logger."""


def _log_to_stderr(level: str):
    """Set the outerspacekit logger to `level` and give it one handler on
    the current sys.stderr, replacing the one an earlier call added."""
    logger = logging.getLogger("outerspacekit")
    logger.setLevel(level.upper())
    for h in [h for h in logger.handlers if isinstance(h, _StderrHandler)]:
        logger.removeHandler(h)
        h.close()
    logger.addHandler(_StderrHandler(sys.stderr))


def _run_with_out(args):
    """args.func(args) with args.out, a path, replaced by (path, descriptor)
    of the file opened once before any work: created when missing, else
    left as it is until _emit_csv writes it, and closed afterwards."""
    path = args.out
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as e:
        raise _cannot_write(path, e)
    try:
        args.out = path, fd
        args.func(args)
    finally:
        try:
            os.close(fd)
        except OSError as e:
            raise _cannot_write(path, e)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    # two_axis_report needs a half window smaller than the window, and
    # length_profile two levels, where window 0 reads one
    pair = args.cmd == "axis" and args.action == "pair"
    for name, low in (("seed", 0), ("samples", 1), ("window", 2 if pair else 1), ("iters", 0),
                      ("oracle", 1), ("radius", 0), ("pairs", 0)):
        v = getattr(args, name, None)
        if v is not None and v < low:
            print(f"error: --{name} must be >= {low}", file=sys.stderr)
            return 2
    if args.log_level:
        _log_to_stderr(args.log_level)
    try:
        if getattr(args, "out", None):
            _run_with_out(args)
        else:
            args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
