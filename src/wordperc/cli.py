"""Command-line interface.

Subcommands: sample, reach, allwords, wierman, oriented, renorm, decay,
oracle; or --spec file.json to run a saved experiment spec.  Every Monte
Carlo subcommand builds a spec and runs it through harness.run, so its
trials fan out like any spec's.  Exit codes: 0 success, 2 validation/domain
error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import __version__
from .config import read_wpc, sample, write_wpc
from .errors import CapacityError, DomainError, ValidationError, WordpercError
from .harness import (
    ExperimentSpec,
    parse_region_argument,
    run,
    word_to_spec,
    write_csv,
    write_result,
)
from .rng import RngStream
from .search import SourceSet, exact_word_reach, relaxed_word_reach
from .words import Word, parse_word_argument


def _parse_vertex(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"vertex {text!r} is not comma-separated integers")


def _parse_radii(text: str) -> list[int]:
    radii = []
    for item in text.split(","):
        try:
            radii.append(int(item))
        except ValueError:
            raise DomainError(f"--m-list item {item!r} is not an integer") from None
    return radii


def _check_outputs(args):
    """Refuse an --out or --csv path that cannot be written, before any
    trial runs: it must not be empty, its folder must exist and the path
    must not be a folder."""
    for path in (getattr(args, "out", None), getattr(args, "csv", None)):
        if path is None:
            continue
        if not path:
            raise DomainError("cannot write to an empty path")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise DomainError(f"cannot write {path}: no folder {folder}")
        if os.path.isdir(path):
            raise DomainError(f"cannot write {path}: it is a folder")


def _emit(doc: dict, args, wall: float):
    print(json.dumps(doc, sort_keys=True, indent=2))
    if getattr(args, "out", None):
        write_result(doc, args.out, wall_time_s=wall)
    if getattr(args, "csv", None):
        write_csv(doc, args.csv)


def cmd_sample(args):
    for name, value in (("--seed", args.seed), ("--stream", args.stream)):
        if not 0 <= value < 1 << 64:
            raise DomainError(f"{name} must lie in [0, 2^64), not {value}")
    region = parse_region_argument(args.region)
    if args.dim is not None and region.dim != args.dim:
        region = parse_region_argument(f"{args.region},d={args.dim}")
    cfg = sample(region, args.p, RngStream(args.seed, args.stream))
    write_wpc(cfg, args.out)
    print(
        json.dumps(
            {
                "written": args.out,
                "sites": region.volume,
                "ones": cfg.ones_count(),
                "p": args.p,
                "seed": args.seed,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_reach(args):
    cfg = read_wpc(args.cfg)
    word = parse_word_argument(args.word)
    max_index = args.max_index
    if max_index is None:
        if not isinstance(word, Word):
            raise DomainError("--max-index is required for generator words")
        max_index = word.length - 1
    src = SourceSet.single(cfg.region, _parse_vertex(args.from_vertex), word)
    if args.mode == "relaxed":
        res = relaxed_word_reach(cfg, src, max_index)
        label = "relaxed (upper bound: revisits allowed)"
    else:
        res = exact_word_reach(cfg, src, max_index, want_witness=args.witness)
        label = "exact (self-avoiding)"
    doc = {
        "mode": label,
        "word": word_to_spec(word),
        "source": list(_parse_vertex(args.from_vertex)),
        "max_index": max_index,
        "reached_vertices": len(res.min_arrival),
        "min_arrivals": {str(list(v)): t for v, t in sorted(res.min_arrival.items())},
    }
    if args.witness and res.witnesses:
        doc["witnesses"] = {
            str(list(v)): [list(u) for u in path]
            for v, path in sorted(res.witnesses.items())
        }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _run_spec(kind: str, params: dict, args, event: str | None = None, with_spec=True):
    """Run the command's spec, then print (and save) its result document."""
    t0 = time.time()
    doc = run(ExperimentSpec(kind, params, args.trials, args.seed, getattr(args, "out", None)))
    if event:
        doc["result"]["event"] = event
    if not with_spec:
        del doc["spec"]
    _emit(doc, args, time.time() - t0)
    return 0


def cmd_allwords(args):
    params = {"p": args.p, "m": args.m, "L": args.L, "R": args.R, "d": args.dim,
              "mode": args.mode}
    return _run_spec("allwords", params, args)


def cmd_wierman(args):
    params = {
        "region": {"kind": "intervals", "intervals": list(parse_region_argument(args.region).intervals)},
        "p": args.p,
        "sources": [list(_parse_vertex(s)) for s in args.sources.split(";")],
        "word": word_to_spec(parse_word_argument(args.word)),
        "start_index": args.start_index,
    }
    return _run_spec("wierman", params, args, event="coupling certificate verified")


def cmd_oriented(args):
    params = {"stat": args.stat, "n": args.n, "h": args.h, "gamma": args.gamma,
              "delta": args.delta, "thin": args.thin}
    return _run_spec("oriented", params, args)


def cmd_renorm(args):
    if not 0.0 <= args.tdensity <= 1.0:
        raise DomainError("--tdensity must lie in [0, 1]")
    params = {"d": args.dim, "p": args.p, "k": args.k, "delta": args.delta, "h": args.h,
              "word": word_to_spec(parse_word_argument(args.word)), "mode": args.mode}
    if args.stat == "good":
        return _run_spec("renorm", params, args,
                         event="seed propagates to all out-neighbor faces")
    if args.stat == "explore":
        params.update(stat="explore", n=args.n, tdensity=args.tdensity)
    else:
        params.update(stat="emn", n=args.n, m=args.m)
    # explore and emn results have always been printed without their spec;
    # --spec with these params replays the same result
    return _run_spec("renorm", params, args, with_spec=False)


def cmd_decay(args):
    params = {"p": args.p, "L": args.L, "R": args.R,
              "m_list": _parse_radii(args.m_list), "d": args.dim,
              "mode": args.mode}
    return _run_spec("decay", params, args)


def cmd_oracle(args):
    """Exhaustive small-instance self-checks."""
    from .config import enumerate_configs
    from .geometry import Region
    from .oracles import connected_bruteforce, saw_reach_bruteforce, walk_reach_bruteforce
    from .search import one_connected_set
    from .words import AlternatingWord, ConstantWord, PeriodicWord

    if args.stride < 1:
        raise DomainError(f"--stride must be at least 1, not {args.stride}")
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok

    r22 = Region(((-1, 1), (-1, 1)))
    word10 = Word.from_string("10")
    hits = 0
    for cfg in enumerate_configs(r22):
        res = exact_word_reach(cfg, SourceSet.single(r22, (0, 0), word10), 1)
        hits += bool((res.index_hits >> 1) & 1)
    check("P(10 from origin in {0,1}^2) = 6/16", hits == 6)

    r33 = Region(((-2, 1), (-2, 1)))
    ok = True
    for i, cfg in enumerate(enumerate_configs(r33)):
        if i % args.stride:
            continue
        S = [(0, 0), (-1, 1)]
        if one_connected_set(cfg, S) != connected_bruteforce(cfg, S):
            ok = False
            break
    check("1-connectivity equals path enumeration on 3x3", ok)

    ok = True
    words = [Word.from_string(w) for w in ("1", "01", "110", "1011")]
    for i, cfg in enumerate(enumerate_configs(r33)):
        if i % (args.stride * 7):
            continue
        for w in words:
            src = SourceSet.uniform(r33, r33.iter_points(), w)
            exact = exact_word_reach(cfg, src, len(w) - 1)
            if exact.pairs() != saw_reach_bruteforce(cfg, src, len(w) - 1):
                ok = False
            relaxed = relaxed_word_reach(cfg, src, len(w) - 1)
            if not exact.issubset(relaxed):
                ok = False
    check("exact = path enumeration and exact <= relaxed on 3x3", ok)

    ok = True
    # period-2 words stop the sweep early; 110 runs it to the last index
    generators = [AlternatingWord(), ConstantWord(1), PeriodicWord("110")]
    for i, cfg in enumerate(enumerate_configs(r33)):
        if i % args.stride:
            continue
        for w in generators:
            src = SourceSet.uniform(r33, [(0, 0), (-1, 1)], w, [0, 3])
            if relaxed_word_reach(cfg, src, 12).pairs() != walk_reach_bruteforce(cfg, src, 12):
                ok = False
    check("relaxed = walk enumeration on 3x3", ok)

    ok = True
    # minimal arrivals on the right column and the centre from the left
    # column, read by two words; the second starts earlier, so it searches
    # on a table pruned by the first one's minima
    targets = [v for v in r33.iter_points() if v[0] == 1 or v == (0, 0)]
    mask = sum(1 << r for r, v in enumerate(r33.iter_points()) if v in targets)
    left = [(-1, -1), (-1, 0), (-1, 1)]
    src = SourceSet.from_entries(r33, [(v, t, 0) for v, t in zip(left, (2, 3, 2))]
                                 + [(v, t, 1) for v, t in zip(left, (0, 1, 0))],
                                 (Word.from_string("110101101"), Word.from_string("011011010")))
    for i, cfg in enumerate(enumerate_configs(r33)):
        if i % args.stride:
            continue
        pruned = exact_word_reach(cfg, src, 8, prune_targets=(mask, "min"))
        want = {}
        for v, t in saw_reach_bruteforce(cfg, src, 8):
            if v in targets:
                want[v] = min(t, want.get(v, t))
        if {v: t for v, t in pruned.min_arrival.items() if v in targets} != want:
            ok = False
    check("pruned exact minima = path enumeration on 3x3", ok)

    return 1 if failures else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    ap = argparse.ArgumentParser(
        prog="wordperc",
        description="Word percolation simulations: sampling, word search, "
        "couplings, oriented percolation, renormalization, Monte Carlo.",
    )
    ap.add_argument("--version", action="version", version=f"wordperc {__version__}")
    ap.add_argument("--spec", help="run a saved experiment spec (JSON file)")
    ap.add_argument("--out", help="write the result document to this path")
    ap.add_argument("--csv", help="write a flat CSV projection to this path")
    sub = ap.add_subparsers(dest="command")

    def common(p, trials=1000):
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.add_argument("--csv")

    p = sub.add_parser("sample", help="sample a configuration to a .wpc file")
    p.add_argument("--region", required=True, help="box:m=4 or lambda:n=3,h=2,k=2")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("reach", help="word reachability in a saved configuration")
    p.add_argument("--cfg", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--from", dest="from_vertex", required=True, metavar="X,Y,...")
    p.add_argument("--mode", choices=("exact", "relaxed"), default="exact")
    p.add_argument("--max-index", dest="max_index", type=int, default=None)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=cmd_reach)

    p = sub.add_parser("allwords", help="failure rate of seeing all length-L words")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m", type=int, required=True, help="start ball radius")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--R", type=int, required=True, help="horizon ball radius")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "relaxed"), default="exact")
    common(p, 1000)
    p.set_defaults(fn=cmd_allwords)

    p = sub.add_parser("wierman", help="coupled-pair trials with certificates")
    p.add_argument("--region", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sources", required=True, help="semicolon-separated vertices")
    p.add_argument("--word", required=True)
    p.add_argument("--start-index", dest="start_index", type=int, choices=(0, 1), default=0)
    common(p, 100000)
    p.set_defaults(fn=cmd_wierman)

    p = sub.add_parser("oriented", help="oriented percolation statistics")
    p.add_argument("--stat", choices=("crossing", "domination", "xi5n"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, default=6)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--thin", action="store_true", help="use the thin window variant")
    common(p, 10000)
    p.set_defaults(fn=cmd_oriented)

    p = sub.add_parser("renorm", help="block renormalization statistics")
    p.add_argument("--stat", choices=("good", "explore", "emn"), default="good")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "relaxed"), default="exact")
    p.add_argument("--tdensity", type=float, default=0.5)
    common(p, 2000)
    p.set_defaults(fn=cmd_renorm)

    p = sub.add_parser("decay", help="all-words failure decay against the radius")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--m-list", dest="m_list", required=True, help="comma-separated radii")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "relaxed"), default="relaxed")
    common(p, 1000)
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("oracle", help="exhaustive small-instance self-checks")
    p.add_argument("--stride", type=int, default=1, help="thin the exhaustive scans")
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_outputs(args)
        if args.spec:
            with open(args.spec) as f:
                spec = ExperimentSpec.from_dict(json.load(f), out=args.out)
            t0 = time.time()
            doc = run(spec)
            _emit(doc, args, time.time() - t0)
            return 0
        if not getattr(args, "fn", None):
            ap.print_help()
            return 2
        return args.fn(args)
    except (ValidationError, DomainError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except WordpercError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
