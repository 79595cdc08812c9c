"""Experiment specifications, Monte Carlo driving, and result files.

A spec is a JSON-able description {kind, params, trials, seed, out}.
Running one yields a deterministic result document: identical specs give
identical success counts (and identical canonical JSON bytes, aside from
the separate meta block holding timestamps and wall time).

Capacity guards for the whole artifact are centralized in validate():
word lengths, enumeration sizes, and search depths are rejected with an
error that lists every violated precondition at once.

Every kind and statistic runs its trials through estimate.run_trials,
which fans contiguous trial ranges out over WORDPERC_THREADS processes
and returns the per-trial outcomes in trial order; each statistic reduces
them as a serial loop would, so the result does not depend on the worker
count.  Within a range, trials are sampled a block at a time
(config.sample_block over config.trial_blocks), and reach, allwords and
decay decide each block with one stacked search (search.relaxed_reach_block,
exact_reach_block, sees_all_words_block); see the range functions.
Reach, allwords, decay and renorm good trials draw and search only the
sub-box their search can read, each site with the draw of its rank in
the whole region or window, so every outcome is the whole region's; the
whole region or window is still checked against config.MAX_SITES before
any draw.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import Configuration, check_sites, sample_block, trial_blocks
from .errors import CapacityError, DomainError, ValidationError
from .estimate import Estimate, run_trials, wilson_interval
from .geometry import MAX_DIM, Region, box, is_macro_vertex, lambda_box
from .oriented import crossing_stat, domination_probe, xi5n_stat
from .renorm import (RenormParams, SeedSet, _box_view, emn_stat, exploration_stat,
                     good_event, walk_good_events, walks_decide)
from .rng import below, raw_grid
from .search import (SourceSet, exact_reach_block, reach_radius, relaxed_reach_block,
                     sees_all_words_block)
from .wierman import couple_block, verify_block
from .words import Word, WordGenerator, generator_from_spec, parse_word_argument

SCHEMA_SPEC = "wordperc-spec/1"
SCHEMA_RESULT = "wordperc-result/1"

KINDS = ("site", "reach", "allwords", "wierman", "oriented", "renorm", "decay")
STATS = {"oriented": ("crossing", "domination", "xi5n"), "renorm": ("good", "explore", "emn")}

# Params each kind reads without a default; oriented and renorm specs are
# keyed by their statistic ("stat", which defaults to "good" for renorm).
REQUIRED = {
    "site": ("region", "p"),
    "reach": ("region", "p", "source", "word"),
    "allwords": ("p", "m", "L", "R"),
    "wierman": ("region", "p", "sources", "word"),
    "decay": ("p", "L", "R", "m_list"),
    "crossing": ("n", "h", "gamma", "delta"),
    "domination": ("n", "gamma", "delta"),
    "xi5n": ("n", "gamma"),
    "good": ("p", "k", "word"),
    "explore": ("p", "k", "word", "n", "tdensity"),
    "emn": ("p", "k", "word", "n", "m"),
}


# the keys each region kind has no default for
_REGION_KEYS = {"box": ("m",), "ball": ("m",), "lambda": ("n", "h", "k"),
                "intervals": ("intervals",)}


def region_from_spec(spec) -> Region:
    if isinstance(spec, Region):
        return spec
    if not isinstance(spec, dict):
        raise DomainError(f"a region is an object with a kind, not {spec!r}")
    kind = spec.get("kind", "intervals")
    for key in _REGION_KEYS.get(kind, ()):
        if key not in spec:
            raise DomainError(f"a region of kind {kind!r} needs {key!r}")
    if kind in ("box", "ball"):
        return box(int(spec["m"]), int(spec.get("d", 3)))
    if kind == "lambda":
        return lambda_box(
            int(spec["n"]), int(spec["h"]), int(spec["k"]), int(spec.get("d", 3))
        )
    if kind == "intervals":
        return Region(tuple((int(lo), int(hi)) for lo, hi in spec["intervals"]))
    raise DomainError(f"unknown region kind {kind!r}")


def parse_region_argument(text: str) -> Region:
    """CLI region syntax: box:m=4,d=3 or lambda:n=3,h=2,k=2,d=3."""
    name, _, args = text.partition(":")
    kv = {}
    for part in args.split(","):
        if "=" in part:
            k, v = part.split("=", 1)
            try:
                kv[k] = int(v)
            except ValueError:
                raise DomainError(f"region argument {text!r}: {k} must be an integer")
    return region_from_spec({"kind": name, **kv})


def word_from_spec(spec):
    if isinstance(spec, (Word, WordGenerator)):
        return spec
    if isinstance(spec, str):
        return parse_word_argument(spec)
    try:
        return generator_from_spec(spec)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"{spec!r}: {e}")


def word_to_spec(word):
    if isinstance(word, Word):
        return str(word)
    return word.spec()


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict
    trials: int
    seed: int
    out: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_SPEC,
            "kind": self.kind,
            "params": self.params,
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict, out=None) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise ValidationError(["a spec must be a JSON object"])
        missing = [k for k in ("kind", "params", "trials", "seed") if k not in d]
        if missing:
            raise ValidationError([f"spec is missing {k!r}" for k in missing])
        wrong = [f"spec {k!r} must be an integer, not {d[k]!r}" for k in ("trials", "seed")
                 if not isinstance(d[k], int) or isinstance(d[k], bool)]
        if wrong:
            raise ValidationError(wrong)
        try:
            return cls(d["kind"], dict(d["params"]), d["trials"], d["seed"], out)
        except (TypeError, ValueError) as e:
            raise ValidationError([f"malformed spec: {e}"])


def validate(spec: ExperimentSpec) -> list[str]:
    """Every violated precondition, or an empty list."""
    v: list[str] = []
    try:
        _validate(spec, v)
    except (TypeError, ValueError, OverflowError) as e:
        v.append(f"malformed parameter: {e}")
    return v


def _validate(spec: ExperimentSpec, v: list[str]):
    p = spec.params
    if spec.kind not in KINDS:
        v.append(f"unknown kind {spec.kind!r}")
        return
    if spec.trials < 1:
        v.append("trials must be >= 1")
    if not 0 <= spec.seed < 1 << 64:
        v.append("seed must lie in [0, 2^64)")
    stat = p.get("stat", "good") if spec.kind == "renorm" else p.get("stat")
    if spec.kind in STATS and stat not in STATS[spec.kind]:
        v.append(f"stat must be one of {', '.join(STATS[spec.kind])}")
        return
    name = stat if spec.kind in STATS else spec.kind
    missing = [key for key in REQUIRED[name] if key not in p]
    if missing:
        v.extend(f"{name} needs {key!r}" for key in missing)
        return
    if spec.kind not in STATS and not 0.0 <= float(p["p"]) <= 1.0:
        v.append("p must lie in [0, 1]")
    if spec.kind in ("allwords", "decay") and not 1 <= int(p.get("d", 3)) <= MAX_DIM:
        v.append(f"d must lie in 1..{MAX_DIM}")
    if spec.kind in ("reach", "allwords", "decay", "renorm") and p.get("mode", "exact") not in (
            "exact", "relaxed"):
        v.append(f"{name} mode must be exact or relaxed, not {p['mode']!r}")
    region = None
    if "region" in REQUIRED[name]:
        try:
            region = region_from_spec(p["region"])
        except (KeyError, TypeError, ValueError, OverflowError, DomainError) as e:
            v.append(f"bad region: {e}")
    if "word" in REQUIRED[name]:
        try:
            word_from_spec(p["word"])
        except DomainError as e:
            v.append(f"bad word: {e}")

    def check_vertices(points, region, what):
        for pt in points:
            if not isinstance(pt, (list, tuple)) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in pt
            ):
                v.append(f"{what} {pt!r} is not a list of integer coordinates")
            elif region is not None and not region.contains(tuple(pt)):
                v.append(f"{what} {list(pt)} is not a point of the {region.dim}-d region")

    if spec.kind == "site" and "vertex" in p:
        check_vertices([p["vertex"]], region, "vertex")
    elif spec.kind == "reach":
        check_vertices([p["source"]], region, "source")
        if int(p.get("max_index", 0)) > 1 << 20:
            v.append("max_index beyond the search guard")
    elif spec.kind == "allwords":
        L, m, R = int(p["L"]), int(p["m"]), int(p["R"])
        if not 1 <= L <= 24:
            v.append("L must lie in 1..24")
        if p.get("mode", "exact") == "relaxed" and L > 12:
            v.append("relaxed allwords capped at L <= 12")
        if m < 0 or R < m:
            v.append("need R >= m >= 0")
        if R > 64:
            v.append("horizon radius capped at 64")
    elif spec.kind == "wierman":
        if float(p["p"]) > 0.5:
            v.append("coupling needs p <= 1/2 (flip colors to fold p)")
        if not p["sources"]:
            v.append("wierman needs source vertices")
        check_vertices(p["sources"], region, "source")
        start = p.get("start_index", 0)
        if not isinstance(start, int) or isinstance(start, bool) or start not in (0, 1):
            v.append(f"start_index must be the integer 0 or 1, not {start!r}")
    elif spec.kind == "oriented":
        if not 0.0 <= float(p["gamma"]) <= 1.0:
            v.append("gamma must lie in [0, 1]")
        n = int(p["n"])
        if n < 4:
            v.append("n must be >= 4")
        if stat != "crossing" and n % 2:
            v.append(f"{stat} needs even n")
        if stat == "domination" and not 0 < float(p["delta"]) < 0.1:
            v.append("domination needs delta in (0, 1/10)")
        if stat == "crossing" and not 0 < float(p["delta"]) <= 1:
            v.append("crossing needs delta in (0, 1]")
        if stat == "crossing" and not isinstance(p.get("thin", False), bool):
            v.append(f"thin must be true or false, not {p['thin']!r}")
        h = p.get("h")
        if stat == "crossing" and (not isinstance(h, int) or isinstance(h, bool) or h < 2):
            v.append(f"crossing needs an integer h >= 2, not {h!r}")
    elif spec.kind == "renorm":
        try:
            _renorm_params(p)
        except DomainError as e:
            v.append(str(e))
        if int(p.get("n", 1)) < 1 or int(p.get("m", 1)) < 1:
            v.append("need n, m >= 1")
        if stat == "good":
            u, h = p.get("u", [0, 0, 2]), int(p.get("h", 4))
            found = len(v)
            check_vertices([u], None, "u")
            if len(v) == found and (len(u) != 3 or not is_macro_vertex(tuple(u), h)):
                v.append(f"u {list(u)} is not a macro vertex for h={h} (three integers, "
                         "macro parity, 0 < u3 < h)")
        elif stat == "explore":
            if int(p["n"]) < 3:
                v.append("explore needs n >= 3")
            if not 0.0 <= float(p["tdensity"]) <= 1.0:
                v.append("tdensity must lie in [0, 1]")
        elif int(p["m"]) > int(p["n"]):
            v.append("emn needs n >= m")
    elif spec.kind == "decay":
        L, R, ms = int(p["L"]), int(p["R"]), p["m_list"]
        if not 1 <= L <= 24:
            v.append("L must lie in 1..24")
        if p.get("mode", "relaxed") == "relaxed" and (L > 12 or R > 64):
            v.append("relaxed decay capped at L <= 12, R <= 64")
        if not ms or any(int(m) < 0 for m in ms):
            v.append("m_list must hold nonnegative radii")
        if len({int(m) for m in ms}) < len(ms):
            v.append("m_list repeats a radius")
        if ms and R < max(int(m) for m in ms):
            v.append("R must cover every m")


# -- per-kind range functions (module level so they pickle) -------------------
#
# Each returns the outcomes of trials t0..t1-1, trial t drawing from stream t.
# Every range that samples a region draws its trials as rows of
# config.sample_block, in blocks of at most config.BLOCK_SITES sites of
# the sub-box it reads (config.trial_blocks); reach sweeps a block at once,
# all-words and decay walk the word trie once per block, and the coupling
# couples and verifies a block of pairs at a time, two draws per site
# (wierman.couple_block, verify_block).


def _renorm_params(p) -> RenormParams:
    return RenormParams(int(p.get("d", 3)), float(p["p"]), int(p["k"]),
                        float(p.get("delta", 1e-6)), int(p.get("h", 4)))


def _site_trials(params, seed, t0, t1) -> list[int]:
    """The vertex's colour, draw rank(vertex) of each trial's stream."""
    region = region_from_spec(params["region"])
    p = float(params["p"])
    rank = region.rank(tuple(params.get("vertex", region.min_point())))
    out = []
    for b0, b1 in trial_blocks(t0, t1, 1):
        out += below(raw_grid(seed, b0, b1, rank, 1)[:, 0], p).astype(int).tolist()
    return out


def _reach_trials(params, seed, t0, t1) -> list[int]:
    """Whether each trial reaches index max_index (the literal word's last
    index by default): one stacked sweep per block, relaxed or exact, on
    the part of the region within search.reach_radius of the source, the
    only sites it reads, which alone are drawn."""
    region = region_from_spec(params["region"])
    p = float(params["p"])
    word = word_from_spec(params["word"])
    length = params.get("max_index")
    if length is None:
        if not isinstance(word, Word):
            raise DomainError("reach with a generator word needs max_index")
        length = word.length - 1
    length = int(length)
    relaxed = params.get("mode", "exact") == "relaxed"
    check_sites(region.volume)  # refused before the word's prefix is read
    source = tuple(params["source"])
    part = region.around(source, reach_radius(word, length, relaxed))
    src = SourceSet.single(part, source, word)
    reach = relaxed_reach_block if relaxed else exact_reach_block
    out = []
    for b0, b1 in trial_blocks(t0, t1, part.volume):
        colors = sample_block(region, p, seed, b0, b1, part)
        out += reach(part, colors, src, length).astype(int).tolist()
    return out


def _words_box(R: int, m: int, L: int, d: int) -> Region:
    """The sites a length-L word read from the radius-m ball of the
    radius-R horizon can reach: a walk of L - 1 steps stays within
    m + L - 1 of the origin.  A search on that box alone answers as on
    the horizon, so trials draw and search only it."""
    return box(min(R, m + L - 1), d)


def _allwords_failures(params, seed, t0, t1) -> list[int]:
    """Whether each trial's radius-m ball misses some length-L word inside
    the radius-R horizon, one trie walk per block of _words_box."""
    d, R, m = int(params.get("d", 3)), int(params["R"]), int(params["m"])
    p, L, mode = float(params["p"]), int(params["L"]), params.get("mode", "exact")
    horizon, part, ball = box(R, d), _words_box(R, m, L, d), box(m, d)
    return [int(not ok) for b0, b1 in trial_blocks(t0, t1, part.volume)
            for ok, _ in sees_all_words_block(part, sample_block(horizon, p, seed, b0, b1, part),
                                              ball, L, mode=mode)]


def _wierman_trials(params, seed, t0, t1) -> list[int]:
    """Whether each trial's coupling certificate verifies; each site takes
    two draws, so a block of pairs draws at most BLOCK_SITES uniforms."""
    region = region_from_spec(params["region"])
    sources = [tuple(s) for s in params["sources"]]
    word = word_from_spec(params["word"])
    p, start = float(params["p"]), params.get("start_index", 0)
    # a block's pairs die before the next block draws
    return [int(ok) for b0, b1 in trial_blocks(t0, t1, 2 * region.volume)
            for ok, _ in verify_block(couple_block(region, sources, word, p, seed, b0, b1,
                                                   start_index=start))]


def _renorm_good_trials(params, seed, t0, t1) -> list[int]:
    """Good events of the full face of u on the window B^u padded by k + 2.
    The events read F^u u B^u alone, so the trials draw only its sites, at
    their window ranks, and search it as their region.  Walk-decided
    events run a block of trials in one stacked sweep; the others keep one
    self-avoiding search per trial."""
    rp = _renorm_params(params)
    u = tuple(params.get("u", (0, 0, 2)))
    word = word_from_spec(params["word"])
    mode = params.get("mode", "exact")
    k = rp.k
    su = list(u) + [0] * (rp.d - 3)
    window = Region(tuple((k * s - 2 * k - 2, k * s + 2 * k + 2) for s in su))
    # an oversized window is refused before the box, the seed and the
    # word's prefix are built
    check_sites(window.volume)
    part = _box_view(u, k, rp.d, window.intervals)[0]
    seed_set = SeedSet.full_face(u, rp)
    walks = walks_decide(word, mode, rp.C * (u[0] + 2))
    out = []
    for b0, b1 in trial_blocks(t0, t1, part.volume):
        colors = sample_block(window, rp.p, seed, b0, b1, part)
        if walks:
            out += walk_good_events(part, colors, seed_set, word, rp).astype(int).tolist()
        else:
            out += [int(good_event(Configuration.from_bools(part, row), seed_set, word, rp,
                                   mode=mode)) for row in colors]
    return out


_BERNOULLI = {
    "site": _site_trials,
    "reach": _reach_trials,
    "allwords": _allwords_failures,
    "wierman": _wierman_trials,
    "renorm": _renorm_good_trials,
}


def _decay_failures(p, L, ms, R, d, mode, seed, t0, t1) -> list[int]:
    """Per trial, how many radii of ms (ascending) fail before the first
    one whose ball sees every word.  Each radius walks the trie once per
    block, over the rows that no smaller ball saw every word from; the
    trials draw and search the _words_box of the largest radius."""
    horizon, part = box(R, d), _words_box(R, max(ms), L, d)
    balls = [box(m, d) for m in ms]
    out = []
    for b0, b1 in trial_blocks(t0, t1, part.volume):
        colors = sample_block(horizon, p, seed, b0, b1, part)
        fails = np.zeros(len(colors), dtype=int)
        rows = np.arange(len(colors))
        for ball in balls:
            seen = sees_all_words_block(part, colors[rows], ball, L, mode=mode)
            # larger balls only add start vertices; no further failures
            rows = rows[[not ok for ok, _ in seen]]
            if not len(rows):
                break
            fails[rows] += 1
        out += fails.tolist()
    return out


def decay_experiment(p: float, L: int, m_list, R: int, trials: int, seed: int, d: int = 3,
                     mode: str = "relaxed") -> dict:
    """Failure frequency q_m of reading all length-L words from the ball
    of radius m inside the shared radius-R horizon, for each m.

    One configuration per trial is shared by every m, so the q_m are
    coupled and nonincreasing in m by construction.  Reports the slope of
    log q_m against m^(d-1) where q_m > 0, or null without two distinct
    values of m^(d-1) to fit (one radius with q_m > 0, or d = 1, where
    every m^0 is 1).
    """
    ms = sorted(int(m) for m in m_list)
    if mode == "relaxed" and (L > 12 or R > 64):
        raise CapacityError("relaxed decay capped at L <= 12, R <= 64")
    failures = {m: 0 for m in ms}
    for fails in run_trials(_decay_failures, (p, L, ms, R, d, mode, seed), trials):
        for m in ms[:fails]:
            failures[m] += 1
    rows = []
    xs, ys = [], []
    for m in ms:
        q = failures[m] / trials
        lo, hi = wilson_interval(failures[m], trials)
        rows.append({"m": m, "failures": failures[m], "q": q, "wilson95": [lo, hi]})
        if q > 0:
            xs.append(m ** (d - 1))
            ys.append(math.log(q))
    slope = intercept = r2 = None
    if len(set(xs)) >= 2:
        coef = np.polyfit(xs, ys, 1)
        slope, intercept = float(coef[0]), float(coef[1])
        pred = np.polyval(coef, xs)
        ss_res = float(np.sum((np.array(ys) - pred) ** 2))
        ss_tot = float(np.sum((np.array(ys) - np.mean(ys)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    out = {
        "kind": "decay",
        "p": p,
        "L": L,
        "R": R,
        "d": d,
        "mode": mode,
        "trials": trials,
        "rows": rows,
        "log_q_slope_vs_m_pow": slope,
        "intercept": intercept,
        "r_squared": r2,
    }
    if mode == "relaxed":
        out["caveat"] = (
            "relaxed search over-counts readable words, so q is a lower bound"
        )
    return out


def run(spec: ExperimentSpec) -> dict:
    """Execute a spec; returns the result document (without meta)."""
    violations = validate(spec)
    if violations:
        raise ValidationError(violations)
    params, trials, seed = spec.params, spec.trials, spec.seed
    stat = params.get("stat")
    if spec.kind == "decay":
        result = decay_experiment(
            float(params["p"]), int(params["L"]), params["m_list"], int(params["R"]),
            trials, seed, int(params.get("d", 3)), params.get("mode", "relaxed"),
        )
    elif spec.kind == "oriented":
        n, gamma = int(params["n"]), params["gamma"]
        if stat == "crossing":
            result = crossing_stat(
                trials, n, int(params["h"]), float(gamma), float(params["delta"]), seed,
                thin=params.get("thin", False),
            )
        elif stat == "domination":
            result = domination_probe(float(gamma), float(params["delta"]), n, trials, seed)
        else:
            result = xi5n_stat(trials, n, gamma, seed)
    elif spec.kind == "renorm" and stat in ("explore", "emn"):
        rp, word = _renorm_params(params), word_from_spec(params["word"])
        mode = params.get("mode", "exact")
        if stat == "explore":
            result = exploration_stat(
                trials, int(params["n"]), word, rp, float(params["tdensity"]), seed, mode
            )
        else:
            result = emn_stat(trials, int(params["m"]), int(params["n"]), word, rp, seed, mode)
    else:
        successes = sum(run_trials(_BERNOULLI[spec.kind], (params, seed), trials))
        result = Estimate(successes, trials).to_dict()
        if spec.kind == "allwords":
            result["event"] = "some length-L word unseen"
    return {"schema": SCHEMA_RESULT, "spec": spec.to_dict(), "result": result}


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_result(doc: dict, path: str, wall_time_s: float | None = None):
    """Write the canonical document; timestamps live in a separate meta
    field outside the determinism contract."""
    full = dict(doc)
    full["meta"] = {"written_at_unix": time.time()}
    if wall_time_s is not None:
        full["meta"]["wall_time_s"] = wall_time_s
    with open(path, "w") as f:
        json.dump(full, f, sort_keys=True, indent=2)
        f.write("\n")


def write_csv(doc: dict, path: str):
    """Flat plot-ready projection of a result document."""
    result = doc.get("result", doc)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if result.get("kind") == "decay":
            w.writerow(["m", "q", "wilson_lo", "wilson_hi"])
            for row in result["rows"]:
                w.writerow([row["m"], row["q"], row["wilson95"][0], row["wilson95"][1]])
        elif result.get("kind") == "domination":
            w.writerow(["threshold", "frequency", "wilson_lo", "wilson_hi", "benchmark"])
            for e in result["increasing_events"]:
                w.writerow(
                    [e["threshold"], e["frequency"], e["wilson95"][0], e["wilson95"][1],
                     e["product_half_benchmark"]]
                )
        elif "per_y_frequency" in result:
            w.writerow(["y", "frequency"])
            for y, freq in result["per_y_frequency"].items():
                w.writerow([y, freq])
        else:
            keys = [k for k in ("successes", "trials", "estimate", "frequency") if k in result]
            w.writerow(keys)
            w.writerow([result[k] for k in keys])
