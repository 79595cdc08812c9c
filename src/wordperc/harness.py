"""Experiment specifications, Monte Carlo driving, and result files.

A spec is a JSON-able description {kind, params, trials, seed, out}.
Running one yields a deterministic result document: identical specs give
identical success counts (and identical canonical JSON bytes, aside from
the separate meta block holding timestamps and wall time).

Capacity guards for the whole artifact are centralized in validate():
word lengths, enumeration sizes, and search depths are rejected with an
error that lists every violated precondition at once.

Set WORDPERC_THREADS > 1 to fan trials out over processes; the reduction
is a sum of per-trial successes, so the result does not depend on
completion order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import sample
from .errors import CapacityError, DomainError, ValidationError
from .estimate import Estimate, wilson_interval
from .geometry import Region, box, is_macro_vertex, lambda_box
from .oriented import crossing_stat, domination_probe, planar_window_for_xi, sample_oriented, xi_column_reach
from .renorm import RenormParams, SeedSet, good_event
from .rng import RngStream
from .search import SourceSet, exact_word_reach, relaxed_word_reach, sees_all_words
from .wierman import verify_coupling, wierman_couple
from .words import Word, WordGenerator, generator_from_spec, parse_word_argument

SCHEMA_SPEC = "wordperc-spec/1"
SCHEMA_RESULT = "wordperc-result/1"

KINDS = ("site", "reach", "allwords", "wierman", "oriented", "renorm", "decay")


def region_from_spec(spec) -> Region:
    if isinstance(spec, Region):
        return spec
    kind = spec.get("kind", "intervals")
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
    return generator_from_spec(spec)


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
        try:
            return cls(d["kind"], dict(d["params"]), int(d["trials"]), int(d["seed"]), out)
        except (TypeError, ValueError) as e:
            raise ValidationError([f"malformed spec: {e}"])


def validate(spec: ExperimentSpec) -> list[str]:
    """Every violated precondition, or an empty list."""
    v: list[str] = []
    try:
        _validate(spec, v)
    except (TypeError, ValueError) as e:
        v.append(f"malformed parameter: {e}")
    return v


def _validate(spec: ExperimentSpec, v: list[str]):
    p = spec.params
    if spec.kind not in KINDS:
        v.append(f"unknown kind {spec.kind!r}")
        return
    if spec.trials < 1:
        v.append("trials must be >= 1")

    def check_p(key="p"):
        if not 0.0 <= float(p.get(key, -1)) <= 1.0:
            v.append(f"{key} must lie in [0, 1]")

    def check_region(key="region"):
        try:
            return region_from_spec(p[key])
        except (KeyError, TypeError, ValueError, DomainError) as e:
            v.append(f"bad region: {e}")
            return None

    def check_vertices(points, region, what):
        for pt in points:
            if not isinstance(pt, (list, tuple)) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in pt
            ):
                v.append(f"{what} {pt!r} is not a list of integer coordinates")
            elif region is not None and not region.contains(tuple(pt)):
                v.append(f"{what} {list(pt)} is not a point of the {region.dim}-d region")

    if spec.kind == "site":
        check_p()
        region = check_region()
        if "vertex" in p:
            check_vertices([p["vertex"]], region, "vertex")
    elif spec.kind == "reach":
        check_p()
        region = check_region()
        if "source" not in p:
            v.append("reach needs a source")
        else:
            check_vertices([p["source"]], region, "source")
        if "word" not in p:
            v.append("reach needs a word")
        if int(p.get("max_index", 0)) > 1 << 20:
            v.append("max_index beyond the search guard")
    elif spec.kind == "allwords":
        check_p()
        L = int(p.get("L", 0))
        mode = p.get("mode", "exact")
        if not 1 <= L <= 24:
            v.append("L must lie in 1..24")
        if mode == "relaxed" and L > 12:
            v.append("relaxed allwords capped at L <= 12")
        if int(p.get("m", 0)) < 0 or int(p.get("R", 0)) < int(p.get("m", 0)):
            v.append("need R >= m >= 0")
        if int(p.get("R", 0)) > 64:
            v.append("horizon radius capped at 64")
    elif spec.kind == "wierman":
        check_p()
        if float(p.get("p", 1)) > 0.5:
            v.append("coupling needs p <= 1/2 (flip colors to fold p)")
        region = check_region()
        if not p.get("sources"):
            v.append("wierman needs source vertices")
        else:
            check_vertices(p["sources"], region, "source")
        if "word" not in p:
            v.append("wierman needs a word")
    elif spec.kind == "oriented":
        if p.get("stat") not in ("crossing", "domination", "xi5n"):
            v.append("stat must be crossing, domination, or xi5n")
        if not 0.0 <= float(p.get("gamma", -1)) <= 1.0:
            v.append("gamma must lie in [0, 1]")
        n = int(p.get("n", 0))
        if n < 4:
            v.append("n must be >= 4")
        if p.get("stat") == "domination":
            if n % 2:
                v.append("domination needs even n")
            if not 0 < float(p.get("delta", 1)) < 0.1:
                v.append("domination needs delta in (0, 1/10)")
        if p.get("stat") == "crossing" and not 0 < float(p.get("delta", 0)) <= 1:
            v.append("crossing needs delta in (0, 1]")
    elif spec.kind == "renorm":
        try:
            RenormParams(
                int(p.get("d", 3)), float(p.get("p", 0.5)), int(p.get("k", 2)),
                float(p.get("delta", 1e-6)), int(p.get("h", 4)),
            )
        except DomainError as e:
            v.append(str(e))
        if "word" not in p:
            v.append("renorm needs a word")
        u, h = p.get("u", [0, 0, 2]), int(p.get("h", 4))
        found = len(v)
        check_vertices([u], None, "u")
        if len(v) == found and (len(u) != 3 or not is_macro_vertex(tuple(u), h)):
            v.append(f"u {list(u)} is not a macro vertex for h={h} (three integers, "
                     "macro parity, 0 < u3 < h)")
        if int(p.get("n", 1)) < 1 or int(p.get("m", 1)) < 1:
            v.append("need n, m >= 1")
    elif spec.kind == "decay":
        check_p()
        L = int(p.get("L", 0))
        R = int(p.get("R", 0))
        mode = p.get("mode", "relaxed")
        if not 1 <= L <= 24:
            v.append("L must lie in 1..24")
        if mode == "relaxed" and (L > 12 or R > 64):
            v.append("relaxed decay capped at L <= 12, R <= 64")
        ms = p.get("m_list", [])
        if not ms or any(int(m) < 0 for m in ms):
            v.append("m_list must hold nonnegative radii")
        if ms and R < max(int(m) for m in ms):
            v.append("R must cover every m")


# -- per-kind trial functions (module level so they pickle) -------------------


def _trial_site(params, seed, t) -> int:
    region = region_from_spec(params["region"])
    cfg = sample(region, float(params["p"]), RngStream(seed, t))
    return int(cfg.bit_at(tuple(params.get("vertex", region.min_point()))))


def _trial_reach(params, seed, t) -> int:
    region = region_from_spec(params["region"])
    cfg = sample(region, float(params["p"]), RngStream(seed, t))
    word = word_from_spec(params["word"])
    length = params.get("max_index")
    if length is None:
        if not isinstance(word, Word):
            raise DomainError("reach with a generator word needs max_index")
        length = word.length - 1
    src = SourceSet.single(tuple(params["source"]), word)
    mode = params.get("mode", "exact")
    if mode == "relaxed":
        res = relaxed_word_reach(cfg, src, int(length), collect_arrivals=False)
    else:
        res = exact_word_reach(cfg, src, int(length), stop_at_index=int(length))
    return int(bool((res.index_hits >> int(length)) & 1))


def _trial_allwords_failure(params, seed, t) -> int:
    R = int(params["R"])
    m = int(params["m"])
    d = int(params.get("d", 3))
    cfg = sample(box(R, d), float(params["p"]), RngStream(seed, t))
    ok, _ = sees_all_words(
        cfg, box(m, d), int(params["L"]), mode=params.get("mode", "exact")
    )
    return int(not ok)


def _trial_wierman(params, seed, t) -> int:
    region = region_from_spec(params["region"])
    sources = [tuple(s) for s in params["sources"]]
    word = word_from_spec(params["word"])
    pair = wierman_couple(
        region, sources, word, float(params["p"]), RngStream(seed, t),
        start_index=int(params.get("start_index", 0)),
    )
    ok, _ = verify_coupling(pair)
    return int(ok)


def _trial_renorm_good(params, seed, t) -> int:
    rp = RenormParams(
        int(params.get("d", 3)), float(params["p"]), int(params["k"]),
        float(params.get("delta", 1e-6)), int(params.get("h", 4)),
    )
    u = tuple(params.get("u", (0, 0, 2)))
    word = word_from_spec(params["word"])
    k, d = rp.k, rp.d
    su = list(u) + [0] * (d - 3)
    window = Region(tuple((k * s - 2 * k - 2, k * s + 2 * k + 2) for s in su))
    cfg = sample(window, rp.p, RngStream(seed, t))
    seed_set = SeedSet.full_face(u, rp)
    return int(good_event(cfg, seed_set, word, rp, mode=params.get("mode", "exact")))


_TRIALS = {
    "site": _trial_site,
    "reach": _trial_reach,
    "allwords": _trial_allwords_failure,
    "wierman": _trial_wierman,
    "renorm": _trial_renorm_good,
}


def _threads() -> int:
    """Worker processes: WORDPERC_THREADS, clamped to [1, os.cpu_count()]."""
    try:
        want = int(os.environ.get("WORDPERC_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(want, os.cpu_count() or 1))


def _run_bernoulli(kind, params, trials, seed) -> Estimate:
    fn = _TRIALS[kind]
    workers = _threads()
    t0 = time.time()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            succ = sum(ex.map(fn, *zip(*[(params, seed, t) for t in range(trials)])))
    else:
        succ = sum(fn(params, seed, t) for t in range(trials))
    return Estimate(
        int(succ), trials, wall_time_s=time.time() - t0, seed_range=(0, trials - 1)
    )


def decay_experiment(
    p: float,
    L: int,
    m_list,
    R: int,
    trials: int,
    seed: int,
    d: int = 3,
    mode: str = "relaxed",
) -> dict:
    """Failure frequency q_m of reading all length-L words from the ball
    of radius m inside the shared radius-R horizon, for each m.

    One configuration per trial is shared by every m, so the q_m are
    coupled and nonincreasing in m by construction.  Reports the slope of
    log q_m against m^(d-1) where q_m > 0.
    """
    ms = sorted(int(m) for m in m_list)
    if mode == "relaxed" and (L > 12 or R > 64):
        raise CapacityError("relaxed decay capped at L <= 12, R <= 64")
    horizon = box(R, d)
    failures = {m: 0 for m in ms}
    for t in range(trials):
        cfg = sample(horizon, p, RngStream(seed, t))
        for m in ms:
            ok, _ = sees_all_words(cfg, box(m, d), L, mode=mode)
            if ok:
                # larger balls only add start vertices; no further failures
                break
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
    if len(xs) >= 2:
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
    if spec.kind in _TRIALS:
        est = _run_bernoulli(spec.kind, params, trials, seed)
        result = est.to_dict()
        if spec.kind == "allwords":
            result["event"] = "some length-L word unseen"
    elif spec.kind == "decay":
        result = decay_experiment(
            float(params["p"]), int(params["L"]), params["m_list"], int(params["R"]),
            trials, seed, int(params.get("d", 3)), params.get("mode", "relaxed"),
        )
    elif spec.kind == "oriented":
        stat = params["stat"]
        if stat == "crossing":
            result = crossing_stat(
                trials, int(params["n"]), int(params["h"]), float(params["gamma"]),
                float(params["delta"]), seed, thin=bool(params.get("thin", False)),
            )
        elif stat == "domination":
            result = domination_probe(
                float(params["gamma"]), float(params["delta"]), int(params["n"]),
                trials, seed,
            )
        else:  # xi5n marginal frequencies
            n = int(params["n"])
            verts = planar_window_for_xi(n)
            col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
            counts: dict[int, int] = {}
            for t in range(trials):
                cfg = sample_oriented(
                    "planar", verts, float(params["gamma"]), RngStream(seed, t)
                )
                for y in xi_column_reach(cfg, col0, n):
                    counts[y] = counts.get(y, 0) + 1
            result = {
                "kind": "xi5n",
                "n": n,
                "gamma": params["gamma"],
                "trials": trials,
                "per_y_frequency": {str(y): c / trials for y, c in sorted(counts.items())},
            }
    else:
        raise ValidationError([f"unhandled kind {spec.kind!r}"])
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
