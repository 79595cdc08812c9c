"""Span and counter tracing of wordperc layers, installed from outside.

``Tracer.install()`` replaces every module attribute that binds a traced
public function (``search.exact_word_reach`` is also bound as
``harness.exact_word_reach``, ``renorm.exact_word_reach`` and
``cli.exact_word_reach``) with a wrapper that records a span: name,
start, end, parent span and input id. Hot scalar calls get counters
instead of spans. ``uninstall()`` restores every binding.

``layer_metrics()`` turns the spans and counters of one pass into the
per-layer metrics that BENCHMARK.json names. A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time

from wordperc import geometry, rng, words

# (layer, home module, function) traced with spans
SPAN_FUNCTIONS = (
    ("config", "config", "sample"),
    ("geometry", "geometry", "neighbor_ranks"),
    ("search", "search", "relaxed_word_reach"),
    ("search", "search", "exact_word_reach"),
    ("search", "search", "one_connected_set"),
    ("search", "search", "sees_all_words"),
    ("wierman", "wierman", "wierman_couple"),
    ("wierman", "wierman", "verify_coupling"),
    ("renorm", "renorm", "good_event"),
    ("renorm", "renorm", "seed_sets_from"),
    ("renorm", "renorm", "macro_exploration"),
    ("oriented", "oriented", "explore"),
    ("oriented", "oriented", "oriented_reach"),
    ("oriented", "oriented", "sample_oriented"),
    ("oriented", "oriented", "crossing_stat"),
    ("oriented", "oriented", "domination_probe"),
    ("oriented", "oriented", "xi_column_reach"),
    ("accordion", "accordion", "accordion_embed"),
    ("harness", "harness", "run"),
    ("cli", "cli", "main"),
)

# (layer, class, method) traced with spans
SPAN_METHODS = (
    ("rng", rng.RngStream, "raw_block"),
    ("rng", rng.RngStream, "uniform_block"),
)

SEARCH_KERNELS = ("search.relaxed_word_reach", "search.exact_word_reach")

def _word_generator_classes():
    return [c for c in vars(words).values()
            if isinstance(c, type) and issubclass(c, words.WordGenerator)
            and "bit" in vars(c)]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, input id, outcome]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.input_id = None
        self._restore: list[tuple] = []
        self._in_uniform = False

    # -- installation ---------------------------------------------------------

    def install(self, only=None):
        """Patch every binding of the traced functions; ``only`` limits the
        spans to those names (for example ``{"harness.run"}``)."""
        homes = {home: importlib.import_module(f"wordperc.{home}")
                 for _, home, _ in SPAN_FUNCTIONS}
        mods = [m for name, m in sys.modules.items() if name.startswith("wordperc.")]
        for layer, home, fname in SPAN_FUNCTIONS:
            name = f"{layer}.{fname}"
            if only is not None and name not in only:
                continue
            orig = getattr(homes[home], fname)
            wrapped = self._span(name, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapped)
        if only is not None:
            return
        for layer, cls, meth in SPAN_METHODS:
            self._patch(cls, meth, self._span(f"{layer}.{meth}", vars(cls)[meth]))
        self._install_counters()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        outcome = _OUTCOMES.get(name)
        pre = _PRE.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.input_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if outcome is not None:
                rec[5] = outcome(args, kwargs, out)
            return out

        return wrapper

    def _install_counters(self):
        tracer = self
        counts = self.counts
        orig_uniform = vars(rng.RngStream)["uniform"]
        orig_raw = vars(rng.RngStream)["raw"]

        def uniform(self, i):
            counts["rng.uniform"] = counts.get("rng.uniform", 0) + 1
            tracer._in_uniform = True
            try:
                return orig_uniform(self, i)
            finally:
                tracer._in_uniform = False

        def raw(self, i):
            if not tracer._in_uniform:
                counts["rng.raw"] = counts.get("rng.raw", 0) + 1
            return orig_raw(self, i)

        self._patch(rng.RngStream, "uniform", uniform)
        self._patch(rng.RngStream, "raw", raw)
        for meth in ("rank", "unrank"):
            self._patch(geometry.Region, meth, _counted(counts, f"geometry.{meth}",
                                                         vars(geometry.Region)[meth]))
        for cls in _word_generator_classes():
            self._patch(cls, "bit", _counted(counts, "words.bit", vars(cls)["bit"]))

    # -- per-pass bookkeeping -------------------------------------------------

    def take(self):
        """Hand over this pass's spans and counts and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args)

    return wrapper


def _reach_hit(args, kwargs, res):
    max_index = args[2] if len(args) > 2 else kwargs["max_index"]
    return bool((res.index_hits >> int(max_index)) & 1)


def _cluster_size(args, kwargs, pair):
    return int((pair._explored & pair.omega.bools()).sum())


def _explore_counting(tracer, args, kwargs):
    """Count the decisions an exploration asks for."""
    args = list(args)
    decision = args[2] if len(args) > 2 else kwargs["decision"]

    counts = tracer.counts

    def counted(z):
        counts["oriented.decisions"] = counts.get("oriented.decisions", 0) + 1
        return decision(z)

    if len(args) > 2:
        args[2] = counted
    else:
        kwargs = dict(kwargs, decision=counted)
    return tuple(args), kwargs


_OUTCOMES = {
    "search.relaxed_word_reach": _reach_hit,
    "search.exact_word_reach": _reach_hit,
    "wierman.wierman_couple": _cluster_size,
    "wierman.verify_coupling": lambda a, k, out: bool(out[0]),
    "renorm.good_event": lambda a, k, out: bool(out),
    "renorm.macro_exploration": lambda a, k, out: len(out.queried),
    "rng.raw_block": lambda a, k, out: len(out),
    "rng.uniform_block": lambda a, k, out: len(out),
}
_PRE = {"oriented.explore": _explore_counting}


def calibrate(n: int = 20000) -> dict:
    """Seconds per call of the counted scalar methods, unwrapped."""
    stream = rng.RngStream(12345, 6)
    region = geometry.box(4, 3)
    pt = (1, -2, 3)
    out = {}
    for key, call in (
        ("rng.uniform", lambda i: stream.uniform(i)),
        ("geometry.rank", lambda i: region.rank(pt)),
        ("geometry.unrank", lambda i: region.unrank(i & 511)),
    ):
        t0 = time.perf_counter()
        for i in range(n):
            call(i)
        out[key] = (time.perf_counter() - t0) / n
    return out


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, counts, cal) -> dict:
    """Per-layer metrics of one pass (everything but the harness fan-out,
    cli and trace groups, which the runner adds)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in idx(name))

    def self_time(layer):
        return sum(dur[i] - child[i] for i, s in enumerate(spans)
                   if s[0].startswith(layer + "."))

    def under(i, pred):
        """Whether some ancestor of span i satisfies pred."""
        p = spans[i][3]
        while p >= 0:
            if pred(p):
                return True
            p = spans[p][3]
        return False

    def us(name):
        return sorted(dur[i] * 1e6 for i in idx(name))

    m = {}
    scalar = counts.get("rng.uniform", 0) + counts.get("rng.raw", 0)
    block_names = {"rng.raw_block", "rng.uniform_block"}
    m["rng.scalar_draws"] = scalar
    m["rng.block_draws"] = sum(
        spans[i][5] for name in block_names for i in idx(name)
        if spans[i][3] < 0 or spans[spans[i][3]][0] not in block_names
    )
    m["rng.self_s"] = self_time("rng") + scalar * cal["rng.uniform"]
    m["config.sample_calls"] = len(idx("config.sample"))
    m["config.sample_s"] = total("config.sample")
    ranks, unranks = counts.get("geometry.rank", 0), counts.get("geometry.unrank", 0)
    m["geometry.rank_calls"] = ranks
    m["geometry.unrank_calls"] = unranks
    m["geometry.self_s"] = (self_time("geometry") + ranks * cal["geometry.rank"]
                            + unranks * cal["geometry.unrank"])
    m["words.generator_bit_calls"] = counts.get("words.bit", 0)

    for key, name in (("relaxed", "search.relaxed_word_reach"),
                      ("exact", "search.exact_word_reach")):
        m[f"search.{key}_calls"] = len(idx(name))
        m[f"search.{key}_s"] = total(name)
        lat = us(name)
        m[f"search.{key}_call_us_p50"] = _quantile(lat, 50)
        m[f"search.{key}_call_us_p99"] = _quantile(lat, 99)
    m["search.one_connected_calls"] = len(idx("search.one_connected_set"))
    m["search.one_connected_s"] = total("search.one_connected_set")
    saw = idx("search.sees_all_words")
    m["search.sees_all_words_s"] = total("search.sees_all_words")
    saw_set = set(saw)
    kernel = [i for name in SEARCH_KERNELS for i in idx(name)]
    inner = sum(1 for i in kernel if spans[i][3] in saw_set)
    m["search.searches_per_sees_all_words"] = inner / len(saw) if saw else 0.0
    m["search.hit_ratio"] = (sum(1 for i in kernel if spans[i][5]) / len(kernel)
                             if kernel else 0.0)

    couple, verify = idx("wierman.wierman_couple"), idx("wierman.verify_coupling")
    m["wierman.couple_calls"] = len(couple)
    m["wierman.couple_s"] = total("wierman.wierman_couple")
    m["wierman.verify_s"] = total("wierman.verify_coupling")
    m["wierman.verify_per_couple"] = (m["wierman.verify_s"] / m["wierman.couple_s"]
                                      if couple else 0.0)
    m["wierman.cluster_vertices"] = sum(spans[i][5] or 0 for i in couple)
    m["wierman.cert_failures"] = sum(1 for i in verify if spans[i][5] is False)

    good = idx("renorm.good_event")
    m["renorm.good_event_calls"] = len(good)
    m["renorm.good_event_s"] = total("renorm.good_event")
    m["renorm.good_ratio"] = (sum(1 for i in good if spans[i][5]) / len(good)
                              if good else 0.0)
    m["renorm.seed_sets_calls"] = len(idx("renorm.seed_sets_from"))
    m["renorm.seed_sets_s"] = total("renorm.seed_sets_from")
    m["renorm.exploration_s"] = total("renorm.macro_exploration")
    m["renorm.boxes_queried"] = sum(spans[i][5] or 0 for i in idx("renorm.macro_exploration"))

    def in_exploration(i):
        return under(i, lambda p: spans[p][0] == "renorm.macro_exploration")

    accepted = [i for i in good if spans[i][5] and in_exploration(i)]
    producing = set(accepted) | {i for i in idx("renorm.seed_sets_from") if in_exploration(i)}
    searches = sum(1 for i in kernel if under(i, lambda p: p in producing))
    m["renorm.searches_per_accepted_box"] = searches / len(accepted) if accepted else 0.0

    m["oriented.explore_calls"] = len(idx("oriented.explore"))
    m["oriented.explore_s"] = total("oriented.explore")
    m["oriented.decisions"] = counts.get("oriented.decisions", 0)
    m["oriented.reach_calls"] = len(idx("oriented.oriented_reach"))
    m["oriented.reach_s"] = total("oriented.oriented_reach")
    m["oriented.sample_s"] = total("oriented.sample_oriented")
    m["accordion.embed_s"] = total("accordion.accordion_embed")
    m["harness.run_s"] = total("harness.run")
    m["harness.self_s"] = self_time("harness")
    return m


def write_spans(path, passes):
    """Write every traced pass's spans as gzip JSON lines:
    {"pass", "name", "start", "end", "parent", "input", "outcome"}."""
    with gzip.open(path, "wt") as f:
        for k, spans in enumerate(passes):
            for s in spans:
                f.write(json.dumps({"pass": k, "name": s[0], "start": s[1], "end": s[2],
                                    "parent": s[3], "input": s[4], "outcome": s[5]}))
                f.write("\n")
