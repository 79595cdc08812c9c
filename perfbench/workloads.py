"""Seeded benchmark workloads for wordperc.

A workload is a list of inputs. Each input goes through a public entry
point: ``harness.run(spec)``, ``cli.main(argv)`` or
``accordion.accordion_embed``. Every spec seed is the benchmark seed, so
one seed gives one input list. ``run()`` returns the canonical text that
the reference digests cover; ``warm()`` calls the same entry point at its
smallest legal size (one trial, or the smallest accordion), which fills
the per-region caches without doing the full work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

from wordperc import accordion, cli, harness

# The fan-out inputs run, fanned and serially, in the traced run of their
# serial control workload, with this WORDPERC_THREADS.
FANOUT_CONTROL = "lattice_mc"
FANOUT_WORKERS = max(1, min(2, os.cpu_count() or 1))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class SpecInput:
    """An experiment spec run through ``harness.run``."""

    name: str
    spec: harness.ExperimentSpec
    group: str = ""  # fan-out inputs: "cheap" or "heavy"
    expect: object = None  # result dict -> error text or None, for any seed

    @property
    def trials(self) -> int:
        return self.spec.trials

    def validate(self) -> list[str]:
        return harness.validate(self.spec)

    def run(self) -> str:
        return harness.canonical_json(harness.run(self.spec)["result"])

    def check(self, text: str):
        return self.expect(json.loads(text)) if self.expect else None

    def warm(self) -> None:
        harness.run(dataclasses.replace(self.spec, trials=1))


@dataclasses.dataclass
class CliInput:
    """A CLI command whose stdout document is the result."""

    name: str
    argv: list[str]
    trials: int
    group: str = ""

    def validate(self) -> list[str]:
        return []  # the CLI-only explore statistic has no spec form

    def _call(self, argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"wordperc {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def run(self) -> str:
        return self._call(self.argv)

    def check(self, text: str):
        return None

    def warm(self) -> None:
        self._call(self.argv + ["--trials", "1"])


@dataclasses.dataclass
class AccordionInput:
    """``accordion_embed(n, h)``, digested over gamma, terminal and report."""

    name: str
    n: int
    h: int
    trials: int = 1
    group: str = ""

    def validate(self) -> list[str]:
        return []

    def run(self) -> str:
        amap = accordion.accordion_embed(self.n, self.h)
        doc = {"gamma": amap.gamma, "terminal": amap.terminal, "report": amap.report}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def check(self, text: str):
        return None

    def warm(self) -> None:
        accordion.accordion_embed(self.h, self.h)


def _box(m: int, d: int) -> dict:
    return {"kind": "box", "m": m, "d": d}


def _spec(name, kind, params, trials, seed, tiny, group=""):
    trials = max(1, trials // 50) if tiny else trials
    return SpecInput(name, harness.ExperimentSpec(kind, params, trials, seed), group,
                     _known_answer(kind, params))


def _known_answer(kind, params):
    if kind == "wierman":
        return _all_certified
    if kind == "reach" and params["region"] == _REGION_2X2 and params["word"] == "10":
        return _three_eighths
    return None


def _three_eighths(result):
    """Word 10 from a corner of {0,1}^2 at p=1/2 has probability exactly 3/8."""
    n = result["trials"]
    if abs(result["estimate"] - 0.375) > 5 * math.sqrt(0.375 * 0.625 / n):
        return f"estimate {result['estimate']} is more than 5 sigma from 3/8"
    return None


def _all_certified(result):
    """Every coupling certificate must verify."""
    if result["successes"] != result["trials"]:
        return f"{result['trials'] - result['successes']} certificates failed"
    return None


_REGION_2X2 = {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]}
_PRODUCT_2 = {"kind": "product", "q": 0.5, "seed": 2}
_PRODUCT_3 = {"kind": "product", "q": 0.5, "seed": 3}


def lattice_mc(seed: int, tiny: bool = False) -> list:
    return [
        _spec("reach_2x2_10", "reach",
              {"region": _REGION_2X2, "p": 0.5, "word": "10", "source": [0, 0]},
              2500, seed, tiny),
        _spec("reach_relaxed_box6", "reach",
              {"region": _box(6, 3), "p": 0.5, "word": "alt", "source": [0, 0, 0],
               "max_index": 60, "mode": "relaxed"},
              200, seed, tiny),
        _spec("reach_exact_box3", "reach",
              {"region": _box(3, 3), "p": 0.5, "word": _PRODUCT_2, "source": [0, 0, 0],
               "max_index": 12, "mode": "exact"},
              200, seed, tiny),
        _spec("allwords_m1_L4", "allwords",
              {"p": 0.5, "m": 1, "L": 4, "R": 3, "d": 3, "mode": "exact"},
              100, seed, tiny),
        _spec("decay_L6", "decay",
              {"p": 0.5, "L": 6, "R": 4, "m_list": [0, 1, 2], "d": 3, "mode": "relaxed"},
              10, seed, tiny),
    ]


def coupling(seed: int, tiny: bool = False) -> list:
    return [
        # supercritical 3-d box (site threshold about 0.31); eight sources so
        # nearly every trial grows the giant cluster, and the per-trial work
        # varies little between seeds
        _spec("wierman_certificate", "wierman",
              {"region": _box(4, 3), "p": 0.35, "word": _PRODUCT_3,
               "sources": [[x, y, z] for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)]},
              60, seed, tiny),
        _spec("wierman_draws_box20", "wierman",
              {"region": _box(20, 2), "p": 0.45, "sources": [[0, 0], [5, 5], [-5, -5]],
               "word": "alt", "start_index": 1},
              100, seed, tiny),
    ]


def macro(seed: int, tiny: bool = False) -> list:
    explore_trials = 1 if tiny else 6
    return [
        _spec("renorm_good_exact", "renorm",
              {"p": 0.5, "k": 2, "word": _PRODUCT_2, "mode": "exact"}, 30, seed, tiny),
        _spec("renorm_good_alt", "renorm",
              {"p": 0.5, "k": 4, "word": "alt", "mode": "exact"}, 50, seed, tiny),
        CliInput("renorm_explore_cli",
                 ["renorm", "--stat", "explore", "--k", "2", "--h", "4", "--p", "0.5",
                  "--word", "alt", "--n", "5", "--mode", "relaxed",
                  "--seed", str(seed), "--trials", str(explore_trials)],
                 explore_trials),
        _spec("crossing_full", "oriented",
              {"stat": "crossing", "n": 30, "h": 6, "gamma": 0.9, "delta": 0.2},
              100, seed, tiny),
        _spec("crossing_thin", "oriented",
              {"stat": "crossing", "n": 60, "h": 6, "gamma": 0.9, "delta": 0.2, "thin": True},
              100, seed, tiny),
        _spec("domination", "oriented",
              {"stat": "domination", "n": 40, "gamma": 0.9, "delta": 0.05},
              20, seed, tiny),
        _spec("xi5n", "oriented", {"stat": "xi5n", "n": 20, "gamma": 0.9}, 100, seed, tiny),
        AccordionInput("accordion_96_6", 12 if tiny else 96, 6),
    ]


def fanout(seed: int, tiny: bool = False) -> list:
    """Cheap trials, where dispatch dominates, and heavy ones."""
    return [
        _spec("fanout_site_box4", "site", {"region": _box(4, 3), "p": 0.5}, 2500, seed,
              tiny, "cheap"),
        _spec("fanout_reach_2x2_10", "reach",
              {"region": _REGION_2X2, "p": 0.5, "word": "10", "source": [0, 0]},
              2500, seed, tiny, "cheap"),
        _spec("fanout_wierman_box1", "wierman",
              {"region": _box(1, 2), "p": 0.5, "sources": [[0, 0]], "word": "alt"},
              1500, seed, tiny, "cheap"),
        # supercritical from a single source: about 40% of trials explore a
        # cluster of about 1,750 vertices, enough work to amortize dispatch
        _spec("fanout_wierman_box6", "wierman",
              {"region": _box(6, 3), "p": 0.4, "sources": [[0, 0, 0]], "word": _PRODUCT_3},
              16, seed, tiny, "heavy"),
    ]


BUILDERS = {"lattice_mc": lattice_mc, "coupling": coupling, "macro": macro}


def inputs(workload: str, seed: int, tiny: bool = False) -> list:
    return BUILDERS[workload](seed, tiny)


def checked_inputs(workload: str, seed: int, tiny: bool = False) -> list:
    """Every input a run of the workload may check, the fan-out ones included."""
    extra = fanout(seed, tiny) if workload == FANOUT_CONTROL else []
    return inputs(workload, seed, tiny) + extra


@contextlib.contextmanager
def threads(workers: int):
    """Set WORDPERC_THREADS for the block, restoring the old value."""
    old = os.environ.get("WORDPERC_THREADS")
    os.environ["WORDPERC_THREADS"] = str(workers)
    try:
        yield
    finally:
        if old is None:
            del os.environ["WORDPERC_THREADS"]
        else:
            os.environ["WORDPERC_THREADS"] = old

