"""The trial runner: result pins for every experiment kind, serial and
fanned out, and the runner's range edge cases.

The pins are SHA-256 digests of the canonical result document of every
kind and statistic (and of the CLI stdout of ``renorm --stat explore`` and
``--stat emn``), recorded with record_pins() from the hand-written trial
loops that preceded the single runner; every document must stay
byte-identical whatever the worker count.
"""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from wordperc import harness
from wordperc.cli import main
from wordperc.estimate import run_trials, trial_ranges
from wordperc.harness import ExperimentSpec, canonical_json, run

PIN_FILE = Path(__file__).with_name("harness_result_digests.json")
PIN_SEEDS = (0, 1, 7)

_BOX2 = {"kind": "box", "m": 2, "d": 2}
_REGION_2X2 = {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]}
_PRODUCT = {"kind": "product", "q": 0.5, "seed": 2}

# (name, kind, params, trials); odd trial counts split unevenly over workers
PIN_SPECS = (
    ("site", "site", {"region": _BOX2, "p": 0.4, "vertex": [0, 0]}, 301),
    ("reach_exact", "reach",
     {"region": _REGION_2X2, "p": 0.5, "word": "10", "source": [0, 0]}, 401),
    ("reach_exact_product", "reach",
     {"region": {"kind": "box", "m": 2, "d": 3}, "p": 0.5, "word": _PRODUCT,
      "source": [0, 0, 0], "max_index": 6, "mode": "exact"}, 41),
    ("reach_relaxed", "reach",
     {"region": {"kind": "box", "m": 3, "d": 2}, "p": 0.5, "word": "alt",
      "source": [0, 0], "max_index": 10, "mode": "relaxed"}, 101),
    ("allwords_exact", "allwords",
     {"p": 0.5, "m": 1, "L": 3, "R": 2, "d": 2, "mode": "exact"}, 61),
    ("allwords_relaxed", "allwords",
     {"p": 0.5, "m": 1, "L": 4, "R": 3, "d": 2, "mode": "relaxed"}, 31),
    ("wierman", "wierman",
     {"region": _BOX2, "p": 0.4, "sources": [[0, 0]], "word": "alt"}, 61),
    ("renorm_good_exact", "renorm",
     {"p": 0.5, "k": 2, "word": _PRODUCT, "mode": "exact"}, 9),
    ("renorm_good_alt", "renorm", {"p": 0.5, "k": 2, "word": "alt"}, 11),
    ("decay_exact", "decay",
     {"p": 0.5, "L": 3, "R": 3, "m_list": [0, 1, 2], "d": 2, "mode": "exact"}, 41),
    ("decay_relaxed", "decay",
     {"p": 0.5, "L": 4, "R": 2, "m_list": [1, 0], "d": 3, "mode": "relaxed"}, 11),
    ("crossing_full", "oriented",
     {"stat": "crossing", "n": 8, "h": 6, "gamma": 0.2, "delta": 0.3}, 31),
    ("crossing_thin", "oriented",
     {"stat": "crossing", "n": 12, "h": 6, "gamma": 0.6, "delta": 0.2, "thin": True}, 21),
    ("domination", "oriented",
     {"stat": "domination", "n": 8, "gamma": 0.7, "delta": 0.08}, 31),
    ("xi5n", "oriented", {"stat": "xi5n", "n": 6, "gamma": 0.6}, 41),
)

_RENORM = ["renorm", "--k", "2", "--h", "4", "--p", "0.5"]
PIN_COMMANDS = (
    ("cli_explore_relaxed", _RENORM + ["--stat", "explore", "--word", "alt", "--n", "3",
                                       "--mode", "relaxed", "--trials", "5"]),
    ("cli_explore_exact", ["renorm", "--k", "2", "--h", "4", "--p", "0.6", "--stat", "explore",
                           "--word", "product:q=0.5,seed=2", "--n", "3", "--mode", "exact",
                           "--tdensity", "0.3", "--trials", "3"]),
    ("cli_emn_relaxed", ["renorm", "--stat", "emn", "--k", "2", "--h", "2", "--p", "0.9",
                         "--word", "ones", "--n", "2", "--m", "1", "--mode", "relaxed",
                         "--trials", "7"]),
    ("cli_emn_relaxed_alt", _RENORM + ["--stat", "emn", "--word", "alt", "--n", "3",
                                       "--m", "1", "--mode", "relaxed", "--trials", "5"]),
    # exact searches from a whole boundary stay small only near p = 1
    ("cli_emn_exact", ["renorm", "--stat", "emn", "--k", "2", "--h", "2", "--p", "0.95",
                       "--word", "periodic:110", "--n", "2", "--m", "1", "--mode", "exact",
                       "--trials", "3"]),
)


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def pin_cases():
    """(key, thunk) for every pin; a thunk returns the pinned text."""
    for seed in PIN_SEEDS:
        for name, kind, params, trials in PIN_SPECS:
            spec = ExperimentSpec(kind, params, trials, seed)
            yield f"{name}/{seed}", lambda s=spec: canonical_json(run(s))
        for name, argv in PIN_COMMANDS:
            yield f"{name}/{seed}", lambda a=argv + ["--seed", str(seed)]: cli_stdout(a)


def record_pins() -> dict:
    return {key: hashlib.sha256(thunk().encode()).hexdigest() for key, thunk in pin_cases()}


def _fanned(monkeypatch, workers):
    """Set WORDPERC_THREADS, and let it reach `workers` on a smaller host."""
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(workers, cpus))
    monkeypatch.setenv("WORDPERC_THREADS", str(workers))


@pytest.mark.parametrize("workers", [1, 2])
def test_results_identical_to_pins(workers, monkeypatch):
    _fanned(monkeypatch, workers)
    pins = json.loads(PIN_FILE.read_text())
    got = record_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []


# -- the runner's ranges ----------------------------------------------------------


def test_trial_ranges_contiguous_and_nonempty():
    assert trial_ranges(1, 2) == [(0, 1)]  # fewer trials than workers: one range
    assert trial_ranges(0, 2) == [(0, 0)]
    assert trial_ranges(5, 1) == [(0, 5)]
    assert trial_ranges(5, 2) == [(0, 2), (2, 5)]
    for trials in range(1, 12):
        for workers in range(1, 5):
            ranges = trial_ranges(trials, workers)
            assert len(ranges) == min(trials, workers)
            assert ranges[0][0] == 0 and ranges[-1][1] == trials
            assert all(a < b for a, b in ranges)
            assert all(ranges[i][1] == ranges[i + 1][0] for i in range(len(ranges) - 1))


SITE = {"region": _BOX2, "p": 0.4, "vertex": [0, 0]}


def test_one_trial_runs_in_process(monkeypatch):
    # one trial with two workers is a single range: no pool is started
    _fanned(monkeypatch, 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a single range")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_trials(harness._site_trials, (SITE, 3), 1) == harness._site_trials(SITE, 3, 0, 1)


def test_fanned_outcomes_in_trial_order(monkeypatch):
    serial = harness._site_trials(SITE, 5, 0, 9)
    _fanned(monkeypatch, 2)
    assert run_trials(harness._site_trials, (SITE, 5), 9) == serial


# -- explore and emn replay from a spec --------------------------------------------


@pytest.mark.parametrize("stat, extra", [
    ("explore", {"n": 3, "tdensity": 0.5, "mode": "relaxed"}),
    ("emn", {"n": 2, "m": 1, "mode": "relaxed"}),
])
def test_spec_replays_renorm_cli_result(stat, extra, tmp_path):
    argv = ["renorm", "--stat", stat, "--k", "2", "--h", "4", "--p", "0.5", "--word", "alt",
            "--trials", "4", "--seed", "11"]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    printed = json.loads(cli_stdout(argv))
    assert sorted(printed) == ["result", "schema"]
    params = {"d": 3, "p": 0.5, "k": 2, "delta": 1e-6, "h": 4, "word": {"kind": "alternating"},
              "stat": stat, **extra}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"kind": "renorm", "params": params, "trials": 4, "seed": 11}))
    replayed = json.loads(cli_stdout(["--spec", str(spath)]))
    assert replayed["spec"]["params"] == params
    assert canonical_json(replayed["result"]) == canonical_json(printed["result"])
