import json
import os
import warnings

import pytest

from wordperc.errors import ValidationError
from wordperc.estimate import Estimate, _threads, wilson_interval
from wordperc.harness import (
    ExperimentSpec,
    canonical_json,
    decay_experiment,
    parse_region_argument,
    region_from_spec,
    run,
    validate,
    write_csv,
    write_result,
)
from wordperc.rng import RngStream


def test_wilson_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.5
    lo, hi = wilson_interval(10, 10)
    assert 0.5 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    e = Estimate(1, 1)
    lo, hi = e.wilson95
    assert lo <= e.point <= hi


def test_wilson_coverage_meta():
    # 95% interval holds the true parameter in >= 93% of meta-trials
    theta = 0.37
    n = 160
    covered = 0
    meta = 1000
    for t in range(meta):
        u = RngStream(999, t).uniform_block(0, n)
        succ = int((u < theta).sum())
        covered += Estimate(succ, n).covers(theta)
    assert covered >= 0.93 * meta


def test_region_parsing():
    r = parse_region_argument("box:m=2,d=2")
    assert r.volume == 25
    r2 = region_from_spec({"kind": "intervals", "intervals": [[0, 2], [0, 2]]})
    assert r2.volume == 4


def test_validate_lists_all_violations():
    spec = ExperimentSpec("decay", {"p": 7, "L": 99, "R": 2, "m_list": []}, 0, 1)
    msgs = validate(spec)
    assert len(msgs) >= 3
    with pytest.raises(ValidationError):
        run(spec)


def test_site_estimate_band():
    spec = ExperimentSpec(
        "site",
        {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.3, "vertex": [0, 0]},
        4000,
        11,
    )
    doc = run(spec)
    est = doc["result"]["estimate"]
    sigma = (0.3 * 0.7 / 4000) ** 0.5
    assert abs(est - 0.3) < 4 * sigma


def test_reach_closed_form_three_eighths():
    # P(word 10 read from the origin within {0,1}^2 at p = 1/2) = 3/8
    spec = ExperimentSpec(
        "reach",
        {
            "region": {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]},
            "p": 0.5,
            "word": "10",
            "source": [0, 0],
        },
        20000,
        42,
    )
    doc = run(spec)
    lo, hi = doc["result"]["wilson95"]
    assert lo <= 3 / 8 <= hi


def test_determinism_byte_identical():
    spec = ExperimentSpec(
        "site",
        {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.4, "vertex": [0, 0]},
        500,
        7,
    )
    a, b = run(spec), run(spec)
    assert canonical_json(a) == canonical_json(b)
    assert a["result"]["successes"] == b["result"]["successes"]


def test_trial_one_interval():
    spec = ExperimentSpec(
        "site", {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.9}, 1, 3
    )
    doc = run(spec)
    lo, hi = doc["result"]["wilson95"]
    assert (lo, hi) == wilson_interval(doc["result"]["successes"], 1)


def test_decay_closed_form_L1():
    # m = R = 1, L = 1, p = 1/2: failure iff the 3^3 ball is monochromatic
    res = decay_experiment(0.5, 1, [1], 1, trials=5000, seed=5, mode="exact")
    q = res["rows"][0]["q"]
    lo, hi = res["rows"][0]["wilson95"]
    expect = 2.0 * 2.0 ** (-27)
    assert lo <= expect <= hi
    assert q <= 1e-3


def test_decay_monotone_and_degenerate():
    res = decay_experiment(1.0, 1, [0, 1, 2], 3, trials=50, seed=6, mode="exact", d=2)
    qs = [row["q"] for row in res["rows"]]
    assert qs == [1.0, 1.0, 1.0]  # a 0 never appears at p = 1
    res2 = decay_experiment(0.5, 2, [0, 1, 2], 3, trials=300, seed=8, mode="exact", d=2)
    qs2 = [row["q"] for row in res2["rows"]]
    assert all(a >= b for a, b in zip(qs2, qs2[1:]))


def test_decay_fit_needs_two_distinct_abscissae():
    # in d = 1 every radius maps to m^0 = 1: nothing to fit, as with one radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = decay_experiment(0.5, 3, [0, 1, 2], 4, 40, 1, d=1)
    assert sum(row["q"] > 0 for row in res["rows"]) >= 2
    assert res["log_q_slope_vs_m_pow"] is res["intercept"] is res["r_squared"] is None


def test_wierman_kind_certificates():
    spec = ExperimentSpec(
        "wierman",
        {
            "region": {"kind": "box", "m": 1, "d": 2},
            "p": 0.4,
            "sources": [[0, 0]],
            "word": "alt",
        },
        300,
        13,
    )
    doc = run(spec)
    assert doc["result"]["successes"] == 300


def test_wierman_rejects_large_p():
    spec = ExperimentSpec(
        "wierman",
        {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.6, "sources": [[0, 0]], "word": "alt"},
        10,
        13,
    )
    with pytest.raises(ValidationError) as err:
        run(spec)
    assert any("flip colors" in msg for msg in err.value.violations)


def test_oriented_and_renorm_kinds_run():
    doc = run(ExperimentSpec("oriented", {"stat": "crossing", "n": 6, "h": 6, "gamma": 0.9, "delta": 0.3}, 10, 3))
    assert 0 <= doc["result"]["frequency"] <= 1
    doc2 = run(ExperimentSpec("oriented", {"stat": "xi5n", "n": 4, "gamma": 0.8}, 10, 3))
    assert doc2["result"]["per_y_frequency"]
    doc3 = run(ExperimentSpec("renorm", {"p": 0.5, "k": 2, "word": "alt", "n": 2, "m": 1}, 10, 3))
    assert 0 <= doc3["result"]["estimate"] <= 1


def test_parallel_trials_deterministic(monkeypatch):
    spec = ExperimentSpec(
        "site",
        {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.35, "vertex": [0, 0]},
        400,
        21,
    )
    serial = run(spec)["result"]["successes"]
    monkeypatch.setenv("WORDPERC_THREADS", "3")
    parallel = run(spec)["result"]["successes"]
    assert serial == parallel


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # reads the setting only; starts no process
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("WORDPERC_THREADS", str(10**9))
    assert _threads() == cpus
    monkeypatch.setenv("WORDPERC_THREADS", "0")
    assert _threads() == 1
    monkeypatch.setenv("WORDPERC_THREADS", "x")
    assert _threads() == 1


def test_result_files(tmp_path):
    spec = ExperimentSpec(
        "decay", {"p": 0.5, "L": 2, "R": 2, "m_list": [0, 1], "d": 2, "mode": "exact"}, 50, 2
    )
    doc = run(spec)
    jpath, cpath = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
    write_result(doc, jpath, wall_time_s=0.1)
    loaded = json.load(open(jpath))
    assert loaded["schema"] == "wordperc-result/1"
    assert "written_at_unix" in loaded["meta"]
    write_csv(doc, cpath)
    lines = open(cpath).read().strip().splitlines()
    assert lines[0] == "m,q,wilson_lo,wilson_hi"
    assert len(lines) == 3
