import argparse
import contextlib
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wordperc
from wordperc import config, harness, renorm, wierman
from wordperc.cli import build_parser, main
from wordperc.geometry import box
from wordperc.harness import STATS
from wordperc.rng import RngStream


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_sample_and_reach_roundtrip(tmp_path):
    cfg = str(tmp_path / "c.wpc")
    code, out = run_cli(
        ["sample", "--region", "box:m=2,d=2", "--p", "1.0", "--seed", "4", "--out", cfg]
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["ones"] == 25
    code, out = run_cli(
        ["reach", "--cfg", cfg, "--word", "11", "--from", "0,0", "--witness"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reached_vertices"] == 5  # origin plus its four neighbors
    assert all(len(path) <= 2 for path in doc["witnesses"].values())


def test_reach_relaxed_labeled(tmp_path):
    cfg = str(tmp_path / "c.wpc")
    run_cli(["sample", "--region", "box:m=2,d=2", "--p", "0.6", "--seed", "1", "--out", cfg])
    code, out = run_cli(
        ["reach", "--cfg", cfg, "--word", "101", "--from", "0,0", "--mode", "relaxed"]
    )
    assert code == 0
    assert "upper bound" in json.loads(out)["mode"]


def test_validation_exit_code():
    code, _ = run_cli(
        ["decay", "--p", "2.0", "--L", "99", "--R", "2", "--m-list", "1",
         "--trials", "5", "--seed", "1"]
    )
    assert code == 2


def test_capacity_exit_code(tmp_path):
    cfg = str(tmp_path / "c.wpc")
    run_cli(["sample", "--region", "box:m=1,d=2", "--p", "0.5", "--seed", "1", "--out", cfg])
    code, _ = run_cli(
        ["reach", "--cfg", cfg, "--word", "ones", "--from", "0,0",
         "--max-index", str((1 << 20) + 5)]
    )
    assert code == 3


def test_wierman_command(tmp_path):
    out_json = str(tmp_path / "w.json")
    code, out = run_cli(
        ["wierman", "--region", "box:m=1,d=2", "--p", "0.4", "--sources", "0,0",
         "--word", "011010010", "--trials", "50", "--seed", "7", "--out", out_json]
    )
    assert code == 0
    doc = json.loads(open(out_json).read())
    assert doc["result"]["successes"] == 50
    assert "written_at_unix" in doc["meta"]


def test_oriented_command():
    code, out = run_cli(
        ["oriented", "--stat", "crossing", "--n", "6", "--h", "6",
         "--gamma", "0.9", "--delta", "0.3", "--trials", "10", "--seed", "2"]
    )
    assert code == 0
    assert 0.0 <= json.loads(out)["result"]["frequency"] <= 1.0


def test_renorm_command_good_and_emn():
    code, out = run_cli(
        ["renorm", "--k", "2", "--p", "0.5", "--word", "alt",
         "--trials", "10", "--seed", "3"]
    )
    assert code == 0
    assert "estimate" in json.loads(out)["result"]
    code, out = run_cli(
        ["renorm", "--stat", "emn", "--k", "2", "--h", "2", "--p", "0.9",
         "--word", "ones", "--n", "2", "--m", "1", "--trials", "5", "--seed", "3",
         "--mode", "relaxed"]
    )
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "emn"


def test_decay_command_with_csv(tmp_path):
    csv_path = str(tmp_path / "d.csv")
    code, out = run_cli(
        ["decay", "--p", "0.5", "--L", "2", "--R", "2", "--m-list", "0,1",
         "--dim", "2", "--mode", "exact", "--trials", "40", "--seed", "5",
         "--csv", csv_path]
    )
    assert code == 0
    assert open(csv_path).readline().startswith("m,q")


def test_spec_file_roundtrip(tmp_path):
    spec = {
        "schema": "wordperc-spec/1",
        "kind": "site",
        "params": {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.5, "vertex": [0, 0]},
        "trials": 200,
        "seed": 9,
    }
    spath = str(tmp_path / "spec.json")
    json.dump(spec, open(spath, "w"))
    code, out1 = run_cli(["--spec", spath])
    assert code == 0
    code, out2 = run_cli(["--spec", spath])
    assert json.loads(out1)["result"]["successes"] == json.loads(out2)["result"]["successes"]


def test_oracle_command():
    code, out = run_cli(["oracle", "--stride", "17"])
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_oracle_stride_below_one(stride, capsys):
    code, err = run_cli_err(["oracle", "--stride", stride], capsys)
    assert code == 2
    assert f"--stride must be at least 1, not {stride}" in err


@pytest.mark.parametrize("m_list, item", [("a", "'a'"), ("", "''"), ("0,,1", "''")])
def test_decay_m_list_item_not_an_integer(m_list, item, capsys):
    code, err = run_cli_err(["decay", "--p", "0.5", "--L", "2", "--R", "2", "--m-list", m_list,
                             "--trials", "3"], capsys)
    assert code == 2
    assert f"--m-list item {item} is not an integer" in err


def test_console_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "wordperc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "wordperc" in proc.stdout


# main builds its parser once per process and shares it across calls
ONE_PROCESS_CALLS = [
    ["--help"],
    ["oriented", "--stat", "xi5n", "--n", "4", "--gamma", "0.5", "--trials", "3", "--seed", "2"],
    ["renorm", "--stat", "bogus", "--k", "2", "--p", "0.5", "--word", "alt"],
    ["renorm", "--stat", "explore", "--k", "2", "--p", "0.5", "--word", "alt", "--n", "3",
     "--mode", "relaxed", "--trials", "1"],
    ["--version"],
    ["decay", "--p", "2.0", "--L", "2", "--R", "2", "--m-list", "1", "--trials", "2"],
    ["renorm", "--help"],
]


def test_calls_in_one_process_match_separate_processes(tmp_path, monkeypatch):
    """Help, two subcommands, an argparse error, the version and a
    validation error, run back to back in this process, each exit and
    print byte for byte what they do alone in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # the help layout reads the width
    monkeypatch.delenv("WORDPERC_THREADS", raising=False)
    src = str(Path(wordperc.__file__).parents[1])
    for argv in ONE_PROCESS_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's help, version and errors
                code = e.code
        proc = subprocess.run([sys.executable, "-m", "wordperc.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert (code, out.getvalue(), err.getvalue()) == (
            proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()


# -- malformed input exits with code 2 and a message, never a traceback -------


def run_cli_err(args, capsys):
    code, _ = run_cli(args)
    return code, capsys.readouterr().err


def sample_2d(tmp_path):
    cfg = str(tmp_path / "c.wpc")
    code, _ = run_cli(["sample", "--region", "box:m=2,d=2", "--p", "0.5", "--seed", "1",
                       "--out", cfg])
    assert code == 0
    return cfg


def test_reach_from_vertex_of_wrong_dimension(tmp_path, capsys):
    cfg = sample_2d(tmp_path)
    code, err = run_cli_err(["reach", "--cfg", cfg, "--word", "1", "--from", "0,0,7"], capsys)
    assert code == 2
    assert "(0, 0, 7)" in err


def test_missing_cfg_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.wpc")
    code, err = run_cli_err(["reach", "--cfg", missing, "--word", "1", "--from", "0,0"], capsys)
    assert code == 2
    assert "missing.wpc" in err


def test_truncated_wpc(tmp_path, capsys):
    cfg = sample_2d(tmp_path)
    data = open(cfg, "rb").read()
    open(cfg, "wb").write(data[:20])  # cut inside the interval table
    code, err = run_cli_err(["reach", "--cfg", cfg, "--word", "1", "--from", "0,0"], capsys)
    assert code == 2
    assert "truncated" in err


def test_wpc_header_volume_disagrees_with_file_length(tmp_path, capsys):
    cfg = sample_2d(tmp_path)
    data = bytearray(open(cfg, "rb").read())
    # widen the first axis (hi of interval 0, bytes 20..28) so the header
    # volume needs far more bit words than the file holds
    data[20:28] = (10**9).to_bytes(8, "little", signed=True)
    open(cfg, "wb").write(data)
    code, err = run_cli_err(["reach", "--cfg", cfg, "--word", "1", "--from", "0,0"], capsys)
    assert code == 2
    assert "header volume" in err


def test_spec_without_trials(tmp_path, capsys):
    spec = {"kind": "site", "params": {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.5},
            "seed": 9}
    spath = str(tmp_path / "spec.json")
    json.dump(spec, open(spath, "w"))
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "trials" in err


def test_spec_with_non_numeric_p(tmp_path, capsys):
    spec = {"kind": "site", "params": {"region": {"kind": "box", "m": 1, "d": 2}, "p": "abc"},
            "trials": 10, "seed": 9}
    spath = str(tmp_path / "spec.json")
    json.dump(spec, open(spath, "w"))
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "abc" in err


def test_region_argument_not_an_integer(tmp_path, capsys):
    code, err = run_cli_err(["sample", "--region", "box:m=x", "--p", "0.5",
                             "--out", str(tmp_path / "c.wpc")], capsys)
    assert code == 2
    assert "m must be an integer" in err


def spec_file(tmp_path, kind, params):
    spath = str(tmp_path / "spec.json")
    json.dump({"kind": kind, "params": params, "trials": 3, "seed": 1}, open(spath, "w"))
    return spath


def test_reach_spec_source_not_integers(tmp_path, capsys):
    spath = spec_file(tmp_path, "reach", {"region": {"kind": "box", "m": 1, "d": 2},
                                          "p": 0.5, "word": "10", "source": ["a", "b"]})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "integer coordinates" in err


def test_reach_spec_source_of_wrong_dimension(tmp_path, capsys):
    spath = spec_file(tmp_path, "reach", {"region": {"kind": "box", "m": 1, "d": 2},
                                          "p": 0.5, "word": "10", "source": [0, 0, 0]})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "[0, 0, 0]" in err


def test_wierman_spec_source_outside_region(tmp_path, capsys):
    spath = spec_file(tmp_path, "wierman", {"region": {"kind": "box", "m": 1, "d": 2},
                                            "p": 0.4, "word": "alt", "sources": [[0, 0], [5, 5]]})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "[5, 5]" in err


def test_renorm_spec_u_not_a_macro_vertex(tmp_path, capsys):
    for u, shown in ((["a", 0, 2], "'a'"), ([1, 0, 2], "[1, 0, 2]"), ([0, 0], "[0, 0]")):
        spath = spec_file(tmp_path, "renorm", {"p": 0.5, "k": 2, "word": "alt", "u": u})
        code, err = run_cli_err(["--spec", spath], capsys)
        assert code == 2
        assert shown in err


@pytest.mark.parametrize("args, key", [
    (["sample", "--region", "box:d=2", "--p", "0.5"], "'m'"),
    (["sample", "--region", "box", "--p", "0.5"], "'m'"),
    (["sample", "--region", "lambda:n=1", "--p", "0.5"], "'h'"),
    (["wierman", "--region", "lambda:n=1,k=2", "--p", "0.4", "--word", "alt",
      "--sources", "0,0,0", "--trials", "2"], "'h'"),
])
def test_region_argument_missing_key(args, key, tmp_path, capsys):
    out = tmp_path / "c.wpc"
    if args[0] == "sample":
        args = args + ["--out", str(out)]
    code, err = run_cli_err(args, capsys)
    assert code == 2
    assert f"needs {key}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("u0", [1_000_000, 100_000_000])
def test_renorm_spec_bound_beyond_search_guard(u0, tmp_path, capsys):
    """The good event's offset bound C * (u1 + 2) is refused before the
    product word is read up to it."""
    spath = spec_file(tmp_path, "renorm", {"p": 0.5, "k": 2, "word": "product:q=0.5,seed=2",
                                           "u": [u0, 0, 2]})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 3
    assert "max_index capped" in err


def test_renorm_tdensity_above_one(capsys):
    code, err = run_cli_err(["renorm", "--stat", "explore", "--k", "2", "--p", "0.5",
                             "--word", "alt", "--tdensity", "1.5", "--trials", "1"], capsys)
    assert code == 2
    assert "--tdensity" in err


def test_renorm_tdensity_not_finite(capsys):
    code, err = run_cli_err(["renorm", "--stat", "explore", "--k", "2", "--p", "0.5",
                             "--word", "alt", "--tdensity", "nan", "--trials", "1"], capsys)
    assert code == 2
    assert "--tdensity" in err


def test_renorm_explore_zero_trials(capsys):
    code, err = run_cli_err(["renorm", "--stat", "explore", "--k", "2", "--p", "0.5",
                             "--word", "alt", "--trials", "0"], capsys)
    assert code == 2
    assert "trials must be >= 1" in err


def test_renorm_explore_negative_trials(capsys):
    code, err = run_cli_err(["renorm", "--stat", "explore", "--k", "2", "--p", "0.5",
                             "--word", "alt", "--trials", "-1"], capsys)
    assert code == 2
    assert "trials must be >= 1" in err


def test_renorm_emn_zero_trials(capsys):
    code, err = run_cli_err(["renorm", "--stat", "emn", "--k", "2", "--p", "0.5",
                             "--word", "alt", "--trials", "0"], capsys)
    assert code == 2
    assert "trials must be >= 1" in err


def test_renorm_explore_exact_node_budget(monkeypatch, capsys):
    # an exact box search past the default node budget ends in exit 3
    monkeypatch.setattr(renorm, "EXACT_NODE_BUDGET", 1)
    code, err = run_cli_err(["renorm", "--stat", "explore", "--k", "2", "--p", "0.5",
                             "--word", "product:q=0.5,seed=2", "--mode", "exact",
                             "--n", "3", "--trials", "1"], capsys)
    assert code == 3
    assert "node budget" in err


def test_site_spec_vertex_outside_region(tmp_path, capsys):
    spath = spec_file(tmp_path, "site", {"region": {"kind": "box", "m": 1, "d": 2},
                                         "p": 0.5, "vertex": [3, 0]})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "[3, 0]" in err


def test_crossing_spec_without_h(tmp_path, capsys):
    spath = spec_file(tmp_path, "oriented", {"stat": "crossing", "n": 6, "gamma": 0.9,
                                             "delta": 0.3})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "crossing needs 'h'" in err


def test_allwords_spec_without_m(tmp_path, capsys):
    spath = spec_file(tmp_path, "allwords", {"p": 0.5, "L": 2, "R": 1, "d": 2})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "allwords needs 'm'" in err


def test_allwords_spec_without_R(tmp_path, capsys):
    spath = spec_file(tmp_path, "allwords", {"p": 0.5, "m": 0, "L": 2, "d": 2})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "allwords needs 'R'" in err


def test_decay_spec_without_R(tmp_path, capsys):
    spath = spec_file(tmp_path, "decay", {"p": 0.5, "L": 2, "m_list": [0], "d": 2})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "decay needs 'R'" in err


def test_explore_spec_without_tdensity(tmp_path, capsys):
    spath = spec_file(tmp_path, "renorm", {"stat": "explore", "p": 0.5, "k": 2,
                                           "word": "alt", "n": 3})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "explore needs 'tdensity'" in err


def test_emn_spec_without_m(tmp_path, capsys):
    spath = spec_file(tmp_path, "renorm", {"stat": "emn", "p": 0.5, "k": 2,
                                           "word": "alt", "n": 2})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "emn needs 'm'" in err


def test_renorm_emn_exact_node_budget(capsys):
    # the exact boundary search is bounded like the box searches: exit 3
    code, err = run_cli_err(["renorm", "--stat", "emn", "--mode", "exact", "--k", "2",
                             "--h", "2", "--p", "0.5", "--word", "product:q=0.5,seed=3",
                             "--n", "2", "--m", "1", "--trials", "3"], capsys)
    assert code == 3
    assert "node budget" in err


def test_decay_repeated_radius(capsys):
    code, err = run_cli_err(["decay", "--p", "0.5", "--L", "3", "--R", "2", "--m-list", "0,0",
                             "--dim", "2", "--mode", "exact", "--trials", "20", "--seed", "1"],
                            capsys)
    assert code == 2
    assert "m_list repeats a radius" in err


# -- oversized regions end in exit 3 before any draw --------------------------
#
# sample_block refuses a region above config.MAX_SITES before it draws or
# allocates anything, so these run in-process without using memory.


def test_sample_oversized_box(tmp_path, capsys):
    code, err = run_cli_err(["sample", "--region", "box:m=2000,d=3", "--p", "0.5",
                             "--out", str(tmp_path / "c.wpc")], capsys)
    assert code == 3
    assert "sampling capped" in err
    assert not (tmp_path / "c.wpc").exists()


@pytest.mark.parametrize("flag, value", [("--seed", -1), ("--stream", -1), ("--seed", 2**70),
                                         ("--stream", 2**64)])
def test_sample_seed_outside_64_bits_leaves_no_file(tmp_path, capsys, flag, value):
    out = tmp_path / "c.wpc"
    code, err = run_cli_err(["sample", "--region", "box:m=2,d=2", "--p", "0.5", flag, str(value),
                             "--out", str(out)], capsys)
    assert code == 2
    assert f"{flag} must lie in [0, 2^64)" in err
    assert not out.exists()
    # write_wpc itself packs its header before it opens the file
    cfg = config.sample(box(2, 2), 0.5, RngStream(1, 0))
    bad = dataclasses.replace(cfg, provenance=config.Provenance(0.5, value, 0))
    with pytest.raises(struct.error):
        config.write_wpc(bad, str(out))
    assert not out.exists()


def test_renorm_good_oversized_window(capsys):
    code, err = run_cli_err(["renorm", "--k", "400", "--p", "0.5", "--word", "alt",
                             "--trials", "1"], capsys)
    assert code == 3
    assert "sampling capped" in err


@pytest.mark.parametrize("argv", [
    ["oriented", "--stat", "crossing", "--n", "100000", "--gamma", "0.5"],
    ["oriented", "--stat", "crossing", "--n", "100000", "--gamma", "0.5", "--thin"],
    ["oriented", "--stat", "domination", "--n", "100000", "--gamma", "0.5", "--delta", "0.05"],
    ["oriented", "--stat", "xi5n", "--n", "100000", "--gamma", "0.5"],
    ["renorm", "--stat", "explore", "--k", "2", "--h", "4", "--p", "0.5", "--word", "alt",
     "--n", "100000", "--mode", "relaxed"],
], ids=["crossing", "crossing-thin", "domination", "xi5n", "explore"])
def test_oversized_oriented_and_explore_windows(argv, capsys):
    # windows are counted from their bounds and refused before any vertex
    # or seed column is built
    tracemalloc.start()
    try:
        code, err = run_cli_err(argv + ["--trials", "1"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "sampling capped" in err
    assert peak < 4 << 20


def test_decay_exact_oversized_horizon(capsys):
    code, err = run_cli_err(["decay", "--p", "0.5", "--L", "3", "--R", "2000", "--m-list", "0",
                             "--mode", "exact", "--trials", "1"], capsys)
    assert code == 3
    assert "sampling capped" in err


# -- output paths are checked before the run ------------------------------------


def test_out_in_missing_folder_fails_before_the_run(tmp_path, capsys):
    out = tmp_path / "missing" / "w.json"
    code, stdout = run_cli(["wierman", "--region", "box:m=2,d=2", "--p", "0.5",
                            "--sources", "0,0", "--word", "alt", "--trials", "5",
                            "--out", str(out)])
    assert code == 2
    assert stdout == ""  # no result document
    assert "cannot write" in capsys.readouterr().err
    assert not out.parent.exists()


def test_csv_that_is_a_folder_fails_before_the_run(tmp_path, capsys):
    code, stdout = run_cli(["decay", "--p", "0.5", "--L", "2", "--R", "2", "--m-list", "0,1",
                            "--dim", "2", "--trials", "5", "--csv", str(tmp_path)])
    assert code == 2
    assert stdout == ""
    assert "is a folder" in capsys.readouterr().err


@pytest.mark.parametrize("tail", [["--out", ""], ["--csv", ""]], ids=["out", "csv"])
@pytest.mark.parametrize("spec", [False, True], ids=["argv", "spec"])
def test_empty_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch, tail, spec):
    monkeypatch.chdir(tmp_path)
    argv = ["allwords", "--p", "0.5", "--m", "0", "--L", "2", "--R", "1", "--dim", "2",
            "--trials", "2", *tail]
    if spec:
        argv = ["--spec", spec_file(tmp_path, "site", {"region": {"kind": "box", "m": 1},
                                                       "p": 0.5}), *tail]
    code, stdout = run_cli(argv)
    assert code == 2
    assert stdout == ""  # no trial ran
    assert "empty path" in capsys.readouterr().err


# -- spec trials and seed must be JSON integers ----------------------------------


def _site_spec(tmp_path, **fields):
    spec = {"kind": "site", "params": {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.5},
            "trials": 3, "seed": 1, **fields}
    spath = str(tmp_path / "spec.json")
    json.dump(spec, open(spath, "w"))
    return spath


def test_spec_trials_not_an_integer(tmp_path, capsys):
    code, stdout = run_cli(["--spec", _site_spec(tmp_path, trials=3.7)])
    assert code == 2
    assert stdout == ""
    assert "'trials' must be an integer" in capsys.readouterr().err


def test_spec_seed_not_an_integer(tmp_path, capsys):
    code, stdout = run_cli(["--spec", _site_spec(tmp_path, seed=1.5)])
    assert code == 2
    assert stdout == ""
    assert "'seed' must be an integer" in capsys.readouterr().err


def test_spec_seed_outside_64_bits(tmp_path, capsys):
    for seed in (-1, 2**64):
        code, stdout = run_cli(["--spec", _site_spec(tmp_path, seed=seed)])
        assert code == 2
        assert stdout == ""
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err


def test_spec_trials_boolean(tmp_path, capsys):
    code, stdout = run_cli(["--spec", _site_spec(tmp_path, trials=True)])
    assert code == 2
    assert "'trials' must be an integer" in capsys.readouterr().err


# -- spec values of the wrong JSON type end in exit 2, not a traceback -----------

WORD_SPECS = {
    "reach": {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.5, "source": [0, 0]},
    "wierman": {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.4, "sources": [[0, 0]]},
    "renorm": {"p": 0.5, "k": 2},
}


@pytest.mark.parametrize("word", [5, [1, 0], None, {"kind": "product", "q": "x"}],
                         ids=["int", "list", "null", "product-q-text"])
@pytest.mark.parametrize("kind", sorted(WORD_SPECS))
def test_spec_word_of_wrong_type(tmp_path, capsys, kind, word):
    # validate parses the word, so it is a listed violation before any trial
    spath = spec_file(tmp_path, kind, {**WORD_SPECS[kind], "word": word})
    code, stdout = run_cli(["--spec", spath])
    assert code == 2
    assert stdout == ""
    assert "bad word" in capsys.readouterr().err


@pytest.mark.parametrize("region", [5, [1, 2]], ids=["int", "list"])
def test_spec_region_of_wrong_type(tmp_path, capsys, region):
    spath = spec_file(tmp_path, "reach", {**WORD_SPECS["reach"], "region": region,
                                          "word": "10"})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "bad region" in err


@pytest.mark.parametrize("start_index", ["x", None, 1.5, True, 2],
                         ids=["text", "null", "float", "bool", "two"])
def test_spec_wierman_start_index_not_zero_or_one(tmp_path, capsys, start_index):
    # only the JSON integers 0 and 1 pass; 1.5 and true used to run as 1
    spath = spec_file(tmp_path, "wierman", {**WORD_SPECS["wierman"], "word": "alt",
                                            "start_index": start_index})
    code, stdout = run_cli(["--spec", spath])
    assert code == 2
    assert stdout == ""
    assert "start_index must be the integer 0 or 1" in capsys.readouterr().err


@pytest.mark.parametrize("start_index", [0, 1])
def test_spec_wierman_start_index_zero_or_one(tmp_path, start_index):
    spath = spec_file(tmp_path, "wierman", {**WORD_SPECS["wierman"], "word": "alt",
                                            "start_index": start_index})
    code, stdout = run_cli(["--spec", spath])
    assert code == 0
    assert json.loads(stdout)["result"]["successes"] == 3


def test_wierman_region_above_the_cap(capsys, monkeypatch):
    # box(10, 2) has 441 sites; with the cap at 100 the run is refused before
    # the block's draws, so nothing large is allocated
    monkeypatch.setattr(config, "MAX_SITES", 100)

    def no_draws(*args):
        raise AssertionError("drew past the cap")

    monkeypatch.setattr(wierman, "raw_grid", no_draws)
    code, err = run_cli_err(["wierman", "--region", "box:m=10,d=2", "--p", "0.4",
                             "--sources", "0,0", "--word", "alt", "--trials", "2"], capsys)
    assert code == 3
    assert "sampling capped at 100 sites per trial, the region has 441" in err


def test_reach_spec_unknown_mode(tmp_path, capsys):
    spath = spec_file(tmp_path, "reach", {**WORD_SPECS["reach"], "word": "10",
                                          "mode": "fast"})
    code, stdout = run_cli(["--spec", spath])
    assert code == 2
    assert stdout == ""
    assert "reach mode must be exact or relaxed, not 'fast'" in capsys.readouterr().err


RENORM_SPEC = {"p": 0.5, "k": 2, "word": "ones", "n": 3, "m": 1, "tdensity": 0.5,
               "mode": "fast"}


@pytest.mark.parametrize("kind, params, message", [
    ("oriented", {"stat": "crossing", "n": 4, "h": 2, "gamma": 0.5, "delta": 0.2,
                  "thin": "false"}, "thin must be true or false, not 'false'"),
    ("oriented", {"stat": "xi5n", "n": 5, "gamma": 0.5}, "xi5n needs even n"),
    ("allwords", {"p": 0.5, "m": 0, "L": 1, "R": 1, "mode": "fast"},
     "allwords mode must be exact or relaxed, not 'fast'"),
    ("decay", {"p": 0.5, "L": 1, "R": 1, "m_list": [0], "mode": "fast"},
     "decay mode must be exact or relaxed, not 'fast'"),
    *[("renorm", {**RENORM_SPEC, "stat": stat},
       f"{stat} mode must be exact or relaxed, not 'fast'") for stat in STATS["renorm"]],
], ids=["thin-text", "xi5n-odd-n", "allwords-mode", "decay-mode", "good-mode", "explore-mode",
        "emn-mode"])
def test_spec_refused_before_any_trial(tmp_path, capsys, kind, params, message):
    """Parameters a trial would misread or refuse late are listed by validate."""
    code, stdout = run_cli(["--spec", spec_file(tmp_path, kind, params)])
    assert code == 2
    assert stdout == ""
    assert message in capsys.readouterr().err


def test_spec_infinite_integer_parameter(tmp_path, capsys):
    # JSON Infinity where an integer belongs: int() overflows
    spath = spec_file(tmp_path, "allwords", {"p": 0.5, "m": 0, "L": float("inf"), "R": 1})
    code, err = run_cli_err(["--spec", spath], capsys)
    assert code == 2
    assert "malformed parameter" in err


# -- a dimension past geometry.MAX_DIM is refused before any axis is built ----


def _limited(cap):
    """A preexec_fn that caps the child's address space at cap bytes, so a
    regression that builds tables without bound fails with MemoryError
    instead of eating the host's memory."""
    import resource

    return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


HUGE_DIM = str(2 ** 70)


@pytest.mark.parametrize("argv", [
    ["decay", "--p", "0.5", "--L", "1", "--R", "1", "--m-list", "1", "--trials", "1",
     "--dim", HUGE_DIM],
    ["allwords", "--p", "0.5", "--m", "0", "--L", "1", "--R", "1", "--trials", "1",
     "--dim", HUGE_DIM],
    ["sample", "--region", f"box:m=1,d={HUGE_DIM}", "--p", "0.5", "--out", "c.wpc"],
    ["sample", "--region", "box:m=0", "--dim", HUGE_DIM, "--p", "0.5", "--out", "c.wpc"],
    ["renorm", "--k", "2", "--p", "0.5", "--word", "ones", "--trials", "1", "--dim", HUGE_DIM],
    ["--spec", "spec.json"],
], ids=["decay", "allwords", "sample-region", "sample-dim", "renorm", "spec"])
def test_huge_dimension_exits_2_at_once(tmp_path, argv):
    (tmp_path / "spec.json").write_text(json.dumps(
        {"kind": "site", "params": {"region": {"kind": "box", "m": 0, "d": 2 ** 70}, "p": 0.5},
         "trials": 1, "seed": 0}))
    src = str(Path(wordperc.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "wordperc.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60, preexec_fn=_limited(1 << 31))
    assert proc.returncode == 2, proc.stderr
    assert "must lie in 1..64" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "c.wpc").exists()


@pytest.mark.parametrize("window", [
    ["--h", "100000", "--trials", "2"],
    ["--h", "10000000", "--thin", "--trials", "1"],
], ids=["full_h1e5", "thin_h1e7"])
def test_tall_crossing_window_runs_in_two_gib(tmp_path, window):
    """Crossing windows that check_sites admits run in a 2 GiB address
    space.  The full window, n = 4 and h = 100000, holds its seed column
    in the window's one column of 200,000 vertices: a block's seed column
    is one pack of a (copies, pitch) bool array, not a sum of one
    column-wide int per seed vertex.  The thin window of h = 10^7 holds
    10^7 sites: its layout is built from the window's bounds as two index
    arrays, with no vertex tuple."""
    src = str(Path(wordperc.__file__).parents[1])
    argv = ["oriented", "--stat", "crossing", "--n", "4", "--gamma", "0.5", *window]
    proc = subprocess.run([sys.executable, "-m", "wordperc.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300, preexec_fn=_limited(1 << 31))
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["relaxed", "exact"])
def test_decay_at_the_horizon_cap_runs_in_512_mib(tmp_path, mode):
    """A decay run at the horizon radius cap R = 64 (2,146,689 sites)
    builds no per-site point or neighbour table: its start-ball masks
    come from the axis strides, and only exact mode builds its neighbour
    steps, also from the strides."""
    src = str(Path(wordperc.__file__).parents[1])
    argv = ["decay", "--p", "0.5", "--L", "2", "--R", "64", "--m-list", "0,64",
            "--trials", "1", "--mode", mode]
    proc = subprocess.run([sys.executable, "-m", "wordperc.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300, preexec_fn=_limited(1 << 29))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_wpc_header_dimension_past_the_bound(tmp_path, capsys):
    path = tmp_path / "c.wpc"
    path.write_bytes(b"WPC1" + struct.pack("<II", 1, 2 ** 32 - 1))
    code, err = run_cli_err(["reach", "--cfg", str(path), "--word", "1", "--from", "0"], capsys)
    assert code == 2
    assert "dimension must lie in 1..64" in err


# -- extreme option values end in exit 0, 2 or 3, never in a traceback --------

EXTREMES = ("0", "-1", str(2 ** 63), str(2 ** 70), "nan", "inf", "")
# values that size a region past config.MAX_SITES (with the other options of
# FUZZ_BASE): refused with exit 2 or 3 before any draw
OVERSIZED = {"--region": ("box:m=3000,d=2", "box:m=2,d=16"), "--R": ("3000",),
             "--dim": ("16", "64")}
# oriented and exploration windows past config.MAX_SITES, per subcommand and
# option: (the options that pick the statistic, the value)
EXPLORE = ["--stat", "explore", "--mode", "relaxed"]
WINDOWS = {
    ("oriented", "--n"): [([], "100000"), (["--stat", "domination", "--delta", "0.05"], "100000"),
                          (["--stat", "xi5n"], "100000")],
    ("oriented", "--h"): [([], "10000000")],
    ("renorm", "--n"): [(EXPLORE, "100000")],
    ("renorm", "--k"): [(EXPLORE, "1000")],
}
# small valid arguments per subcommand; the drawn option replaces its own
FUZZ_BASE = {
    "sample": ["--region", "box:m=1,d=2", "--p", "0.5", "--out", "c.wpc"],
    "reach": ["--cfg", "base.wpc", "--word", "101", "--from", "0,0"],
    "allwords": ["--p", "0.5", "--m", "0", "--L", "2", "--R", "1", "--dim", "2",
                 "--trials", "2"],
    "wierman": ["--region", "box:m=1,d=2", "--p", "0.4", "--sources", "0,0", "--word", "alt",
                "--trials", "2"],
    "oriented": ["--stat", "crossing", "--n", "4", "--gamma", "0.5", "--trials", "2"],
    "renorm": ["--k", "2", "--p", "0.5", "--word", "ones", "--trials", "1"],
    "decay": ["--p", "0.5", "--L", "2", "--R", "2", "--m-list", "0,1", "--dim", "2",
              "--trials", "2"],
    "oracle": ["--stride", "64"],
}


def _valued_options():
    """Per subcommand, the options of its argparse actions that take a value."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0], a.dest) for a in p._actions
                   if a.option_strings and a.nargs != 0]
            for name, p in sub.choices.items()}


def test_fuzz_base_covers_every_subcommand():
    assert set(FUZZ_BASE) == set(_valued_options())


@given(st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extreme_option_values_never_trace_back(tmp_path, monkeypatch, data):
    """One option of one subcommand set to an extreme value, every other
    option small and valid; trials stay at most 3 and WORDPERC_THREADS
    unset, so every run is serial and short.  The run exits 0, 2 or 3 (2
    or 3 for a region or window past config.MAX_SITES) and no exception
    leaves main."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WORDPERC_THREADS", raising=False)
    if not (tmp_path / "base.wpc").exists():
        config.write_wpc(config.sample(box(2, 2), 0.5, RngStream(1, 0)), "base.wpc")
    options = _valued_options()
    name = data.draw(st.sampled_from(sorted(options)))
    opt, dest = data.draw(st.sampled_from(options[name]))
    extremes = st.sampled_from(
        [([], v, False) for v in EXTREMES
         if dest != "trials" or v in ("0", "-1", "nan", "inf", "")])
    oversized = [([], v, True) for v in OVERSIZED.get(opt, ())]
    oversized += [(extra, v, True) for extra, v in WINDOWS.get((name, opt), ())]
    extra, value, too_big = data.draw(
        st.one_of(extremes, st.sampled_from(oversized)) if oversized else extremes)
    argv = list(FUZZ_BASE[name])
    if opt in argv:
        del argv[argv.index(opt):argv.index(opt) + 2]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([name, *argv, *extra, opt, value])
        except SystemExit as e:  # argparse refuses the value
            code = e.code
    assert code in ((2, 3) if too_big else (0, 2, 3)), (name, extra, opt, value,
                                                       err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- extreme spec fields end in exit 0, 2 or 3, never in a traceback ----------

SPEC_EXTREMES = (0, -1, 2 ** 63, 2 ** 70, "nan", "inf", "", None, [], {}, True, 1.5, "x")
BOX2 = {"kind": "box", "m": 1, "d": 2}
# small valid params per kind (per statistic for oriented and renorm), with
# the optional fields each one reads; the drawn field replaces its own
SPEC_BASE = {
    "site": ("site", {"region": BOX2, "p": 0.5, "vertex": [0, 0]}),
    "reach": ("reach", {"region": BOX2, "p": 0.5, "source": [0, 0], "word": "101",
                        "mode": "exact", "max_index": 2}),
    "allwords": ("allwords", {"p": 0.5, "m": 0, "L": 2, "R": 1, "d": 2, "mode": "exact"}),
    "wierman": ("wierman", {"region": BOX2, "p": 0.4, "sources": [[0, 0]], "word": "alt",
                            "start_index": 0}),
    "decay": ("decay", {"p": 0.5, "L": 2, "R": 2, "m_list": [0, 1], "d": 2,
                        "mode": "relaxed"}),
    "crossing": ("oriented", {"stat": "crossing", "n": 4, "h": 6, "gamma": 0.5,
                              "delta": 0.2, "thin": False}),
    "domination": ("oriented", {"stat": "domination", "n": 4, "gamma": 0.5, "delta": 0.05}),
    "xi5n": ("oriented", {"stat": "xi5n", "n": 4, "gamma": 0.5}),
    "good": ("renorm", {"stat": "good", "p": 0.5, "k": 2, "word": "ones", "u": [0, 0, 2],
                        "h": 4, "d": 3, "delta": 1e-6, "mode": "relaxed"}),
    "explore": ("renorm", {"stat": "explore", "p": 0.5, "k": 2, "word": "ones", "n": 3,
                           "tdensity": 0.5, "mode": "relaxed"}),
    "emn": ("renorm", {"stat": "emn", "p": 0.5, "k": 2, "word": "ones", "n": 2, "m": 1,
                       "mode": "relaxed"}),
}
SPEC_FIELDS = [(name, field) for name, (_, params) in SPEC_BASE.items()
               for field in params if field != "stat"]
# field values that size a region past config.MAX_SITES, as OVERSIZED does
SPEC_OVERSIZED = {"region": ({"kind": "box", "m": 3000, "d": 2},
                             {"kind": "intervals", "intervals": [[-1, 5000], [-1, 5000]]}),
                  "R": (3000,), "d": (16, 64)}
# oriented and exploration windows past config.MAX_SITES, per kind and field
SPEC_WINDOWS = {("crossing", "n"): (100000,), ("crossing", "h"): (10 ** 7,),
                ("domination", "n"): (100000,), ("xi5n", "n"): (100000,),
                ("explore", "n"): (100000,), ("explore", "k"): (1000,)}


def _oversized(name, field):
    """The SPEC_OVERSIZED values of a field, where its kind samples the
    region (a site trial draws one uniform, its vertex's, whatever the
    region's size, and may run), and its SPEC_WINDOWS values."""
    region = () if name == "site" else SPEC_OVERSIZED.get(field, ())
    return region + SPEC_WINDOWS.get((name, field), ())


def _spec_cases(where):
    """(where, value): an extreme value, or one past MAX_SITES where the
    field sizes a region that the trials sample."""
    extremes = st.sampled_from(SPEC_EXTREMES)
    oversized = _oversized(*where)
    return st.tuples(st.just(where), st.one_of(extremes, st.sampled_from(oversized))
                     if oversized else extremes)


def test_spec_base_covers_every_kind_and_statistic():
    assert set(SPEC_BASE) == set(harness.REQUIRED)
    for name, (kind, params) in SPEC_BASE.items():
        assert set(harness.REQUIRED[name]) <= set(params)
        assert harness.validate(harness.ExperimentSpec(kind, params, 2, 1)) == []


@given(st.sampled_from(SPEC_FIELDS).flatmap(_spec_cases))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((("crossing", "h"), "nan"))
@example((("crossing", "h"), "inf"))
@example((("crossing", "h"), ""))
@example((("crossing", "h"), None))
@example((("crossing", "h"), []))
@example((("crossing", "h"), {}))
@example((("crossing", "h"), "x"))
@example((("crossing", "h"), 10 ** 7))
@example((("crossing", "n"), 100000))
@example((("domination", "n"), 100000))
@example((("xi5n", "n"), 100000))
@example((("explore", "n"), 100000))
@example((("explore", "k"), 1000))
def test_extreme_spec_fields_never_trace_back(tmp_path, monkeypatch, case):
    """One field of one kind's spec set to an extreme JSON value, every
    other field small and valid; two trials and WORDPERC_THREADS unset.
    The spec run exits 0, 2 or 3 (2 or 3 for a region or window past
    config.MAX_SITES) and no exception leaves main."""
    monkeypatch.delenv("WORDPERC_THREADS", raising=False)
    (name, field), value = case
    kind, params = SPEC_BASE[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, "params": {**params, field: value},
                                "trials": 2, "seed": 1}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--spec", str(path)])
    oversized = value in _oversized(name, field)
    assert code in ((2, 3) if oversized else (0, 2, 3)), (name, field, value, err.getvalue())
    assert "Traceback" not in err.getvalue()
