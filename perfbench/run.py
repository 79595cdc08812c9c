"""wordperc benchmark runner.

    python3 perfbench/run.py --workload lattice_mc --seed 1 --seconds 25 --trace 0

Run from the root of a wordperc checkout; the program is imported from the
checkout's ``src/`` directory. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, corrected for host speed, and ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones that BENCHMARK.json names, and
the spans go to ``perfbench/out/``. ``--tiny`` runs every input
at its smoke-test size. ``--probe`` is the set-up measurement that the
runner starts in fresh interpreters. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
GROUPS = ("", "cheap", "heavy")
# Median duration of _reference_probe() on the host that recorded
# baseline.json; wall_s is stated at this host speed.
REFERENCE_PROBE_S = 0.0061
_MASK64 = (1 << 64) - 1

workloads = None  # perfbench/workloads.py, imported once src/ is on the path


def _use_checkout_source():
    """Import wordperc from this checkout's src/ and nowhere else."""
    if not (SRC / "wordperc" / "__init__.py").is_file():
        sys.exit(f"error: no wordperc source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _probe(args) -> dict:
    """Set-up as a CLI user pays it, measured inside this fresh interpreter."""
    t0 = time.perf_counter()
    from wordperc import accordion, cli, harness  # noqa: F401

    import workloads

    t1 = time.perf_counter()
    ins = workloads.inputs(args.workload, args.seed, args.tiny)
    for inp in ins:
        violations = inp.validate()
        if violations:
            sys.exit(f"error: {inp.name} fails validation: {violations}")
    t2 = time.perf_counter()
    with workloads.threads(1):
        for inp in ins:
            inp.warm()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
            "total_s": t3 - t0}


def _setup_probes(args, count: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Checker:
    """Digest checks of every input on every pass.

    Reference digests come from perfbench/digests.json, recorded on the
    seed commit. For a seed without a recorded reference, the first pass
    becomes the reference, so later passes are still checked for
    determinism. Inputs with a known answer (the 3/8 closed form, and
    coupling certificates that must all verify) are also checked against
    it on every seed.
    """

    def __init__(self, workload, seed, tiny):
        table = json.loads((HERE / "digests.json").read_text())
        self.recorded = table["tiny" if tiny else "full"].get(str(seed), {}).get(workload)
        self.reference = dict(self.recorded or {})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, inp, text, error=None):
        self.attempted += inp.trials
        if error is None:
            error = inp.check(text)
        if error is None:
            got = workloads.digest(text)
            want = self.reference.setdefault(inp.name, got)
            if got == want:
                return
            error = f"digest {got[:12]} != reference {want[:12]}"
        self.failed += inp.trials
        if len(self.errors) < 20:
            self.errors.append(f"{inp.name}: {error}")


def _reference_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch wordperc:
    64-bit mixing in pure Python and small numpy array updates, the two
    kinds of work the workloads do. On a shared host its duration follows
    the host's speed, which drifts by tens of percent over minutes."""
    import numpy as np  # not at module level: the set-up probe times this import

    t0 = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    for i in range(15000):
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9 + i) & _MASK64
    a = np.arange(4096, dtype=np.int64)
    for _ in range(200):
        a = (a * 3 + 1) & 0xFFFF
    return time.perf_counter() - t0


def _one_pass(ins, checker, tracer=None) -> dict:
    """Run every input once. Returns the seconds spent inside the calls per
    group, and under "probe" the mean reference-probe time, timed before
    each input and outside the calls."""
    busy = dict.fromkeys(GROUPS, 0.0)
    probe = 0.0
    for inp in ins:
        probe += _reference_probe()
        if tracer is not None:
            tracer.input_id = inp.name
        text = error = None
        t0 = time.perf_counter()
        try:
            text = inp.run()
        except Exception as exc:  # a failed input is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        busy[inp.group] += time.perf_counter() - t0
        checker.check(inp, text, error)
    busy["probe"] = probe / len(ins)
    return busy


def _passes(ins, checker, seconds, min_passes, tracer=None, on_pass=None) -> list[dict]:
    """Closed-loop passes until ``seconds`` have gone and ``min_passes`` ran."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(_one_pass(ins, checker, tracer))
        if on_pass is not None:
            on_pass()
    return passes


def _wall(one_pass, groups=GROUPS) -> float:
    return sum(one_pass[g] for g in groups)


def _median_wall(passes) -> float:
    return statistics.median(_wall(p) for p in passes)


def _corrected_wall(passes) -> float:
    """Median pass time at the reference host speed: each pass's time is
    scaled by REFERENCE_PROBE_S over that pass's probe time."""
    return statistics.median(_wall(p) * REFERENCE_PROBE_S / p["probe"] for p in passes)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process. Timed passes run serially, so
    the workload has no worker processes; the set-up interpreters are
    children too, and are left out."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fanout_metrics(args, checker, tracer, kept, min_passes) -> dict:
    """Fan-out speed-up of the fan-out inputs. A fanned pass, with
    parent-side spans only, and a serial pass of the same inputs alternate,
    so host-speed drift falls on both alike; each figure is the median over
    these pairs."""
    ins = workloads.fanout(args.seed, args.tiny)
    for inp in ins:
        inp.warm()
    pairs = []
    start = time.perf_counter()
    while len(pairs) < min_passes or time.perf_counter() - start < args.seconds / 3:
        tracer.install(only={"harness.run"})
        try:
            with workloads.threads(workloads.FANOUT_WORKERS):
                fanned = _one_pass(ins, checker, tracer)
        finally:
            tracer.uninstall()
        kept.append(tracer.take()[0])
        pairs.append((fanned, _one_pass(ins, checker)))

    def speedup(groups):
        return statistics.median(_wall(s, groups) / _wall(f, groups) for f, s in pairs)

    cheap_trials = sum(i.trials for i in ins if i.group == "cheap")
    return {
        "harness.fanout_speedup": speedup(GROUPS),
        "harness.fanout_speedup_cheap": speedup(["cheap"]),
        "harness.fanout_speedup_heavy": speedup(["heavy"]),
        "harness.dispatch_us_per_trial":
            statistics.median(f["cheap"] - s["cheap"] for f, s in pairs) / cheap_trials * 1e6,
    }


def _traced(args, ins, checker, probes) -> dict:
    """Per-layer metrics: untraced passes, then traced ones, median per pass."""
    import tracing

    min_passes = 1 if args.tiny else 2
    tracer = tracing.Tracer()
    cal = tracing.calibrate()
    kept, per_pass = [], []
    if args.workload == workloads.FANOUT_CONTROL:
        values = _fanout_metrics(args, checker, tracer, kept, min_passes)
    else:  # nothing fans out
        values = {"harness.fanout_speedup": 1.0, "harness.fanout_speedup_cheap": 1.0,
                  "harness.fanout_speedup_heavy": 1.0, "harness.dispatch_us_per_trial": 0.0}
    plain = _passes(ins, checker, args.seconds / 4, min_passes)

    def collect():
        spans, counts = tracer.take()
        kept.append(spans)
        per_pass.append(tracing.layer_metrics(spans, counts, cal))

    tracer.install()
    try:
        traced = _passes(ins, checker, args.seconds / 2, min_passes, tracer, collect)
    finally:
        tracer.uninstall()
    for name in per_pass[0]:
        values[name] = statistics.median(p[name] for p in per_pass)
    values["trace.overhead_ratio"] = _corrected_wall(traced) / _corrected_wall(plain)
    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["cli.warmup_s"] = statistics.median(p["warmup_s"] for p in probes)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracing.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz", kept)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}


def _end_to_end(args, ins, checker, probes) -> dict:
    passes = _passes(ins, checker, args.seconds, 1 if args.tiny else MIN_PASSES)
    walls = [round(_wall(p), 4) for p in passes]
    print(f"{len(passes)} passes, seconds per pass: {walls}, median {_median_wall(passes):.4f};"
          f" reference probe median {statistics.median(p['probe'] for p in passes):.5f} s",
          file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(p["total_s"] for p in probes), "unit": "s"},
        "wall_s": {"value": _corrected_wall(passes), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def main(argv=None) -> int:
    global workloads
    ap = argparse.ArgumentParser(description="wordperc benchmark runner")
    ap.add_argument("--workload", required=True, choices=("lattice_mc", "coupling", "macro"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_checkout_source()
    if args.probe:
        print(json.dumps(_probe(args)))
        return 0
    probes = _setup_probes(args, 1 if args.tiny else SETUP_PROBES)
    import workloads

    ins = workloads.inputs(args.workload, args.seed, args.tiny)
    checker = Checker(args.workload, args.seed, args.tiny)
    with workloads.threads(1):
        for inp in ins:
            inp.warm()
        _one_pass(ins, checker)  # untimed: the first full-size pass runs slow
        if args.trace:
            metrics = _traced(args, ins, checker, probes)
        else:
            metrics = _end_to_end(args, ins, checker, probes)
    for line in checker.errors:
        print(f"FAILED {line}", file=sys.stderr)
    if checker.recorded is None:
        print(f"note: no recorded digests for seed {args.seed}; "
              "digests checked for pass-to-pass determinism only", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
