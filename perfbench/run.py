#!/usr/bin/env python3
"""Benchmark of the `sicherman` command line, run from the repository root.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op is `sicherman.cli.main(argv)`
called in-process with `--format json` and stdout captured, and the next op
starts only when the previous one returns.  A pass runs the workload's op
list once, in order.

`--trace 0` reports the end-to-end metrics with tracing off.  The first
pass runs every op; later passes skip the ops that would end after the
`--seconds`, and the run ends with a pass that runs none.  Times are
scaled to reference host speed (see `HostSpeed`):

- `setup_s`: median time of `import sicherman` (numpy included) over fresh
  isolated interpreters;
- `wall_s`: one pass over the op list, the sum of each op's mean latency;
- `op_p50_ms`, `op_p90_ms`: percentiles of those per-op latencies, by
  linear interpolation (with 3 ops in `solve-large` and 9 in `oracle`
  they read as the middle op and nearly the slowest one);
- `peak_rss_mb`: peak resident memory of this process after the passes.

The lines before the result also give the raw, unscaled `wall_s`.

`--trace 1` runs untraced passes for the first half of the time and traced
passes for the rest, and reports the per-layer metrics of `tracer.py`
together with the tracing overhead.  Every op's output is checked against
the recorded goldens and the face-enumeration referee (see `gate.py`); an
op that raises, exits with another code, prints other bytes or returns a
pair the referee rejects is failed, and `ops_failed_frac` is failed over
attempted.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the same
figures for reading.

The package is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, op_key, workload_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEARCH_CAP_ENV = "SICHERMAN_SEARCH_CAP"

# Fresh interpreters started to time `import sicherman`; the median is kept.
SETUP_SAMPLES = 9

# The host's speed drifts by a quarter and more over seconds to minutes,
# and the drift slows a plain Python loop and the program alike: timed one
# after the other for a minute on a 2-vCPU virtual machine, the median of
# `oracle --sides 16` over 10-second windows moved by 30% while the median
# of its ratio to the loop moved by 3%.  So after every op a probe loop is
# timed for a tenth of the op's time (at least one loop), and each op's time
# is scaled by REF_PROBE_S over the loop's mean time in the probes before
# and after it: the time it would take where the loop takes REF_PROBE_S.
PROBE_LOOPS = 2000
PROBE_SHARE = 0.1
REF_PROBE_S = 150e-6

SETUP_CODE = """\
import os, sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import sicherman
dt = time.perf_counter() - t
src = os.path.realpath(sys.argv[1]) + os.sep
print(dt if os.path.realpath(sicherman.__file__).startswith(src) else -1.0)
"""


class BenchError(Exception):
    pass


def probe_loop() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class HostSpeed:
    """Probe loops timed between ops, to scale op times to reference speed."""

    def __init__(self):
        self.loops: list[float] = []
        self.last = self.probe(0.05)

    def probe(self, seconds: float) -> float:
        """Time the probe loop for `seconds` (at least once): its mean time."""
        end = time.perf_counter() + seconds
        block = []
        while True:
            t0 = time.perf_counter()
            probe_loop()
            now = time.perf_counter()
            block.append(now - t0)
            if now >= end:
                break
        self.loops.extend(block)
        return statistics.fmean(block)

    def scale(self, seconds: float) -> float:
        """Probe after an op that took `seconds`: its time at reference speed."""
        before = self.last
        self.last = self.probe(PROBE_SHARE * seconds)
        return seconds * REF_PROBE_S / ((before + self.last) / 2)

    def slowdown(self) -> float:
        """The run's median loop time over REF_PROBE_S."""
        return statistics.median(self.loops) / REF_PROBE_S


def pin_to_one_cpu() -> int | None:
    """Keep this process, its probes and the interpreters it starts on one CPU.

    On a 2-vCPU virtual machine a fresh interpreter that ran on the other
    CPU took 170 ms to import sicherman against 105 ms on the parent's, and
    a probe only sees the CPU it runs on.  Affinity is inherited by children.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    """Import sicherman from the working tree's src/ and prove it."""
    os.environ.pop(SEARCH_CAP_ENV, None)
    if not (SRC / "sicherman" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'sicherman'}")
    sys.path.insert(0, str(SRC))
    import sicherman
    import sicherman.cli

    source = Path(sicherman.__file__).resolve()
    if SRC.resolve() not in source.parents:
        raise BenchError(f"sicherman was imported from {source}, not from {SRC}")
    return sicherman


def setup_seconds(host: HostSpeed) -> float:
    """Median time of `import sicherman` in fresh isolated interpreters."""
    env = {k: v for k, v in os.environ.items() if k != SEARCH_CAP_ENV}
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        value = float(proc.stdout.strip())
        if value < 0:
            raise BenchError("a fresh interpreter imported sicherman from elsewhere")
        samples.append(host.scale(value))
    return statistics.median(samples)


def environment(sicherman, nproc: int, cpu: int | None) -> dict:
    """Stamp for the result: versions, machine load and source revision."""

    def git(*args):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit, dirty = "unknown", None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and Path(top).resolve() == ROOT:
            commit = git("rev-parse", "HEAD") or "unknown"
            dirty = bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": sys.version.split()[0],
        # The program's own numpy, if it loads one; importing anything here
        # would add to peak_rss_mb.
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
        "dirty": dirty,
        "source": os.path.relpath(Path(sicherman.__file__).resolve().parent, ROOT),
    }


def run_op(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """Latency, exit code (None if it raised) and stdout of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an op that raises is a failed op
            dt = time.perf_counter() - t0
            return dt, None, repr(exc)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def run_passes(cli, ops, gate, deadline, on_op=None):
    """Whole passes while the next one, as long as the last, ends before the
    deadline (at least one): per-pass op latencies."""
    argvs = [op + ["--format", "json"] for op in ops]
    passes = []
    while True:
        start = time.perf_counter()
        latencies = []
        for op, argv in zip(ops, argvs):
            dt, code, text = run_op(cli, argv)
            latencies.append(dt)
            if on_op is not None:
                on_op(op, text)
            gate.record(op, code, text)
        passes.append(latencies)
        now = time.perf_counter()
        if 2 * now - start > deadline:
            return passes


def run_until(cli, ops, gate, seconds, host):
    """Each op's raw and scaled latencies over passes that fill the time.

    The first pass runs every op.  Later passes run, in list order, each op
    whose mean latency (and probe) still fits before the deadline; the run
    ends with a pass that runs none.
    """
    argvs = [op + ["--format", "json"] for op in ops]
    deadline = time.perf_counter() + seconds
    raw: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    while True:
        ran = False
        for op, argv, times, norm in zip(ops, argvs, raw, scaled):
            if times:
                cost = (1 + PROBE_SHARE) * statistics.fmean(times)
                if time.perf_counter() + cost > deadline:
                    continue
            dt, code, text = run_op(cli, argv)
            times.append(dt)
            norm.append(host.scale(dt))
            gate.record(op, code, text)
            ran = True
        if not ran:
            return raw, scaled


def best_pass(passes: list[list[float]]) -> list[float]:
    """Each op's fastest latency over the passes.

    The host's speed drifts by up to half again over spans of seconds to
    tens of seconds, so a median over a run's few passes still moves with
    it; the fastest repeat of each op does so far less.
    """
    return [min(column) for column in zip(*passes)]


def end_to_end(cli, ops, gate, seconds, lines) -> dict:
    host = HostSpeed()
    setup = setup_seconds(host)
    raw, scaled = run_until(cli, ops, gate, seconds, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_ms = [1000 * statistics.fmean(times) for times in scaled]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    counts = [len(times) for times in raw]
    lines.append(
        f"{len(ops)} ops run {min(counts)} to {max(counts)} times each; "
        f"host slowdown {host.slowdown():.3f} (median probe loop over "
        f"{1e6 * REF_PROBE_S:g} us); raw wall_s "
        f"{sum(statistics.fmean(times) for times in raw):.4f}"
    )
    if len(ops) <= 20:
        for op, ms, n in zip(ops, op_ms, counts):
            lines.append(f"op {op_key(op)}: {ms:.3f} ms, {n} runs")
    return {
        "setup_s": (setup, "s"),
        "wall_s": (sum(op_ms) / 1000, "s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(sicherman, cli, ops, gate, seconds, lines) -> dict:
    from tracer import GAPS, Tracer, layer_metrics

    start = time.perf_counter()
    plain = run_passes(cli, ops, gate, start + seconds / 2)
    tracer = Tracer(sicherman)
    op_aggs: list[tuple[dict, int]] = []

    def on_op(op, text):
        op_aggs.append((tracer.take(), len(text.encode())))

    tracer.install()
    try:
        traced = run_passes(cli, ops, gate, start + seconds, on_op)
    finally:
        tracer.uninstall()

    per_pass = []
    per_op: dict[str, dict[str, float]] = {}
    for i in range(len(traced)):
        merged: dict[str, dict] = {"self_s": {}, "calls": {}, "counts": {}}
        nbytes = 0
        for op, (agg, size) in zip(ops, op_aggs[i * len(ops) : (i + 1) * len(ops)]):
            nbytes += size
            for part, values in agg.items():
                for k, v in values.items():
                    merged[part][k] = merged[part].get(k, 0) + v
            spans = per_op.setdefault(op_key(op), {})
            for k, v in agg["self_s"].items():
                spans[k] = spans.get(k, 0.0) + v
        per_pass.append(layer_metrics(merged, nbytes))
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    plain_wall = sum(best_pass(plain))
    traced_wall = sum(best_pass(traced))
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    lines.append(
        f"untraced passes {len(plain)} (wall_s {plain_wall:.4f}), "
        f"traced passes {len(traced)} (wall_s {traced_wall:.4f})"
    )
    if len(ops) <= 20:
        for key, spans in per_op.items():
            total = sum(spans.values())
            top = sorted(spans.items(), key=lambda kv: -kv[1])[:6]
            shares = ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in top)
            lines.append(f"self-time shares {key}: {shares}")
    lines.extend(f"gap (not visible from outside): {gap}" for gap in GAPS)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    try:
        sicherman = import_program()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from gate import Gate, Referee

    cli = sicherman.cli
    gate = Gate(Referee(sicherman.dice.Die, sicherman.dice.sum_histogram))
    ops = workload_ops(args.workload, args.seed)
    lines = [
        "env " + json.dumps(environment(sicherman, nproc, cpu), sort_keys=True),
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
    ]
    if args.trace:
        metrics = per_layer(sicherman, cli, ops, gate, args.seconds, lines)
    else:
        metrics = end_to_end(cli, ops, gate, args.seconds, lines)

    failures = gate.failures()
    failed = sum(n for n, _ in failures)
    lines.append(
        f"ops attempted {gate.attempted}, failed {failed}, "
        f"ops_failed_frac {failed / gate.attempted:.6f}"
    )
    lines.extend(f"FAILED x{n}: {reason}" for n, reason in failures[:10])
    lines.extend(f"metric {k} {v} {u}" for k, (v, u) in metrics.items())
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": gate.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
