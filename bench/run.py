"""spangray benchmark.

One run:
    python3 bench/run.py --workload strip --seed 0 --seconds 36 --trace 0
Every workload, untraced and traced, with a summary table:
    python3 bench/run.py --all --seed 0 --seconds 36 --trace 1 [--out results.json]

A run sets up its inputs (several times, reporting the median), then
repeats passes over the workload's operations until the next pass would
end after --seconds.  One closed-loop caller issues each operation after
the previous one returns, in this process; there are no threads.  The
last line of stdout is one JSON object: with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones,
measured by a separate traced run whose spans are written under
.bench_trace/.  Metric names and units come from BENCHMARK.json.

End-to-end times are seconds at reference speed: the CPU speed a run
gets on a shared machine drifts by tens of percent within minutes, so
the passes also time a fixed calibration kernel between operations,
and each operation's time is scaled by K_REF over the kernel's median
time around it.  The report lines give the raw medians too.  Per-layer
times are raw.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import DIGEST_KINDS, KINDS, PLANS, digest_outputs, modules

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
DEFAULT_SEED = 0
PER_PASS = ("wall_s", "gen_s", "gen_trees_per_s", "verify_s",
            "verify_trees_per_s", "count_s", "flip_s", "experiment_s")
# Reference speed: about the calibration kernel's median time, in seconds,
# on the shared 2-core x86-64 machine (2.1 GHz, Python 3.11) the benchmark
# was built on.  Any constant works; it only sets the scale.
K_REF = 0.0026
CALIBRATE_EVERY = 0.05
# An operation's time is scaled by the kernels within SCALE_WINDOW
# seconds of it; a certification latency, a few milliseconds, by those
# within LATENCY_WINDOW, which follows the machine's faster swings.
SCALE_WINDOW = 2.0
LATENCY_WINDOW = 0.5


def metric_units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  It is integer
    arithmetic that allocates nothing, so it measures the CPU speed the
    run is getting and nothing of the program or its heap."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class Runner:
    """Runs a plan's passes and keeps what each pass measured."""

    def __init__(self, plan, reference: dict | None):
        self.plan = plan
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes: list[dict] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def run_pass(self) -> dict:
        """One pass.  Between operations, at most every CALIBRATE_EVERY
        seconds, the calibration kernel runs, outside every timing.
        Each operation's time is scaled by K_REF over the median kernel
        time within SCALE_WINDOW seconds of it: seconds at reference
        speed.  The pass's speed is its scaled operation time over its
        raw operation time, and scales its wall time.  A certification
        latency is scaled by the kernels within LATENCY_WINDOW."""
        want_digests = self.reference is not None and not self.passes
        chunks: dict[str, list[bytes]] = {k: [] for k in DIGEST_KINDS}
        raw = dict.fromkeys(KINDS, 0.0)
        trees = dict.fromkeys(KINDS, 0)
        timed: list[tuple[str, float, float]] = []  # kind, start, seconds
        stamps: list[float] = []
        kernel: list[float] = []

        def sample():
            stamps.append(time.perf_counter())
            kernel.append(calibrate())

        gc.collect()
        sample()
        start = time.perf_counter()
        for op in self.plan.ops:
            if time.perf_counter() - stamps[-1] > CALIBRATE_EVERY:
                sample()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # a failed operation is counted; the run goes on
                timed.append((op.kind, t0, time.perf_counter() - t0))
                self._fail(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            timed.append((op.kind, t0, dt))
            try:
                trees[op.kind] += op.check(res)
                if want_digests and op.digest is not None:
                    chunks[op.kind].append(op.digest(res))
            except Exception as exc:  # a failed output check is a failed operation
                self._fail(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        sample()
        if want_digests:
            for kind, parts in chunks.items():
                got = digest_outputs(parts)
                want = self.reference.get(kind)
                print(f"# digest {self.plan.workload} {kind} {got}")
                if got != want:
                    self._fail(f"{kind} outputs: sha256 {got}, reference {want}")
        def speed(t0, dt, window):
            return K_REF / statistics.median(
                kernel[bisect.bisect_left(stamps, t0 - window):
                       bisect.bisect_right(stamps, t0 + dt + window)])

        scaled = dict.fromkeys(KINDS, 0.0)
        listing_ms = []
        for kind, t0, dt in timed:
            raw[kind] += dt
            scaled[kind] += dt * speed(t0, dt, SCALE_WINDOW)
            if kind == "certify":
                listing_ms.append(dt * 1000 * speed(t0, dt, LATENCY_WINDOW))
        pass_speed = sum(scaled.values()) / sum(raw.values())
        raw["wall"] = elapsed - sum(kernel[1:-1])
        scaled["wall"] = raw["wall"] * pass_speed
        rec = {"elapsed": elapsed, "speed": pass_speed, "trees": trees, "raw": raw,
               "listing_ms": listing_ms}
        for kind, secs in scaled.items():
            rec[f"{kind}_s"] = secs
        self.passes.append(rec)
        return rec

    def run_for(self, seconds: float) -> None:
        """Passes until the next one would end after ``seconds``; at
        least one."""
        start = time.perf_counter()
        while True:
            rec = self.run_pass()
            if time.perf_counter() - start + rec["elapsed"] > seconds:
                return


def fresh_modules():
    """Import spangray afresh, so every set-up repetition pays for it."""
    for name in [n for n in sys.modules if n == "spangray" or n.startswith("spangray.")]:
        del sys.modules[name]
    return modules()


def set_up(workload: str, seed: int, workdir: Path):
    """Repeat the set-up SETUP_REPS times; return the last plan, its
    modules and every set-up time at reference speed."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        kernel = [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        sg = fresh_modules()
        plan = PLANS[workload](sg, str(workdir), seed)
        raw = time.perf_counter() - t0
        kernel += [calibrate() for _ in range(3)]
        times.append(raw * K_REF / statistics.median(kernel))
    return plan, sg, times


def report_line(name, value, unit, note="") -> None:
    print(f"  {name:<46} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        plan, sg, setup_times = set_up(args.workload, args.seed, workdir)
        ref = None
        if args.seed == DEFAULT_SEED:
            with open(BENCH / "reference.json", encoding="utf-8") as fh:
                ref = json.load(fh)["digests"].get(args.workload, {})
        runner = Runner(plan, ref)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} operations/pass={len(plan.ops)}")
        if args.trace:
            metrics = traced_metrics(runner, sg, args)
            units = metric_units("per_layer")
        else:
            runner.run_for(args.seconds)
            metrics = end_to_end_metrics(runner, setup_times)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"  {'failed_ratio':<46} {runner.failed / runner.attempted:>14.6g} "
          f"{'':<6} {runner.failed}/{runner.attempted} operations")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


def end_to_end_metrics(runner: Runner, setup_times) -> dict:
    """Medians over the passes of times at reference speed (see
    ``Runner.run_pass``); rates divide by scaled time."""
    passes = runner.passes
    out = {"setup_s": statistics.median(setup_times)}
    report_line("setup_s", out["setup_s"], "s", f"median of {len(setup_times)} set-ups")
    for name in PER_PASS:
        if name.endswith("_per_s"):
            kind = name.split("_", 1)[0]
            values = [p["trees"][kind] / p[f"{kind}_s"] for p in passes]
            raw = [p["trees"][kind] / p["raw"][kind] for p in passes]
            unit = "1/s"
        else:
            values = [p[name] for p in passes]
            raw = [p["raw"][name[:-2]] for p in passes]
            unit = "s"
        out[name] = statistics.median(values)
        report_line(name, out[name], unit,
                    f"median of {len(passes)} passes (raw {statistics.median(raw):.4g})")
    lat = sorted(ms for p in passes for ms in p["listing_ms"])
    tail = tail_percentile(len(lat))
    tail_note = "none" if tail is None else f"p{tail:g}={percentile(lat, tail):.4g} ms"
    for p in (50, 90, 99):
        out[f"listing_ms.p{p}"] = percentile(lat, p)
        report_line(f"listing_ms.p{p}", out[f"listing_ms.p{p}"], "ms",
                    f"n={len(lat)}" + (f"; highest percentile with 10 beyond: {tail_note}"
                                        if p == 99 else ""))
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_line("peak_rss_mib", out["peak_rss_mib"], "MiB", "ru_maxrss of the run")
    speeds = [p["speed"] for p in passes]
    print(f"# speed per pass (scaled / raw operation time): "
          f"{' '.join(f'{x:.3f}' for x in speeds)}")
    return out


def traced_metrics(runner: Runner, sg, args) -> dict:
    """Per-layer metrics per traced pass, in raw seconds."""
    start = time.perf_counter()
    untraced = runner.run_pass()["wall_s"]
    with Tracer(sg) as tr:
        traced = Runner(runner.plan, None)
        traced.run_for(max(0.0, args.seconds - (time.perf_counter() - start)))
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    runner.errors += traced.errors
    out = tr.layer_metrics(len(traced.passes))
    walls = [p["wall_s"] for p in traced.passes]
    out["trace.overhead_s"] = statistics.median(walls) - untraced
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    spans = trace_dir / f"{args.workload}-seed{args.seed}.csv.gz"
    tr.write_spans(str(spans))
    print(f"# {len(tr.span_start)} spans over {len(walls)} traced passes -> "
          f"{spans.relative_to(ROOT)}")
    for name, value in out.items():
        report_line(name, value, "", "per pass")
    return out


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    results = {}
    modes = (0, 1) if args.trace else (0,)
    for workload in ("strip", "wide", "small"):
        for trace in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(workload, {})["traced" if trace else "untraced"] = \
                json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(metric_units("end_to_end"))
    print(f"\n{'metric':<22}" + "".join(f"{w:>14}" for w in results))
    for name in names:
        unit = results["strip"]["untraced"]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':<22}" + "".join(
            f"{r['untraced']['metrics'][name]['value']:>14.5g}" for r in results.values()))
    print(f"{'failed_ratio':<22}" + "".join(
        f"{r['untraced']['failed'] / r['untraced']['attempted']:>14.5g}"
        for r in results.values()))
    if args.trace:
        print(f"{'trace.overhead_s [s]':<22}" + "".join(
            f"{r['traced']['metrics']['trace.overhead_s']['value']:>14.5g}"
            for r in results.values()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "results": results},
                      fh, indent=1)
    ok = all(r["correct"] for res in results.values() for r in res.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("strip", "wide", "small"))
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all, write the results as JSON")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if not (SRC / "spangray" / "__init__.py").is_file():
        print(f"error: no spangray sources at {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
