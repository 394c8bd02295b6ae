"""worldfunc benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Report
lines start with '#'; the last line of stdout is one JSON object with keys
correct, attempted, failed and metrics, where failed counts the ops that
failed beyond today's known defects (those are in ok_frac).  --trace 0 prints the end-to-end
metrics of the workload; --trace 1 prints the per-layer metrics (layer-alone
timings plus an untraced and a traced pass of every workload).  Metric names
and units come from BENCHMARK.json.  See perfbench/README.md for the
workloads, ops, checks and metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.layers import run_layers  # noqa: E402
from perfbench.speed import PROBE_EVERY_S, probe, slowdown  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Tally,
    correct,
    module_calls,
    percentile,
    samples_beyond,
    self_times,
)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 1 + this
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def load_spec() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def load_package():
    init = SRC / "worldfunc" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no worldfunc source at {init}")
    sys.path.insert(0, str(SRC))
    import worldfunc
    import worldfunc.cli  # noqa: F401

    if Path(worldfunc.__file__).resolve() != init.resolve():
        raise BenchError(f"worldfunc was imported from {worldfunc.__file__}, not from {SRC}")
    return worldfunc


def timed_call(n_ops, run, check):
    """Run one call; return (seconds, failures).  Only run() is timed."""
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a raising op is a failed op, the loop goes on
        return time.perf_counter() - t0, {f"raised_{type(exc).__name__}": n_ops}
    dt = time.perf_counter() - t0
    try:
        return dt, check(result)
    except Exception as exc:  # output missing or malformed
        return dt, {f"check_{type(exc).__name__}": n_ops}


def measure(workload, seconds: float):
    """Closed loop until `seconds` have passed, at least min_calls calls are
    done and the last round is complete; the speed probe runs between calls."""
    tally, latencies, probes = Tally(workload.known_failures), [], [probe()]
    start = last_probe = time.perf_counter()
    for n_ops, run, check in workload.calls():
        dt, failures = timed_call(n_ops, run, check)
        latencies.append(dt)
        tally.add(n_ops, failures)
        now = time.perf_counter()
        if now - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        if (now - start >= seconds and len(latencies) >= workload.min_calls
                and len(latencies) % workload.round_size == 0):
            break
    probes.append(probe())
    return tally, latencies, probes


def run_calls(calls, known):
    tally, latencies = Tally(known), []
    for n_ops, run, check in calls:
        dt, failures = timed_call(n_ops, run, check)
        latencies.append(dt)
        tally.add(n_ops, failures)
    return tally, latencies


def setup(args, workdir: Path):
    wf = load_package()
    workload = WORKLOADS[args.workload](wf, args.seed, workdir)
    workload.warmup()
    return wf, workload, time.perf_counter() - T0


def probe_setup(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "worldfunc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_line() -> str:
    import numpy
    import scipy

    return (f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"source_sha256={source_digest()} platform={platform.machine()}")


def end_to_end(args, workload, setup_samples):
    tally, lat, probes = measure(workload, args.seconds)
    slow = slowdown(probes)
    beyond = samples_beyond(len(lat), workload.tail_pct)
    raw = {"ops_per_s": tally.attempted / sum(lat),
           "latency_p50_ms": percentile(lat, 50.0) * 1e3,
           "latency_tail_ms": percentile(lat, workload.tail_pct) * 1e3}
    print(f"# ops: attempted={tally.attempted} failed={tally.failed} "
          f"known_defect={tally.defective} ok_frac={tally.ok_frac:.6f} "
          f"reasons={dict(tally.reasons)}")
    print(f"# latency: {len(lat)} calls; tail is p{workload.tail_pct} with {beyond} calls beyond it")
    print(f"# setup samples (s): {[round(s, 4) for s in setup_samples]}")
    print(f"# speed probe: {len(probes)} samples, median {statistics.median(probes) * 1e3:.4f} ms, "
          f"slowdown {slow:.4f} against the reference; raw "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s_at_ref": raw["ops_per_s"] * slow,
        "latency_p50_ms_at_ref": raw["latency_p50_ms"] / slow,
        "latency_tail_ms_at_ref": raw["latency_tail_ms"] / slow,
        "ok_frac": tally.ok_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, correct(tally, workload.stable), metrics


def traced(wf, args, workdir: Path):
    metrics = run_layers(wf, args.seed)
    total, all_correct = Tally(), True
    cross = [wf.equivalence, wf.objects, wf.chains, wf.cli]
    entries = [(wf, "solve_equivalent"), (wf, "simulate_ensemble"), (wf.cli, "main")]
    for name, cls in WORKLOADS.items():
        w = cls(wf, args.seed, workdir / f"trace-{name}")
        w.warmup()
        calls = w.trace_calls()
        base, base_lat = run_calls(calls, w.known_failures)
        tracer = Tracer()
        tracer.install(cross, entries)
        try:
            traced_tally, traced_lat = run_calls(calls, w.known_failures)
        finally:
            tracer.uninstall()
        total.merge(base)
        total.merge(traced_tally)
        all_correct &= correct(base, w.stable) and correct(traced_tally, w.stable)
        metrics[f"trace.overhead_pct.{name}"] = (sum(traced_lat) / sum(base_lat) - 1.0) * 100.0
        selfs, counts = self_times(tracer.records), module_calls(tracer.records)
        for mod in cls.traced_modules:
            metrics[f"{mod}.self_s.{name}"] = selfs[mod]
            metrics[f"{mod}.calls.{name}"] = counts[mod]
        if name in ("solve", "cli"):
            sig = [r for (_, callee), r in tracer.records.items() if callee == "geometry.sigma"]
            metrics[f"geometry.pairs_per_call.{name}"] = (
                sum(r.items for r in sig) / sum(r.calls for r in sig))
        if name == "chain":
            metrics["chains.nonfinite_chains"] = base.reasons["nonfinite"]
            metrics["chains.drift_fail_chains"] = base.reasons["drift"]
        if name == "cli":
            for (cmd, _, _), dt in zip(w.commands, base_lat):
                metrics[f"cli.cmd_s.{cmd}"] = dt
            metrics["cli.bytes_written"] = sum(w.bytes_per_round.values())
        print(f"# {name}: untraced {sum(base_lat):.4f}s traced {sum(traced_lat):.4f}s "
              f"reasons={dict(base.reasons)}")
        for row in tracer.dump():
            print(f"# span {name} " + json.dumps(row))
    return total, all_correct, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    args = parse_args(argv)
    if args.setup_probe:
        workdir = Path(args.workdir) / f"probe-{os.getpid()}"
        try:
            *_, setup_s = setup(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = load_spec()
    workroot = ROOT / ".perfbench-work"
    workdir = workroot / str(os.getpid())
    try:
        wf, workload, first_setup = setup(args, workdir / "main")
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(machine_line())
        if args.trace:
            tally, ok, values = traced(wf, args, workdir)
            units = spec["per_layer"]
        else:
            samples = [first_setup] + [probe_setup(args, workdir) for _ in range(SETUP_PROBES)]
            tally, ok, values = end_to_end(args, workload, samples)
            units = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]} {unit}")
    print(json.dumps({"correct": bool(ok), "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
