"""Benchmark for jost1d.

    python3 bench/run.py --workload smooth_scatter --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One caller on one thread drives the library in a closed loop, with the
BLAS/OpenMP pools pinned to one thread.  A workload is a task list (see
workloads.py); each pass draws fresh inputs from the seeded generator
and runs the whole list.  A first warm-up pass is checked but not
timed; timed passes then repeat until --seconds have elapsed and the
run holds enough calls for its tail percentile.  Every call's
output is checked against an independent reference; a miss is counted
and listed, and the run goes on.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics.  Their seconds are scaled to a reference host
speed by the probes of speed.py, which take out the drift of a shared
host; the raw seconds are printed above the JSON line.

    wall_s       median over passes of the seconds spent in the pass's calls
    op_p50_s     median seconds per user-level call
    op_tail_s    the workload's tail percentile of seconds per call, fixed so
                 that at least ten calls lie beyond it
    setup_s      median over fresh interpreters of importing jost1d and
                 jost1d.cli and loading the pass's potentials from JSON
    peak_rss_mb  peak resident memory of this process

failed_frac (failed / attempted calls) is printed above the JSON line
and carried by its "failed" and "attempted" keys.  With --trace 1 each
pass runs twice on the same inputs, untraced and then traced, and the
JSON line holds the per-layer metrics of spans.py (sums per pass, raw
seconds, no probes) and trace.overhead_frac, traced over untraced
seconds minus one.

The benchmark imports jost1d from src/ of the checkout it sits in and
writes its inputs under .bench_work/, which it removes on exit.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# tail percentile per workload; the run holds at least min_calls(w) calls,
# so that ten or more lie beyond it
TAIL_QUANTILE = {"smooth_scatter": 0.75, "piecewise_limit": 0.9, "coupling_sweep": 0.95}
SETUP_REPEATS = 7
SETUP_PROBES = 20  # probes before and after each set-up child
MAX_SECONDS = 120.0  # stop adding passes here even if the tail is short of calls


def min_calls(workload):
    return math.ceil(10 / (1.0 - TAIL_QUANTILE[workload])) + 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TAIL_QUANTILE) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def provenance(seed):
    from importlib.metadata import version

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed, "commit": commit, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "click")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import jost1d
import jost1d.cli
for path in sys.argv[2:]:
    jost1d.load_potential(path)
"""


def measure_setup(paths):
    """Scaled and raw seconds for a fresh interpreter to import jost1d and load the inputs.

    Each child is timed between two bursts of host-speed probes, and the
    median over SETUP_REPEATS children is returned.  The wait blocks in
    waitpid, because subprocess's wait with a timeout polls in steps of
    up to 50 ms; a timer kills a child that hangs.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probes = [speed.probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), *paths], cwd=ROOT)
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
            guard.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
        raw.append(dt)
        scaled.append(dt * speed.REFERENCE_S / statistics.median(probes))
    return statistics.median(scaled), statistics.median(raw), raw


class Call(NamedTuple):
    pass_index: int
    kind: str
    start: float
    seconds: float
    traced: bool


class Run:
    """Calls, failures and host-speed probes of one benchmark run."""

    def __init__(self):
        self.calls = []
        self.failures = []  # (pass, op name, causes)
        self.speeds = speed.SpeedLog()

    def run_pass(self, tasks, inputs, pass_index, tracer=None):
        """Run one task list; return the raw seconds spent inside its calls."""
        results = {}
        total = 0.0
        for op in tasks(inputs, results):
            span = tracer.span(op.kind) if tracer and op.kind.startswith("cli.") else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    value = op.run()
            except Exception as exc:  # a raising call is a counted failure
                causes = [f"raised {type(exc).__name__}: {exc}"]
            else:
                causes = None
            dt = time.perf_counter() - t0
            if causes is None:
                results[op.name] = value
                try:
                    causes = op.check(value)
                except Exception as exc:  # so is a result the check cannot read
                    causes = [f"check raised {type(exc).__name__}: {exc}"]
            total += dt
            self.calls.append(Call(pass_index, op.kind, t0, dt, tracer is not None))
            if causes:
                self.failures.append((pass_index, op.name, causes))
        return total

    def scaled(self, call):
        """The call's seconds less the probes inside it, at the reference host speed."""
        end = call.start + call.seconds
        net = call.seconds - self.speeds.probe_seconds(call.start, end)
        return net * self.speeds.factor(call.start, end)


def tail(times, q):
    """(value, beyond): the q-quantile as an order statistic, and calls above it."""
    ordered = sorted(times)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def run_workload(args):
    if not (SRC / "jost1d" / "__init__.py").is_file():
        return fail(f"no jost1d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import numpy as np

    import jost1d

    if Path(jost1d.__file__).resolve().parent != SRC / "jost1d":
        return fail(f"imported jost1d from {jost1d.__file__}, not from {SRC}")
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    draw, tasks = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    run = Run()
    try:
        print(f"# jost1d benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# provenance {json.dumps(provenance(args.seed))}")
        first = workloads.Inputs(str(workdir), 0)
        draw(rng, first)
        if not args.trace:
            setup_s, setup_raw, setup_all = measure_setup(list(first.paths.values()))
        if not args.trace:
            run.speeds.start()
        # pass 0 warms up lazy imports and caches: its calls are checked, not timed
        run.run_pass(tasks, first, 0)
        warm_calls = len(run.calls)
        pass_walls, traced_walls = [], []
        tracer = spans.Tracer() if args.trace else None
        t_start = time.perf_counter()
        cycle = workloads.PASS_CYCLE.get(args.workload, 1)
        pass_index = 1
        while True:
            elapsed = time.perf_counter() - t_start
            timed = pass_index - 1
            if timed and timed % cycle == 0 and elapsed >= args.seconds and (
                    args.trace or len(run.calls) - warm_calls >= min_calls(args.workload)):
                break
            if timed and elapsed >= MAX_SECONDS:
                break
            inputs = workloads.Inputs(str(workdir), pass_index)
            draw(rng, inputs)
            pass_walls.append(run.run_pass(tasks, inputs, pass_index))
            if tracer:
                tracer.install()
                try:
                    traced_walls.append(run.run_pass(tasks, inputs, pass_index, tracer))
                finally:
                    tracer.uninstall()
            pass_index += 1
    finally:
        run.speeds.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted, failed = len(run.calls), len(run.failures)
    timed_calls = [c for c in run.calls if c.pass_index > 0 and not c.traced]
    print(f"# passes 1 warm-up + {len(pass_walls)} timed, calls {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4g}")
    print("# raw pass seconds " + " ".join(f"{w:.4g}" for w in pass_walls))
    for pass_no, name, causes in run.failures:
        for cause in causes:
            print(f"# FAIL pass {pass_no} {name}: {cause}")
    scaled = [] if args.trace else [run.scaled(c) for c in timed_calls]
    if scaled:
        probes = [s for _, s in run.speeds.samples]
        factors = [s / c.seconds for s, c in zip(scaled, timed_calls) if c.seconds > 0]
        print(f"# host speed: {len(probes)} probes, "
              f"median {statistics.median(probes) * 1e3:.4g} ms "
              f"(reference {speed.REFERENCE_S * 1e3:.4g} ms); "
              f"call scale factors {min(factors):.3g}-{max(factors):.3g}")
    for kind in sorted({c.kind for c in timed_calls}):
        raw = [c.seconds for c in timed_calls if c.kind == kind]
        line = f"# calls {kind}: n={len(raw)} median {statistics.median(raw):.4g} s raw"
        if scaled:
            ts = [s for s, c in zip(scaled, timed_calls) if c.kind == kind]
            line += f"; median {statistics.median(ts):.4g} s max {max(ts):.4g} s scaled"
        print(line)

    if args.trace:
        per_layer = spans.layer_metrics(tracer, len(traced_walls))
        overhead = sum(traced_walls) / sum(pass_walls) - 1.0
        per_layer["trace.overhead_frac"] = (overhead, "(traced over untraced wall_s, minus 1)",
                                            False)
        metrics = {}
        for entry in spec["per_layer"]:
            value, predicts, absent = per_layer[entry["name"]]
            note = "ABSENT" if absent else ""
            print(f"# {entry['name']:42s} {value:14.6g} {entry['unit']:6s} -> {predicts} {note}")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        walls = defaultdict(float)
        for s, c in zip(scaled, timed_calls):
            walls[c.pass_index] += s
        q = TAIL_QUANTILE[args.workload]
        tail_value, beyond = tail(scaled, q)
        values = {
            "wall_s": statistics.median(walls.values()),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = [c.seconds for c in timed_calls]
        notes = {
            "wall_s": f"median of {len(walls)} passes; raw {statistics.median(pass_walls):.4g} s",
            "op_p50_s": f"over {len(scaled)} calls; raw {statistics.median(raw):.4g} s",
            "op_tail_s": f"p{100 * q:g} over {len(scaled)} calls, {beyond} beyond it; "
                         f"raw {tail(raw, q)[0]:.4g} s",
            "setup_s": f"median of {SETUP_REPEATS}; raw {setup_raw:.4g} s, median of "
                       + ", ".join(f"{s:.4g}" for s in setup_all),
            "peak_rss_mb": "ru_maxrss of this process",
        }
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            print(f"# {name:12s} {values[name]:12.6g} {entry['unit']:4s} ({notes[name]})")
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"# failed_frac  {failed / attempted:12.6g} 1    ({failed} of {attempted} calls)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; a table of the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return fail(f"workload {entry['name']} exited with {proc.returncode}")
        rows.append((entry["name"], json.loads(proc.stdout.strip().splitlines()[-1])))
    print("# summary (seed %d)" % args.seed)
    for name, result in rows:
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
        frac = result["failed"] / result["attempted"]
        print(f"# {name:16s} " + "  ".join(cells) + f"  failed_frac={frac:.3g}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
