"""Run one ffhyper benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Each workload calls the public entry point ``ffhyper.cli.run(argv)``
in-process with the argv a user would type, pass after pass, until
``--seconds`` have gone by, and checks every output.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` repeats the workload untraced
and then traced (see tracing.py) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine and run details.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from workloads import STATEMENTS, WORKLOADS, Call

SETUP_RUNS = 9
SPANS_DIR = ".perfbench_out"

_LAYER_STATS = {
    "field.make_field": ("calls", "s"),
    "characters.call": ("calls", "s"),
    "charsums.gauss_vector": ("calls", "misses", "s"),
    "charsums.jacobi_index": ("calls", "misses", "hit_ratio", "elems", "s"),
    "charsums.binomial_index": ("calls", "s"),
    "charsums.binomial_line": ("calls", "misses", "s"),
    "hypergeo.hyper_char": ("calls", "s"),
    "hypergeo.hyper_all_x": ("calls", "s"),
    "hypergeo.appell_f4": ("calls", "elems", "s"),
    "hypergeo.hyper_exact_phi": ("calls", "s"),
    "hypergeo.reconstruct": ("calls", "s", "max_margin"),
    "curves.legendre_trace_table": ("calls", "s"),
    "curves.clausen_trace_table": ("calls", "s"),
    "curves.legendre_trace": ("calls", "s"),
    "curves.clausen_trace": ("calls", "s"),
    **{f"identities.{label}": ("s", "wall_s", "checks") for label in STATEMENTS},
    "identities.estimate_sweep": ("s",),
    "cli.render": ("s",),
    "cli.eval": ("s",),
}
_UNITS = {"calls": "count", "s": "s", "wall_s": "s", "misses": "count", "hit_ratio": "ratio",
          "elems": "count", "max_margin": "1", "checks": "count"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "call_p50_ms": "ms", "call_p95_ms": "ms"}
PER_LAYER = {
    **{f"{layer}.{stat}": _UNITS[stat] for layer, stats in _LAYER_STATS.items() for stat in stats},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Passes:
    """Timings and check results of the passes of one measurement."""

    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_pass(run, workload) -> list[Call]:
    calls = []
    for argv in workload.argvs:
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                code = run(argv)
        except SystemExit as e:  # argparse rejects bad argv this way
            code = e.code
        except Exception:
            traceback.print_exc()
            code = None
        calls.append(Call(code, buf.getvalue(), perf_counter() - start))
    return calls


def measure(run, workload, seconds: float, min_passes: int, warmup: int) -> Passes:
    """Repeat passes until ``seconds`` have gone by and ``min_passes`` are timed.

    The first ``warmup`` passes are checked but not timed: the first pass in
    a process runs measurably slower than the rest.
    """
    res = Passes()
    done = 0
    deadline = perf_counter() + seconds
    while done < warmup + min_passes or perf_counter() < deadline:
        gc.collect()
        calls = run_pass(run, workload)
        attempted, failed = workload.check(calls)
        if done >= warmup:
            res.walls.append(sum(c.seconds for c in calls))
            res.latencies.extend(c.seconds for c in calls)
        res.attempted += attempted
        res.failed += failed
        done += 1
    return res


def setup_seconds(src: Path) -> float:
    """Median time from a fresh interpreter to a finished ``import ffhyper.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import ffhyper.cli"]
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode cache once
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return median(times)


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer figures from a traced measurement of ``passes`` passes."""
    calls = tracer.span_counts()
    self_s = tracer.self_times()
    root_s = tracer.root_times()
    out = {}
    for layer, stats in _LAYER_STATS.items():
        for stat in stats:
            name = f"{layer}.{stat}"
            if stat == "calls":
                value = calls.get(layer, 0) / passes
            elif stat == "s":
                value = self_s.get(layer, 0.0) / passes
            elif stat == "wall_s":
                value = root_s.get(layer, 0.0) / passes
            elif stat == "hit_ratio":
                n = calls.get(layer, 0)
                value = 1.0 - tracer.counts[f"{layer}.misses"] / n if n else 0.0
            elif stat == "max_margin":
                value = tracer.maxima.get(name, 0.0)
            else:
                value = tracer.counts[name] / passes
            out[name] = value
    return out


def environment(cli) -> dict:
    import numpy

    verify = cli.build_parser().parse_args(["verify", "--primes", "3"])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "verify_default_threads": getattr(verify, "jobs", None),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def one_pass(name: str, seed: int) -> dict:
    """Peak memory and check results of one pass in a fresh process (one_pass.py)."""
    script = Path(__file__).with_name("one_pass.py")
    cmd = [sys.executable, str(script), name, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def untraced(cli, workload, seed: int, seconds: float, src: Path) -> tuple[Passes, dict]:
    setup = setup_seconds(src)
    alone = one_pass(workload.name, seed)
    res = measure(cli.run, workload, seconds, min_passes=2, warmup=1)
    res.attempted += alone["attempted"]
    res.failed += alone["failed"]
    metrics = {
        "setup_s": setup,
        "wall_s": median(res.walls),
        "peak_rss_mb": alone["peak_rss_mb"],
        "call_p50_ms": 1000 * median(res.latencies),
        # Linear interpolation between order statistics, numpy's default.
        "call_p95_ms": 1000 * quantiles(res.latencies, n=20, method="inclusive")[18],
    }
    return res, metrics


def traced(cli, workload, seconds: float, spans_path: Path, info: dict) -> tuple[Passes, dict]:
    from tracing import Tracer

    res = measure(cli.run, workload, seconds / 2, min_passes=1, warmup=1)
    tracer = Tracer()
    with tracer.installed():
        traced_res = measure(cli.run, workload, seconds / 2, min_passes=1, warmup=0)
    metrics = layer_metrics(tracer, len(traced_res.walls))
    metrics["trace.wall_s"] = median(traced_res.walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(res.walls)
    info["traced_pass_walls_s"] = traced_res.walls
    info["span_threads"] = tracer.thread_count()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path, info)
    res.attempted += traced_res.attempted
    res.failed += traced_res.failed
    return res, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ffhyper" / "cli.py").is_file():
        print(f"error: {src}/ffhyper not found; run from the root of an ffhyper checkout", file=sys.stderr)
        return 2
    os.environ.pop("FFHYPER_CACHE", None)
    sys.path.insert(0, str(src))
    from ffhyper import cli

    if Path(cli.__file__).resolve().parent != (src / "ffhyper").resolve():
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    info = {"workload": workload.name, "seed": args.seed, "env": environment(cli)}
    if args.trace:
        spans = root / SPANS_DIR / f"spans-{workload.name}-{args.seed}.npz"
        res, metrics = traced(cli, workload, args.seconds, spans, info)
        units = PER_LAYER
    else:
        res, metrics = untraced(cli, workload, args.seed, args.seconds, src)
        units = END_TO_END
    info["pass_walls_s"] = res.walls
    info["latency_samples"] = len(res.latencies)
    print(json.dumps(info))
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
