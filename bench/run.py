"""The repository benchmark: seeded workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload decompose --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Workloads (closed loop, one caller, at
most one worker process at a time):

  decompose   reynolds_lie then decompose_invariant on seeded 3-term
              elements at (n, d) = (3,9) (4,8) (5,7) (6,6) (7,5), warm caches;
              three workers, each set up and then timed for a third of
              --seconds.
  generators  generator_h_lie for all 46 pairs at n = 5, 6, 7; every round
              in a freshly started worker, so all caches start cold.
  cli         `python -m metabelian.cli` subprocesses over a seeded mix of
              cheap, error and heavy requests, interpreter started cold.

Times are reported scaled to a reference host speed (see hostspeed.py); the
raw times are printed beside them and kept in the run record.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the same timed run is repeated and followed by a spans pass and a
cProfile pass, and the last line carries the per-layer metrics.  Details go
to .bench_out/ (results, per-layer metrics and spans, kept apart).  Without
the library sources the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The runner stays lean (neither the library nor the profiler is imported
# here): Linux copies a parent's peak resident set into each child's
# ru_maxrss when the child execs, so a large runner would mask the CLI
# children's peak in peak_rss_mb.
import checks
import hostspeed
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 170

# Tail percentile per workload: the highest with at least 10 samples beyond
# it at the default run length, placed inside a cluster of equal ops so that
# whole rounds keep it there (see README.md).
TAIL_PERCENTILE = {"decompose": 60, "generators": 95, "cli": 80}
DECOMPOSE_WORKERS = 3
CLI_SETUPS = 3
CLI_ROUNDS_PLANNED = 12
CLI_PROBES = 9

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

PER_LAYER_UNITS = {
    "fractions.self_s": "s",
    "fractions.calls": "count",
    "polynomials.self_s": "s",
    "polynomials.mul.calls": "count",
    "polynomials.mul.terms_out": "count",
    "polynomials.mul.s": "s",
    "polynomials.expand_e_monomial.calls": "count",
    "polynomials.expand_e_monomial.s": "s",
    "lie.self_s": "s",
    "lie.apply_perm_lie.calls": "count",
    "lie.apply_perm_lie.s": "s",
    "wreath.self_s": "s",
    "wreath.preimage.calls": "count",
    "wreath.preimage.s": "s",
    "wreath.preimage.terms_in": "count",
    "wreath.embed.s": "s",
    "wreath.module_mul.s": "s",
    "linalg.self_s": "s",
    "linalg.solve_exact.calls": "count",
    "linalg.solve_exact.s": "s",
    "linalg.solve_exact.cells": "count",
    "linalg.nullspace.s": "s",
    "linalg.nullspace.cells": "count",
    "permutations.self_s": "s",
    "permutations.enumerate_sn.perms": "count",
    "invariants.self_s": "s",
    "invariants.reynolds_lie.s": "s",
    "invariants.decompose_invariant.s": "s",
    "invariants.generator_h_lie.s": "s",
    "invariants.invariant_space_basis.s": "s",
    **{
        f"cache.{fn}.{stat}": unit
        for fn in ("elementary_symmetric", "expand_e_monomial", "epsilon",
                   "generator_h", "generator_h_lie", "weighted_exponent_vectors")
        for stat, unit in (("hit_ratio", "1"), ("currsize", "count"))
    },
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.handler_s": "s",
    **{f"cell.{inputs.cell_key(cell)}.op_ms_p50": "ms" for cell in inputs.CELLS},
    **{f"cell.n{n}.op_ms_p50": "ms" for n in inputs.GENERATOR_RANKS},
    "trace.overhead_ratio": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def library_env():
    """The caller's environment with the library on the path; bytecode
    caching stays on, as for an installed package."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(workload, seed, mode, budget, index):
    """Start a worker, time its set-up up to 'ready'; return ([raw, scaled]
    set-up seconds, payload)."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(budget), str(index)]
    speed = hostspeed.sample_ms()
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=library_env()) as proc:
        try:
            if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(argv, WORKER_TIMEOUT_S)
            first = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"{workload} worker ({mode}, {index}) exited {proc.returncode}")
    payload = json.loads(rest.strip().splitlines()[-1])
    return [setup_s, hostspeed.scale(setup_s, speed, payload["first_speed_ms"])], payload


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "metabelian.cli", *argv],
        capture_output=True, text=True, cwd=ROOT, env=library_env(), timeout=WORKER_TIMEOUT_S,
    )


def time_python(code):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=library_env(), timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} exited {proc.returncode}")
    return perf_counter() - t0


def import_seconds():
    """`import metabelian.cli` timed inside a fresh interpreter."""
    code = "from time import perf_counter as t; t0 = t(); import metabelian.cli; print(t() - t0)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=library_env(), timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import metabelian.cli exited {proc.returncode}")
    return float(proc.stdout)


# ---------------------------------------------------------------- timed runs

def timed_decompose(seed, seconds):
    """Worker w runs rounds until the run's op time reaches (w+1)/3 of
    --seconds, so the total number of rounds follows the round cost."""
    setups, ops, cache = [], [], None
    for w in range(DECOMPOSE_WORKERS):
        budget = seconds * (w + 1) / DECOMPOSE_WORKERS - sum(o[1] for o in ops)
        setup_s, payload = run_worker("decompose", seed, "timed", budget, w)
        setups.append(setup_s)
        ops += payload["ops"]
        cache = cache or payload["cache"]
    return {"setups": setups, "ops": ops, "cache": cache}


def timed_generators(seed, seconds):
    setups, ops, cache, r = [], [], None, 0
    while r < 1 or sum(o[1] for o in ops) < seconds:
        setup_s, payload = run_worker("generators", seed, "timed", 0, r)
        setups.append(setup_s)
        ops += payload["ops"]
        cache = cache or payload["cache"]
        r += 1
    return {"setups": setups, "ops": ops, "cache": cache}


def timed_cli(seed, seconds):
    setups = []
    speed = hostspeed.sample_ms()
    for _ in range(CLI_SETUPS):
        t0 = perf_counter()
        rounds = [inputs.cli_round(seed, r) for r in range(CLI_ROUNDS_PLANNED)]
        reference = checks.load_reference()
        time_python("import metabelian.cli")
        dt = perf_counter() - t0
        before, speed = speed, hostspeed.sample_ms()
        setups.append([dt, hostspeed.scale(dt, before, speed)])
    ops, timed, r = [], 0.0, 0
    while timed < seconds:
        if r == len(rounds):
            rounds.append(inputs.cli_round(seed, r))
        for kind, k, argv in rounds[r]:
            t0 = perf_counter()
            proc = run_cli(argv)
            dt = perf_counter() - t0
            before, speed = speed, hostspeed.sample_ms()
            reason = checks.check_cli(kind, k, argv, proc.returncode, proc.stdout, proc.stderr, reference)
            ops.append([kind, dt, hostspeed.scale(dt, before, speed), reason])
            timed += dt
        r += 1
    return {"setups": setups, "ops": ops, "cache": None}


TIMED = {"decompose": timed_decompose, "generators": timed_generators, "cli": timed_cli}


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(workload, run, scaled=True):
    """The end-to-end metrics from host-speed-scaled times, or raw ones."""
    col = 2 if scaled else 1
    ops = run["ops"]
    times = sorted(o[col] for o in ops)
    failed = sum(1 for o in ops if o[3])
    ok = len(ops) - failed
    values = {
        "ops_per_s": ok / sum(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_tail": nearest_rank(times, TAIL_PERCENTILE[workload]) * 1000,
        "setup_s": statistics.median(s[col - 1] for s in run["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ratio": ok / len(ops),
    }
    return values, failed


# ---------------------------------------------------------------- traced run

def per_layer(workload, seed, run):
    """Spans pass and cProfile pass in fresh workers, on the first round's
    inputs; cell medians and cache statistics come from the untraced run."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    ops = run["ops"]
    if workload == "cli":
        metrics["cli.interp_s"] = statistics.median(time_python("pass") for _ in range(CLI_PROBES))
        metrics["cli.import_s"] = statistics.median(import_seconds() for _ in range(CLI_PROBES))
        _, plain = run_worker("cli", seed, "timed", 0, 0)
        metrics["cli.handler_s"] = statistics.median(o[2] for o in plain["ops"])
        metrics.update(plain["cache"])
        untraced = plain["ops"]
        ops = ops + plain["ops"]
    else:
        for key in {o[0] for o in ops}:
            metrics[f"cell.{key}.op_ms_p50"] = statistics.median(o[2] for o in ops if o[0] == key) * 1000
        metrics.update(run["cache"])
        untraced = ops[: len(inputs.CELLS if workload == "decompose" else inputs.generator_pairs())]
    _, spanned = run_worker(workload, seed, "spans", 0, 0)
    _, profiled = run_worker(workload, seed, "profile", 0, 0)
    metrics.update(spanned["layers"])
    metrics.update(profiled["layers"])
    metrics["trace.overhead_ratio"] = sum(o[2] for o in spanned["ops"]) / sum(o[2] for o in untraced)
    return metrics, ops + spanned["ops"] + profiled["ops"]


# ------------------------------------------------------------------- report

def environment(seed):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TIMED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metabelian" / "__init__.py").is_file():
        print(f"bench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()

    try:
        run = TIMED[args.workload](args.seed, args.seconds)
        e2e, failed = end_to_end(args.workload, run)
        ops = run["ops"]
        raw = end_to_end(args.workload, run, scaled=False)[0]
        if args.trace:
            layers, ops = per_layer(args.workload, args.seed, run)
            failed = sum(1 for o in ops if o[3])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-s{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "setups_s": run["setups"],
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "runner_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    (OUT_DIR / f"{tag}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, _dt, _scaled, reason in ops:
        if reason:
            print(f"FAILED {key}: {reason}")
    print(f"{args.workload}: {len(ops)} ops, {failed} failed, seed {args.seed}")
    if args.trace:
        (OUT_DIR / f"{tag}-layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    else:
        print(f"  {'fail_ratio':<12} {failed / len(ops):>14.6g} 1")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    for name, m in metrics.items():
        label = f"{name} (p{TAIL_PERCENTILE[args.workload]})" if name == "op_ms_tail" else name
        unscaled = "" if args.trace else f"  (raw {raw[name]:.6g})"
        print(f"  {label:<12} {m['value']:>14.6g} {m['unit']}{unscaled}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
