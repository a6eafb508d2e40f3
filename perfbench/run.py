#!/usr/bin/env python3
"""Range-query benchmark: host cost of PIRA/MIRA range queries.

Builds the repository's armada_core library and the rqbench program from
source (RelWithDebInfo, the repository's default build type), runs one
workload, checks the result line and prints it as the last stdout line.

  python3 perfbench/run.py --workload pira_fanout --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 20]   # every workload, both modes
  python3 perfbench/run.py --selftest                        # tiny-scale self-tests

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The build directory is $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), relative to the repository root.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pira_fanout", "pira_point_rw", "mira_queued")
DEFAULT_SEED = 1
# Seed kept out of tuning: a claimed gain must also hold on it.
HELDOUT_SEED = 20061
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds rqbench; returns the binary's path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bdir = os.path.join(base, "perfbench")
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "rqbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "rqbench")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric name -> unit for the mode, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (info lines, result line, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit()]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"rqbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("rqbench printed nothing")
    return lines[:-1], lines[-1], json.loads(lines[-1])


def check_result(result, trace):
    """Problems with a result line: keys, counts and the declared metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    declared = declared_metrics(trace)
    got = result.get("metrics", {})
    for name, unit in declared.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}, "
                            f"declared {unit}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    for name in got:
        if name not in declared:
            problems.append(f"metric {name} is not declared")
    return problems


def info(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def selftest(binary):
    """Tiny-scale checks: traced and untraced runs agree on every sim_*
    metric, span replays reproduce every delivery instant, the FRT re-run
    matches PIRA/MIRA on every query, and every declared metric is emitted
    with its unit."""
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    for w in WORKLOADS:
        lines0, _, r0 = run_binary(binary, w, DEFAULT_SEED, 0.3, False, tiny=True)
        lines1, _, r1 = run_binary(binary, w, DEFAULT_SEED, 0.3, True, tiny=True)
        for trace, r in ((False, r0), (True, r1)):
            problems = check_result(r, trace)
            expect(not problems,
                   f"{w} trace={int(trace)}: every metric emitted with its unit"
                   + (f" ({'; '.join(problems)})" if problems else ""))
            expect(r["correct"] and r["failed"] == 0,
                   f"{w} trace={int(trace)}: {r['failed']} of "
                   f"{r['attempted']} operations failed")
        sim0, sim1 = info(lines0, "SIM"), info(lines1, "SIM")
        expect(sim0 is not None and sim0 == sim1,
               f"{w}: traced and untraced sim_* metrics identical")
        for name, value in (sim0 or {}).items():
            if name.startswith("sim_"):
                expect(r0["metrics"][name]["value"] == value,
                       f"{w}: {name} reported as measured on the prefix")
        expect(r1["metrics"]["net.replay_mismatches"]["value"] == 0,
               f"{w}: net.replay_mismatches is 0")
        ladder = info(lines1, "LADDER")
        expect(ladder is not None and ladder["rerun_mismatches"] == 0,
               f"{w}: FRT re-run matches the engine on every query")
    print("selftest: " + ("ok" if failures == 0 else f"{failures} failed"))
    return 0 if failures == 0 else 1


def run_all(binary, seed, seconds):
    """Every workload in both modes; prints every metric by name and unit."""
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            _, _, r = run_binary(binary, w, seed, seconds, trace)
            problems = check_result(r, trace)
            ok = not problems and r["correct"] and r["failed"] == 0
            bad += 0 if ok else 1
            print(f"== {w} trace={int(trace)} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}"
                  + ("" if not problems else " PROBLEMS: " + "; ".join(problems)))
            for name, m in r["metrics"].items():
                print(f"  {name:36s} {m['value']:>18.6g} {m['unit']}")
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; seed "
                         f"{HELDOUT_SEED} is held out to confirm claimed gains)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("--workload, --all or --selftest is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    try:
        if args.selftest:
            return selftest(binary)
        if args.all:
            return run_all(binary, args.seed, args.seconds)
        lines, raw, result = run_binary(binary, args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 3
    problems = check_result(result, bool(args.trace))
    if problems:
        log("run.py: malformed result: " + "; ".join(problems))
        return 4
    for line in lines:
        print(line)
    print(raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
