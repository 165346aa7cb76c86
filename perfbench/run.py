#!/usr/bin/env python3
"""Builds and runs the whtlab benchmark.

    python3 perfbench/run.py --workload engine_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the checkout, then
run with every WHTLAB_* variable removed from its environment.  Its output
passes through; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
A per-layer metric that perfbench/metrics.json marks as not applying to the
workload is reported as 0.  Any wrong output, failed request, missing or
unexpected metric exits with a nonzero code.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("WHTLAB_")}


def build(targets):
    """Configures and builds `targets`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"]
                     + targets)
        for step in steps:
            result = subprocess.run(step, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True,
                                    env=clean_env(), timeout=BUILD_TIMEOUT_S)
            if result.returncode != 0:
                sys.stderr.write(result.stdout[-4000:])
                raise RuntimeError("build failed: " + " ".join(step[:3]))
    return out


def source_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file()) if path.exists() else []
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    with open(BENCH_DIR / "metrics.json") as f:
        layers = json.load(f)
    return contract, layers


def check_names(contract, layers):
    """Returns a list of problems with the metric and workload names."""
    problems = []
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"]]
    names += [m["name"] for m in contract["per_layer"]]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("duplicate names")
    declared = {m["name"] for m in contract["per_layer"]}
    documented = set(layers["per_layer"])
    if declared != documented:
        problems.append("per-layer metrics differ between BENCHMARK.json and "
                        f"metrics.json: {sorted(declared ^ documented)}")
    workloads = {w["name"] for w in contract["workloads"]}
    for name, entry in layers["per_layer"].items():
        if not entry.get("moves"):
            problems.append(f"{name} does not say what it moves")
        if not entry.get("applies_to") or not set(entry["applies_to"]) <= workloads:
            problems.append(f"{name} applies to unknown workloads")
    return problems


def selftest():
    contract, layers = load_contract()
    problems = check_names(contract, layers)
    for problem in problems:
        log(problem)
    out = build(["perfbench_selftest"])
    result = subprocess.run([str(out / "perfbench_selftest")], env=clean_env(),
                            timeout=RUN_TIMEOUT_S)
    ok = not problems and result.returncode == 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def finish(result, contract, layers, workload, trace):
    """Checks the metric set against the contract; returns the exit code."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    final = {}
    problems = []
    for m in wanted:
        name = m["name"]
        if name in metrics:
            if metrics[name].get("unit") != m["unit"]:
                problems.append(f"{name}: unit {metrics[name].get('unit')!r}"
                                f" is not {m['unit']!r}")
            final[name] = metrics[name]
        elif trace and workload not in layers["per_layer"][name]["applies_to"]:
            final[name] = {"value": 0, "unit": m["unit"]}
        else:
            problems.append(f"{name} missing")
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if extra:
        problems.append(f"unexpected metrics {extra}")
    for problem in problems:
        log(problem)
    correct = bool(result.get("correct")) and not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": final}), flush=True)
    return 0 if correct and int(result.get("failed", 0)) == 0 else 1


def run_group(command):
    """Runs `command` in its own process group; on timeout the whole group
    (daemon and client children included) is killed and reaped."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=clean_env(), cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(command, proc.returncode, stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return selftest()
        contract, layers = load_contract()
        if args.workload not in {w["name"] for w in contract["workloads"]}:
            log(f"unknown workload {args.workload!r}")
            return 2
        out = build(["perfbench"])
        command = [str(out / "perfbench"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--commit", source_id()]
        if args.trace:
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            for old in traces.glob(args.workload + "-*.csv"):
                old.unlink()
            command += ["--trace-dir", str(traces)]
        run = run_group(command)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(str(error))
        return 1

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (benchmark exited with {run.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    code = finish(result, contract, layers, args.workload, args.trace)
    if run.returncode != 0:
        log(f"benchmark exited with {run.returncode}")
        return run.returncode if code == 0 else code
    return code


if __name__ == "__main__":
    sys.exit(main())
