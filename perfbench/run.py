#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload attack_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds the perfbench package (perfbench/CMakeLists.txt: the rftc libraries
from src/, rftc-worker and the driver) in an optimised build under
$CARGO_TARGET_DIR (default .bench_build), then runs one workload in a fresh
per-run temporary directory inside the checkout and removes it afterwards.
Build output goes to stderr; the driver's stdout is passed through, so the
last line is the result JSON.  Every inherited RFTC_* variable is removed:
the driver pins the ones it needs itself.  `--workload all` runs the three
workloads in turn and ends with one JSON line mapping each to its result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("attack_suite", "tvla_store", "dist_cpa")


def source_id():
    """The git sha when the checkout is a repository, else a content hash of
    src/ so every result still names the program it measured."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        if out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(len(os.sched_getaffinity(0)))],
                   stdout=sys.stderr, env=env, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no rftc sources next to perfbench/ (src/ missing)",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("RFTC_")}
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    spans_dir = os.path.join(target, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    sha = source_id()
    if args.workload != "all":
        return run_workload(build_dir, spans_dir, sha, args, args.workload,
                            env, capture=False)[0]
    results, rc = {}, 0
    for workload in WORKLOADS:
        code, last = run_workload(build_dir, spans_dir, sha, args, workload,
                                  env, capture=True)
        rc = rc or code
        results[workload] = json.loads(last) if code == 0 else None
    print("\nsummary (error_rate = failed / attempted)")
    for workload, r in results.items():
        if r is None:
            print(f"  {workload}: FAILED to run")
            continue
        print(f"  {workload}: error_rate {r['failed'] / r['attempted']:.4f} "
              f"({r['failed']} / {r['attempted']})")
        for name, m in r["metrics"].items():
            print(f"    {name:42s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps(results))
    return rc or (0 if all(r and r["correct"] for r in results.values()) else 1)


def run_workload(build_dir, spans_dir, sha, args, workload, env, capture):
    """Runs the driver on one workload in a fresh temporary directory;
    returns (exit code, last stdout line when captured)."""
    spans = os.path.join(spans_dir, f"{workload}-seed{args.seed}.json")
    tmp = tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT)
    try:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--spans", spans, "--git-sha", sha]
        sys.stdout.flush()
        if not capture:
            return subprocess.run(cmd, env=env).returncode, None
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        return p.returncode, lines[-1] if lines else ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
