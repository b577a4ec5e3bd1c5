#!/usr/bin/env python3
"""Repository benchmark: builds the jitise libraries plus the perfbench
program from source (Release) and runs one workload.

    python3 perfbench/run.py --workload suite_cold|serve_warm|drift_rotor \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) inside the checkout; the traced run writes its trace-event
JSON under <build>/traces/. Build output goes to stderr, so the last line
of stdout is perfbench's JSON result. Exit status: 0 when every op was
correct, 1 when an op failed, 2 on usage or set-up errors, 3 when the build
fails, 4 on timeout.

Workloads (all seeded by --seed; see BENCHMARK.json for why each exists):
  suite_cold   all 22 apps through jit::specialize, jobs=1, fresh caches
  drift_rotor  adpcm->fft->sor rotation through the adaptive drift loop
  serve_warm   4 closed-loop tenants on a warm SpecializationServer; not a
               BENCHMARK.json workload: each warm 188.ammp request re-runs a
               ~1.3 s speculative CAD chain, which makes run-to-run spreads
               (p50 up to 0.5 of the median) exceed any allowed bound
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("suite_cold", "serve_warm", "drift_rotor")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, cwd=ROOT).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, cwd=ROOT)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def run_perfbench(binary, workload, seed, seconds, trace):
    """Runs perfbench, streaming its stdout; returns its exit status."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--digests", os.path.join(BENCH_DIR, "data", "digests.tsv"),
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json"),
           "--commit", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return run_perfbench(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
