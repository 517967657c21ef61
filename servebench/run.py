#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the driver (this directory's CMake package, which compiles the
repository's sources) into the build directory, runs one workload and
prints the result as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer
metrics, from the driver's counters plus trace_agg.py's self-time
aggregation of the traced pass.

Usage (from the repository root):
  python3 servebench/run.py --workload NAME --seed N --seconds S \
      --trace 0|1 [--keep-trace]

The build tree is .bench_build in the working directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import trace_agg  # noqa: E402

BUILD_JOBS = "4"


def build(build_dir):
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                    "--target", "serve_bench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "serve_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep-trace", action="store_true",
                    help="keep the traced pass's Chrome trace file")
    args = ap.parse_args()

    build_dir = os.path.abspath(".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("servebench: build failed: %s" % e, file=sys.stderr)
        return 1

    trace_file = os.path.join(
        build_dir, "trace_%s_%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("servebench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    report = json.loads(lines[-1])
    detail = report["detail"]
    print("detail: " + json.dumps(detail))

    metrics = report["metrics"]
    if args.trace:
        meta = dict(detail)
        for k in ("machine.triad_gbps", "machine.fma_gflops"):
            meta[k] = metrics[k]["value"]
        layers = trace_agg.aggregate(trace_file, meta)
        if not args.keep_trace:
            os.remove(trace_file)
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            print("  %-28s %14.6g %s" % (name, value, unit))
        shares = sum(layers[k][0] for k in (
            "linear.quantize_share", "gemm.share", "attend.share",
            "model.other_share"))
        print("step time accounted by the four shares: %.4f" % shares)
        print("gemm.* and attend.* bytes are computed from tensor "
              "sizes, not measured; ceilings are machine.*")

    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
