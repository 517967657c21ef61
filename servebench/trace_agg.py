#!/usr/bin/env python3
"""Self-time aggregation of a Chrome trace_event file.

Nests the complete ("X") spans of each thread by their intervals,
computes every span's self time (its duration minus the part its
direct children cover) and derives the servebench per-layer metrics
from the spans the runtime and the driver emit:

  serving.step / serving.prefill   ServingEngine scheduler iterations
  linear.quantize / linear.gemm    PackedLinear encode and GEMM phases
  gemm.packed (m, n, k args)       packedMatmulNt calls
  decode.attend / .flash           attention stage / packed KV kernel
  pool.run                         ThreadPool jobs handed to workers
  bench.*                          the driver's own calls

Step shares are taken on the driving thread (the one that runs
serving.step): linear.quantize, linear.gemm and decode.attend
subtrees, plus model.other_share, the self time of every other span
inside a step. The four add up to the step time.

Run it on a trace to print a per-span self-time table:

  python3 servebench/trace_agg.py TRACE.json
"""

import json
import sys
from collections import defaultdict

# Spans whose subtrees are attributed to a layer of the step.
LAYER_ROOTS = {
    "linear.quantize": "quantize",
    "linear.gemm": "gemm",
    "decode.attend": "attend",
}
SMALL_M = 16
# Spans whose args the metrics read; other spans drop theirs.
ARG_SPANS = {"serving.step", "serving.prefill", "gemm.packed",
             "decode.attend.flash", "bench.submit"}


class Span:
    __slots__ = ("tid", "name", "start", "end", "args", "self_ns",
                 "layer", "in_step")

    def __init__(self, tid, name, start, end, args):
        self.tid = tid
        self.name = name
        self.start = start
        self.end = end
        self.args = args
        self.self_ns = end - start
        self.layer = None
        self.in_step = False

    @property
    def dur(self):
        return self.end - self.start


def load_spans(path):
    """Complete events as Spans, integer nanoseconds. The runtime's
    trace writer puts one event on each line, so the file is parsed a
    line at a time instead of as one large document."""
    spans = []
    names = {}
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not (line.startswith("{") and line.endswith("}")):
                continue
            e = json.loads(line)
            if e.get("ph") != "X":
                continue
            name = names.setdefault(e["name"], e["name"])
            start = round(e["ts"] * 1000)
            end = start + round(e["dur"] * 1000)
            args = e.get("args") if name in ARG_SPANS else None
            spans.append(Span(e.get("tid", 0), name, start, end,
                              args or {}))
    return spans


def nest(spans):
    """Nest each thread's spans by interval; fill self_ns, layer and
    in_step. A span that is not contained in the open span above it
    closes that span first (spans of one thread never overlap
    partially, but a malformed trace must not corrupt the sums)."""
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in tid_spans:
            while stack and (stack[-1].end <= s.start or
                             stack[-1].end < s.end):
                stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.self_ns -= s.dur
                s.layer = parent.layer
                s.in_step = parent.in_step
            if s.layer is None:
                s.layer = LAYER_ROOTS.get(s.name)
            if s.name == "serving.step":
                s.in_step = True
            stack.append(s)
    return spans


def quantile(values, q):
    """Quantile linearly interpolated between the two nearest order
    statistics (0 for an empty sample); q = 0.5 is the median."""
    if not values:
        return 0.0
    v = sorted(values)
    h = q * (len(v) - 1)
    lo = int(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def self_time_table(spans):
    """name -> (count, total ns, self ns) over all threads."""
    table = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = table[s.name]
        row[0] += 1
        row[1] += s.dur
        row[2] += s.self_ns
    return dict(table)


def layer_metrics(spans, meta):
    """The span-derived per-layer metrics.

    meta holds the run's constants: bits_per_element, kv_dim,
    max_batch, ttft_tail_pct and itl_tail_pct (tail percentiles of the
    workload), machine.triad_gbps and machine.fma_gflops (ceilings).
    Returns name -> (value, unit)."""
    steps = [s for s in spans if s.name == "serving.step"]
    main_tid = steps[0].tid if steps else None
    main = [s for s in spans if s.tid == main_tid]
    step_ns = sum(s.dur for s in steps) or 1
    ttft_q = meta["ttft_tail_pct"] / 100.0
    itl_q = meta["itl_tail_pct"] / 100.0
    bpe = meta["bits_per_element"] / 8.0

    layer_ns = defaultdict(int)
    for s in main:
        if s.in_step:
            layer_ns[s.layer or "other"] += s.self_ns

    def durs(name, pool=main):
        return [s.dur * 1e-9 for s in pool if s.name == name]

    submit_end = {}
    admitted = {}
    prefill_rows = resumed_rows = 0
    for s in main:
        if s.name == "bench.submit" and "request" in s.args:
            submit_end[s.args["request"]] = s.end
        elif s.name == "serving.prefill":
            rows = s.args.get("tokens", 0)
            prefill_rows += rows
            if s.args.get("resumed", 0):
                resumed_rows += rows
            else:
                admitted.setdefault(s.args.get("request"), s.start)
    waits = [(admitted[r] - t) * 1e-9 for r, t in submit_end.items()
             if r in admitted]

    batches = [s.args["active"] for s in steps if "active" in s.args]
    stalls = sum(1 for s in steps
                 if s.args.get("waiting", 0) > 0 and
                 s.args.get("active", 0) < meta["max_batch"])

    gemm = {"small": [0.0, 0], "large": [0.0, 0]}
    gemm_flops = gemm_bytes = 0.0
    gemm_ns = 0
    gemm_calls = 0
    for s in main:
        if s.name != "gemm.packed":
            continue
        m, n, k = s.args["m"], s.args["n"], s.args["k"]
        flops = 2.0 * m * n * k
        key = "small" if m <= SMALL_M else "large"
        gemm[key][0] += flops
        gemm[key][1] += s.dur
        gemm_flops += flops
        gemm_bytes += (m * k + n * k) * bpe + 4.0 * m * n
        gemm_ns += s.dur
        gemm_calls += 1

    def gflops(key):
        flops, ns = gemm[key]
        return flops / ns if ns else 0.0

    ctx_rows = [s.args["ctx_len"] for s in spans
                if s.name == "decode.attend.flash"]
    attend_bytes = sum(ctx_rows) * meta["kv_dim"] * 2 * bpe
    attend_ns = sum(s.dur for s in main if s.name == "decode.attend")
    attend_gbps = attend_bytes / attend_ns if attend_ns else 0.0

    triad = meta["machine.triad_gbps"]
    fma = meta["machine.fma_gflops"]
    gemm_rate = gemm_flops / gemm_ns if gemm_ns else 0.0
    gemm_bound = min(fma, triad * gemm_flops / gemm_bytes) \
        if gemm_bytes else fma

    step_d = durs("serving.step")
    pool_d = durs("pool.run", spans)
    quant_d = durs("linear.quantize")
    return {
        "serving.step_p50_s": (quantile(step_d, 0.5), "s"),
        "serving.step_tail_s": (quantile(step_d, itl_q), "s"),
        "serving.queue_wait_p50_s": (quantile(waits, 0.5), "s"),
        "serving.queue_wait_tail_s": (quantile(waits, ttft_q), "s"),
        "serving.batch_mean": (
            sum(batches) / len(batches) if batches else 0.0, "rows"),
        "serving.recompute_frac": (
            resumed_rows / prefill_rows if prefill_rows else 0.0,
            "frac"),
        "serving.admit_stall_steps": (float(stalls), "count"),
        "model.other_share": (layer_ns["other"] / step_ns, "frac"),
        "linear.quantize_share": (layer_ns["quantize"] / step_ns,
                                  "frac"),
        "linear.quantize_p50_s": (quantile(quant_d, 0.5), "s"),
        "linear.quantize_calls": (float(len(quant_d)), "count"),
        "gemm.share": (layer_ns["gemm"] / step_ns, "frac"),
        "gemm.calls": (float(gemm_calls), "count"),
        "gemm.small_m_gflops": (gflops("small"), "GFLOP/s"),
        "gemm.large_m_gflops": (gflops("large"), "GFLOP/s"),
        "gemm.bytes_per_call": (
            gemm_bytes / gemm_calls if gemm_calls else 0.0, "B"),
        "gemm.roofline_frac": (
            gemm_rate / gemm_bound if gemm_bound else 0.0, "frac"),
        "attend.share": (layer_ns["attend"] / step_ns, "frac"),
        "attend.p50_s": (quantile(durs("decode.attend"), 0.5), "s"),
        "attend.context_rows_mean": (
            sum(ctx_rows) / len(ctx_rows) if ctx_rows else 0.0,
            "rows"),
        "attend.gbps": (attend_gbps, "GB/s"),
        "attend.roofline_frac": (
            attend_gbps / triad if triad else 0.0, "frac"),
        "pool.run_calls": (float(len(pool_d)), "count"),
        "pool.run_p50_s": (quantile(pool_d, 0.5), "s"),
    }


def aggregate(path, meta):
    return layer_metrics(nest(load_spans(path)), meta)


def main(argv):
    if len(argv) != 2:
        print("usage: trace_agg.py TRACE.json", file=sys.stderr)
        return 2
    spans = nest(load_spans(argv[1]))
    table = self_time_table(spans)
    total_self = sum(row[2] for row in table.values()) or 1
    print("%-24s %9s %12s %12s %7s" %
          ("span", "count", "total_s", "self_s", "self%"))
    for name, (count, total, self_ns) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        print("%-24s %9d %12.6f %12.6f %6.2f%%" %
              (name, count, total * 1e-9, self_ns * 1e-9,
               100.0 * self_ns / total_self))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
