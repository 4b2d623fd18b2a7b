#!/usr/bin/env python3
"""One benchmark for the simulator and the codec.

Usage, from the repository root:

    python3 perfbench/run.py --workload ycsb-paper|scale-chain|codec \\
        --seed N --seconds S --trace 0|1 [--short]

The first run builds two trees under .bench_build/perfbench/: the
measured binary and a layer-traced copy of the same sources (see
CMakeLists.txt). Build output goes to stderr.

--trace 0 runs the workload in the measured binary and reports the
end-to-end metrics; --trace 1 reports the per-layer metrics: counts
from each run's metrics snapshot and self time per layer from a
separate traced run. Both print a human-readable report, then, as
the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when a
correctness check fails or the build does not succeed.

--short shrinks every workload for perfbench/test_perfbench.py.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ycsb-paper", "scale-chain", "codec")

# Source file (below src/) -> layer, first match wins. Files no rule
# claims (src/runtime, src/fault, src/analysis) count as "runtime";
# src/util and headers are not instrumented and count toward their
# caller.
LAYER_RULES = [
    (r"sim/flow_network\.cc$", "sim.solver"),
    (r"sim/simulator\.cc$", "sim.events"),
    (r"repair/(executor|dag_bridge)\.cc$|dag/", "repair.exec"),
    (r"repair/", "repair.sched"),
    (r"cluster/", "cluster.table"),
    (r"traffic/", "traffic"),
    (r"(ec|gf)/", "ec.repair"),
    (r"telemetry/", "telemetry"),
]
SIM_LAYERS = ["sim.solver", "sim.events", "repair.exec", "repair.sched",
              "cluster.table", "traffic", "ec.repair", "telemetry",
              "runtime"]


def build(variant):
    """Configures (once) and builds one tree; returns the binary."""
    bdir = os.path.join(BUILD, variant)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DPERFBENCH_TRACED=" + ("ON" if variant == "traced"
                                        else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def layer_map(exe):
    """Writes (when stale) the function -> layer map of the traced
    binary, from the source file `nm -l` reports per symbol."""
    path = exe + ".layers"
    if (os.path.exists(path)
            and os.path.getmtime(path) >= os.path.getmtime(exe)):
        return path
    out = subprocess.run(["nm", "-l", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    lines, anchor = [], None
    for line in out.splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[1] not in "tTwW":
            continue
        if parts[2] == "__cyg_profile_func_enter":
            anchor = parts[0]
        m = re.search(r"/src/([a-z_]+/\w+\.cc):\d+$", line)
        if not m:
            continue
        for pattern, layer in LAYER_RULES:
            if re.search(pattern, m.group(1)):
                lines.append("%s %s" % (parts[0], layer))
                break
    if anchor is None:
        sys.exit("perfbench: traced binary has no enter hook")
    with open(path + ".tmp", "w") as f:
        f.write("anchor %s\n%s\n" % (anchor, "\n".join(lines)))
    os.replace(path + ".tmp", path)
    return path


def run_binary(exe, args):
    """Runs the perfbench binary; returns (exit code, records)."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          text=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return proc.returncode, records


def kind(records, name):
    return [r for r in records if r["kind"] == name]


def median(values):
    return statistics.median(values) if values else 0.0


def codec_rates(passes):
    """Per-pass GB/s of each codec operation, over both codes."""
    def rate(p, num, den):
        t = sum(c[den] for c in p["codes"])
        return sum(c[num] for c in p["codes"]) / t / 1e9 if t else 0.0
    return {
        "encode": [rate(p, "encoded_bytes", "encode_s") for p in passes],
        "repair": [rate(p, "repaired_bytes", "repair_s") for p in passes],
        "plan_eval": [rate(p, "repaired_bytes", "plan_eval_s")
                      for p in passes],
    }


def fastest_segments(passes):
    """Host seconds of one pass with each segment (a cell's stretch
    between two timeline samples, the same work in every pass) taken
    at its fastest over the passes. Bursts of contention from other
    tenants of the host rarely hit the same segment in every pass."""
    total = 0.0
    for c in range(len(passes[0]["cells"])):
        segs = [p["cells"][c]["segments"] for p in passes]
        total += sum(min(column) for column in zip(*segs))
    return total


def end_to_end(workload, records):
    """The end-to-end metrics (BENCHMARK.json) plus the report lines
    naming every workload-specific result."""
    setups = [r["seconds"] for r in kind(records, "setup")]
    passes = kind(records, "pass")
    end = kind(records, "end")[-1]
    if workload == "codec":
        wall = median([p["wall_s"] for p in passes])
        how = "median of %d passes" % len(passes)
    else:
        wall = fastest_segments(passes)
        how = "fastest of %d passes per segment" % len(passes)
    metrics = {
        "setup_s": (median(setups), "s", "median of %d" % len(setups)),
        "wall_s": (wall, "s", how),
        "events_per_s": (passes[0]["events"] / wall, "1/s",
                         "simulator events" if workload != "codec"
                         else "codec calls"),
        "peak_rss_mb": (end["peak_rss_mb"], "MB", "VmHWM"),
    }
    detail = []
    if workload == "codec":
        rates = codec_rates(passes)
        metrics["repair_mbps"] = (median(rates["repair"]) * 1e3, "MB/s",
                                  "host repairCompute, repaired bytes")
        for op in ("encode", "repair", "plan_eval"):
            detail.append(("codec_%s_gbps" % op, median(rates[op]),
                           "GB/s", "median of %d passes" % len(passes)))
        for i, code in enumerate(passes[0]["codes"]):
            one = codec_rates([{"codes": [p["codes"][i]]} for p in passes])
            for op in ("encode", "repair", "plan_eval"):
                detail.append(("codec_%s_gbps.%s" % (op, code["spec"]),
                               median(one[op]), "GB/s", ""))
    else:
        cells = passes[0]["cells"]
        metrics["repair_mbps"] = (cells[0]["repair_mbps"], "MB/s",
                                  "simulated, cell " + cells[0]["name"])
        for c in cells:
            detail.append(("sim_repair_mbps.%s" % c["name"],
                           c["repair_mbps"], "MB/s",
                           "%d chunks" % c["repaired"]))
            if c["fg_samples"]:
                for q in ("p50", "p99"):
                    detail.append(("sim_fg_%s_ms.%s" % (q, c["name"]),
                                   c["fg_%s_ms" % q], "ms",
                                   "%d requests" % c["fg_samples"]))
            detail.append(("fingerprint.%s" % c["name"],
                           c["fingerprint"], "", ""))
    return metrics, detail


def counters_of(cells):
    total = {}
    for c in cells:
        for name, v in c["counters"].items():
            total[name] = total.get(name, 0.0) + v
    return total


def per_layer(workload, traced, untraced):
    """The per-layer metrics; `traced` and `untraced` are the record
    streams of the traced run and of the measured run it is compared
    against."""
    m = {}
    tpass = kind(traced, "pass")
    upass = kind(untraced, "pass")
    if workload == "codec":
        n = len(tpass)
        ops = {"ec.encode": "encode_s", "ec.repair": "repair_s",
               "repair.plan_eval": "plan_eval_s"}
        wall = sum(p["wall_s"] for p in tpass) / n
        for layer in SIM_LAYERS + list(ops):
            m[layer + ".self_s"] = 0.0
        for layer, key in ops.items():
            m[layer + ".self_s"] = sum(c[key] for p in tpass
                                       for c in p["codes"]) / n
        m["runtime.self_s"] = wall - sum(m[l + ".self_s"] for l in ops)
        m["gf.bytes.muladd_multi"] = tpass[0]["gf_muladd_multi_bytes"]
        # The codec's spans are the benchmark's own clock reads around
        # each call, in every run: its traced run is its measured run.
        m["trace_overhead_frac"] = 0.0
        m["trace_coverage_frac"] = 1.0
        counters = {}
    else:
        layers = kind(traced, "layers")[-1]
        # A layer's share of the samples taken outside the hooks,
        # applied to the untraced pass: the hooks' own time and the
        # slower instrumented code are left out.
        samples = layers["samples"]
        in_layers = sum(samples.values())
        for layer in SIM_LAYERS:
            m[layer + ".self_s"] = (samples.get(layer, 0) / in_layers *
                                    upass[0]["wall_s"])
        m["ec.encode.self_s"] = 0.0
        m["repair.plan_eval.self_s"] = 0.0
        m["gf.bytes.muladd_multi"] = 0.0
        m["trace_overhead_frac"] = (tpass[0]["wall_s"] /
                                    upass[0]["wall_s"] - 1.0)
        m["trace_coverage_frac"] = ((in_layers + layers["hook_samples"]) *
                                    layers["period_s"] / layers["wall_s"])
        counters = counters_of(tpass[0]["cells"])
    c = lambda name: counters.get(name, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    m.update({
        "sim.solver.recomputes": c("sim.rate_recomputes"),
        "sim.solver.flow_visits_per_recompute":
            ratio(c("sim.rate_recompute_flow_visits"),
                  c("sim.rate_recomputes")),
        "sim.solver.resource_visits_per_recompute":
            ratio(c("sim.solver.dirty_resource_visits"),
                  c("sim.rate_recomputes")),
        "sim.events.executed": c("sim.events_executed"),
        "sim.flows.started": c("sim.flows.started"),
        "cluster.scanner.stripes_scanned": c("scanner.stripes_scanned"),
        "cluster.queue.scan_steps": c("repair.queue.scan_steps"),
        "cluster.queue.memo_skips": c("repair.queue.memo_skips"),
        "cluster.queue.admitted": c("repair.queue.admitted"),
        "cluster.queue.admit_ratio": ratio(c("repair.queue.admitted"),
                                           c("repair.queue.scan_steps")),
    })
    for name in ("repair.exec.slices", "repair.exec.dag.slices",
                 "repair.exec.combined_slices", "repair.exec.aborts",
                 "repair.chameleon.dispatches", "repair.chameleon.checks",
                 "repair.chameleon.stragglers", "repair.chameleon.retunes",
                 "repair.chameleon.reorders", "monitor.samples",
                 "traffic.requests"):
        m[name] = c(name)
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_per_recompute")):
        return "ratio"
    if name.startswith("gf.bytes."):
        return "B"
    return "count"


def fingerprints(records):
    return [c["fingerprint"] for p in kind(records, "pass")[:1]
            for c in p.get("cells", [])]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    release = build("release")
    traced_exe = build("traced")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--short"]
                                               if args.short else [])
    sim = args.workload != "codec"
    one_pass = ["--passes", "1"] if sim else []
    rc, records = run_binary(release, base + (one_pass if args.trace
                                              else []))
    if not kind(records, "end"):
        sys.exit("perfbench: the benchmark binary failed (exit %d)" % rc)
    meta = kind(records, "meta")[0]
    end = kind(records, "end")[-1]
    attempted, failed = end["attempted"], end["failed"]

    print("perfbench %s seed %d%s: %s, %s, %d cpus, gf kernel %s" % (
        args.workload, args.seed, " (short)" if args.short else "",
        meta["build_type"], meta["compiler"], meta["nproc"],
        meta["gf_kernel"]))
    if args.trace == 0:
        metrics, detail = end_to_end(args.workload, records)
        for name, (value, unit, note) in metrics.items():
            print("  %-34s %14.6g %-5s %s" % (name, value, unit, note))
        for name, value, unit, note in detail:
            shown = value if isinstance(value, str) else "%14.6g" % value
            print("  %-34s %14s %-5s %s" % (name, shown, unit, note))
        out = {k: {"value": v, "unit": u} for k, (v, u, _) in
               metrics.items()}
    else:
        traced = records
        if sim:
            trc, traced = run_binary(traced_exe, base + one_pass + [
                "--layer-map", layer_map(traced_exe)])
            if not kind(traced, "end"):
                sys.exit("perfbench: the traced binary failed (exit %d)"
                         % trc)
            tend = kind(traced, "end")[-1]
            # The instrumented build must simulate identically.
            same = fingerprints(traced) == fingerprints(records)
            attempted += tend["attempted"] + 1
            failed += tend["failed"] + (0 if same else 1)
            rc = rc or trc
        values = per_layer(args.workload, traced, records)
        for name, value in values.items():
            print("  %-44s %14.6g %s" % (name, value, unit_of(name)))
        out = {k: {"value": v, "unit": unit_of(k)}
               for k, v in values.items()}
    print("  %-34s %14.6g ratio  %d of %d checks failed" % (
        "failed_frac", failed / attempted if attempted else 1.0, failed,
        attempted))
    correct = failed == 0 and rc == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
