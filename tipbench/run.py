#!/usr/bin/env python3
"""Seeded tip-decomposition benchmark (closed loop, one client).

    python3 tipbench/run.py --workload hub_fd --seed 1 --seconds 10 --trace 0

Builds the program from source (see build.py), runs one workload in a JVM
with an explicit heap, prints provenance and every metric by name and unit,
and ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run, whose spans are written to
`<build dir>/tipbench/spans/`. Exits non-zero when a job fails, when work
counts do not repeat between jobs, or when a workload leaves its regime.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402  (sibling module; no bytecode cache is written)

WORKLOADS = ("hub_fd", "huc_cd", "flat_v", "dataflow")
HEAP = "3g"
JVM_TIMEOUT_S = 170
# Layer share of the traced job that defines each workload: (layer, minimum).
DOMINANT = {"hub_fd": ("fd", 0.5), "huc_cd": ("cd", 0.5), "flat_v": ("count", 0.3)}

E2E_UNITS = {"decomp_p50_s": "s", "decomp_tail_s": "s", "edges_per_s": "edges/s",
             "setup_s": "s", "alloc_mb": "MB"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with at least ten samples beyond it (nearest rank),
    once there are 40 samples (p75); with fewer, the maximum. Below 40 the
    percentile would sit at or under the median, and switching statistic
    inside the range of job counts the workloads reach would add jumps.
    Returns (value, label)."""
    s = sorted(xs)
    n = len(s)
    if n >= 40:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}, 10 samples beyond"
    return s[-1], f"max of n={n} (fewer than 40 samples)"


def per_input(jobs, key):
    """Mean over inputs of a per-job count that repeats on each input."""
    first = {}
    for j in jobs:
        first.setdefault(j["input"], j["layers"][key])
    return mean(list(first.values()))


def end_to_end(rep):
    # Timings of failed jobs are kept only when no job succeeded.
    jobs = [j for j in rep["jobs"] if j["ok"]] or rep["jobs"]
    times = [j["s"] for j in jobs]
    tail_v, tail_label = tail(times)
    st = rep["setup"]
    metrics = {
        "decomp_p50_s": median(times),
        "decomp_tail_s": tail_v,
        "edges_per_s": sum(rep["edges"][j["input"]] for j in jobs) / rep["loop_s"],
        "setup_s": st["startup_s"] + median(st["gen_s"]) + st["spark_s"] + st["warmup_s"],
        "alloc_mb": median([j["alloc_bytes"] for j in jobs]) / 1e6,
    }
    notes = {"decomp_p50_s": f"n={len(times)}", "decomp_tail_s": tail_label,
             "setup_s": "JVM start to ready: startup {startup_s:.3f} + gen (median of {n}) + spark {spark_s:.3f}"
                        " + warm-up {warmup_s:.3f}".format(n=len(st["gen_s"]), **st),
             "alloc_mb": "median heap bytes allocated per job"}
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(rep):
    nproc = rep["provenance"]["nproc"]
    traced = [j for j in rep["jobs"] if j["traced"] and j["ok"]]
    plain = [j for j in rep["jobs"] if not j["traced"] and j["ok"]]
    spark = [j for j in traced if "spark_s" in j["layers"]]
    local = [j for j in traced if "spark_s" not in j["layers"]]
    local += [{"input": int(l["input"]), "layers": l} for l in rep["local_layers"]]
    LL = [j["layers"] for j in local]
    SL = [j["layers"] for j in spark]
    L = lambda key: [l[key] for l in LL]  # noqa: E731
    S = lambda key: [l[key] for l in SL]  # noqa: E731
    graphs = rep["provenance"]["graphs"]

    m = {}
    m["gen.s"] = (median(rep["setup"]["gen_s"]), "s")
    m["graph.edges"] = (mean(rep["edges"]), "edges")
    m["graph.r"] = (median([g["r"] for g in graphs]), "ratio")

    count_s = median(L("count_s"))
    m["count.s"] = (count_s, "s")
    m["count.wedges"] = (per_input(local, "count_wedges"), "wedges")
    m["count.wedges_per_s"] = (median([l["count_wedges"] / l["count_s"] for l in LL]), "wedges/s")

    cd_peel = median(L("cd_peel_s"))
    rounds = per_input(local, "rounds")
    m["cd.s"] = (median(L("cd_s")), "s")
    m["cd.count_s"] = (median(L("cd_count_s")), "s")
    m["cd.peel_s"] = (cd_peel, "s")
    m["cd.rounds"] = (rounds, "rounds")
    m["cd.huc_triggers"] = (per_input(local, "huc_triggers"), "count")
    m["cd.huc_wedges"] = (per_input(local, "huc_wedges"), "wedges")
    m["cd.peel_wedges"] = (per_input(local, "peel_wedges"), "wedges")
    m["cd.subsets"] = (per_input(local, "subsets"), "count")
    m["cd.s_per_round"] = (cd_peel / rounds if rounds else 0.0, "s")

    fd_s = median(L("fd_s"))
    task_sum = median([r["task_sum_s"] for r in rep["replay"]])
    m["fd.s"] = (fd_s, "s")
    m["fd.wedges"] = (per_input(local, "fd_wedges"), "wedges")
    m["fd.task_max_s"] = (median([r["task_max_s"] for r in rep["replay"]]), "s")
    m["fd.task_sum_s"] = (task_sum, "s")
    m["fd.balance"] = (task_sum / (nproc * fd_s) if fd_s else 0.0, "ratio")

    ref = rep["reference"]
    bup_s = median(ref["bup_s"])
    bup_w = mean(ref["bup_wedges"])
    m["bup.s"] = (bup_s, "s")
    m["bup.wedges"] = (bup_w, "wedges")
    m["bup.wedges_per_s"] = (bup_w / bup_s if bup_s else 0.0, "wedges/s")
    m["wedge_reduction"] = (bup_w / per_input(local, "total_wedges"), "ratio")

    m["spark.count_s"] = (median(S("count_s")), "s")
    m["spark.cd_s"] = (median(S("cd_s")), "s")
    m["spark.fd_s"] = (median(S("fd_s")), "s")
    m["spark.rounds"] = (per_input(spark, "rounds") if spark else 0.0, "rounds")
    m["spark.huc_triggers"] = (per_input(spark, "huc_triggers") if spark else 0.0, "count")
    m["spark.jobs"] = (median(S("jobs")), "count")
    m["spark.stages"] = (median(S("stages")), "count")
    m["spark.tasks"] = (median(S("tasks")), "count")
    m["spark.task_busy_s"] = (median(S("task_busy_s")), "s")
    m["spark.busy_frac"] = (median([l["task_busy_s"] / (nproc * l["spark_s"]) for l in SL]), "ratio")
    m["spark.shuffle_mb"] = (median(S("shuffle_mb")), "MB")
    m["spark.s_per_job"] = (median([l["spark_s"] / l["jobs"] for l in SL if l["jobs"]]), "s")

    decomp = [j["layers"]["decomp_s"] for j in traced]
    m["trace.overhead_frac"] = (median(decomp) / median([j["s"] for j in plain]) - 1, "ratio")

    shares = {"count": median([l["cd_count_s"] / l["decomp_s"] for l in LL]),
              "cd": median([l["cd_peel_s"] / l["decomp_s"] for l in LL]),
              "fd": median([l["fd_s"] / l["decomp_s"] for l in LL])}
    for layer, v in shares.items():
        m[f"{layer}.share"] = (v, "ratio")
    return m, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
    except build.BuildError as e:
        sys.exit(f"tipbench: build failed: {e}")

    out = build.build_dir()
    spans = out / "spans" / f"{a.workload}-seed{a.seed}.jsonl"
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "tmp"))
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *build.jvm_flags(out / "tmp"),
           "-cp", f"{classes}{os.pathsep}{jars}/*", "repro.tipbench.TipBench",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--spans", str(spans)]
    # The JVM is stopped and waited for however this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"tipbench: JVM exceeded {JVM_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [l for l in stdout.splitlines() if l.startswith("TIPBENCH ")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"tipbench: JVM exited with code {proc.returncode} and no report")
    rep = json.loads(lines[-1][len("TIPBENCH "):])

    p = rep["provenance"]
    print(f"tipbench workload={a.workload} seed={a.seed} seconds={a.seconds:g} trace={a.trace}")
    print(f"provenance: nproc={p['nproc']} heap={p['heap']} (max {p['max_heap_mb']} MiB) jdk={p['jdk']!r} "
          f"ReceiptLocal.Config(P={p['P']}, threads={p['receipt_threads']}) spark_master={p['spark_master']} "
          f"session shuffle_partitions={p['shuffle_partitions']} seed={a.seed} inputs={p['inputs']} "
          f"warmup_jobs={p['warmup_jobs']} loop=closed, 1 client")
    for g in p["graphs"]:
        print(f"graph input={g['input']} {g['name']}: |U|={g['nU']} |V|={g['nV']} |E|={g['m']} r={g['r']:.2f}")
    print(f"reference: sequential BUP.run per graph, {rep['reference']['wall_s']:.3f} s wall (not timed)")

    attempted = len(rep["jobs"])
    failed = sum(not j["ok"] for j in rep["jobs"])
    for j in rep["jobs"]:
        if not j["ok"]:
            print(f"FAILED job on input {j['input']}: {j['error']}")
    for mm in rep["count_mismatches"]:
        print(f"FAILED: work counts did not repeat: {mm}")
    correct = failed == 0 and not rep["count_mismatches"]

    if a.trace == 0:
        metrics, notes = end_to_end(rep)
    else:
        metrics, shares = per_layer(rep)
        notes = {}
        with open(spans) as f:
            print(f"spans: {sum(1 for _ in f)} written to {os.path.relpath(spans, build.ROOT)}")
    for k, (v, unit) in metrics.items():
        print(f"{k:24s} {v:.6g} {unit}" + (f"  ({notes[k]})" if k in notes else ""))
    print(f"{'fail_frac':24s} {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs failed)")

    if a.trace == 1 and a.workload in DOMINANT:
        layer, floor = DOMINANT[a.workload]
        if shares[layer] < floor:
            sys.exit(f"tipbench: {a.workload} left its regime: {layer} share {shares[layer]:.3f} < {floor}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
