#!/usr/bin/env python3
"""End-to-end benchmark of the Corelite simulator: the one command.

Builds bench/e2e/corelite_bench against the library, runs every workload
in fresh processes, checks the outputs (pinned digests for the pinned
seed, rep-to-rep agreement otherwise, the fluid fidelity ceiling),
prints every metric by name with its unit and writes a result JSON.

  python3 bench/e2e/run.py                     all workloads, result JSON
  python3 bench/e2e/run.py --trace             ... plus traced reps, trace.json
  python3 bench/e2e/run.py --smoke             harness self-test (< 30 s once built)
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

The last form measures one workload for T seconds and prints, as the
last line of stdout, {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
declared in BENCHMARK.json.  See bench/e2e/README.md.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BIN = BUILD / "corelite_bench"
FLUID = "steady-1k-fluid"
# Fresh-process reps per workload in the all-workload mode.
FULL_REPS = {"gen-100k": 5}
DEFAULT_REPS = 7
# Fewest reps a --seconds measurement takes, however long they run.
MIN_REPS = 3
REP_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build corelite_bench; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT}")
    hook = HERE / "hook.cmake"
    cache = BUILD / "CMakeCache.txt"
    cmds = []
    if not cache.is_file() or f"CMAKE_PROJECT_INCLUDE:UNINITIALIZED={hook}" not in cache.read_text():
        cmds.append(["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_INCLUDE={hook}"])
    cmds.append(["cmake", "--build", str(BUILD), "--target", "corelite_bench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def rep(workload, seed, *flags):
    """One fresh process; its JSON result, or None if it failed to produce one."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [str(BIN), "--workload", workload, "--seed", str(seed), *flags],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return None
    out["elapsed_s"] = time.monotonic() - t0
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Measurement:
    """Every rep of one workload, checked and reduced to metrics."""

    def __init__(self, workload, seed, smoke, pins):
        self.workload, self.seed, self.smoke, self.pins = workload, seed, smoke, pins
        self.reps, self.failed_reps = [], 0
        self.reference = self.traced = None
        self.problems = []

    def add_rep(self, *flags):
        r = rep(self.workload, self.seed, *self.smoke_flag(), *flags)
        if r is None:
            self.failed_reps += 1
        else:
            self.reps.append(r)
        return r

    def smoke_flag(self):
        return ["--smoke"] if self.smoke else []

    def run_reference(self):
        if self.workload == FLUID:
            self.reference = rep(self.workload, self.seed, *self.smoke_flag(), "--reference")
            if self.reference is None:
                self.problems.append("packet reference run failed")

    def run_traced(self):
        self.traced = rep(self.workload, self.seed, *self.smoke_flag(), "--trace")
        if self.traced is None:
            self.problems.append("traced rep failed")

    # -- checks ------------------------------------------------------------

    def expected_digest(self, key):
        if self.smoke or self.seed != self.pins["seed"]:
            return None
        return self.pins["digests"].get(key)

    def fidelity_err(self):
        if self.reference is None or not self.reps:
            return None
        fluid, packet = self.reps[0]["thr"], self.reference["thr"]
        if len(fluid) != len(packet) or sum(packet) <= 0:
            return None
        return sum(abs(f - p) for f, p in zip(fluid, packet)) / sum(packet)

    def tally(self):
        """(correct, attempted, failed) over every run of every process."""
        runs_per_rep = max([r["runs"] for r in self.reps] or [1])
        attempted = runs_per_rep * (len(self.reps) + self.failed_reps)
        failed = runs_per_rep * self.failed_reps
        want = self.expected_digest(self.workload)
        if want is None and self.reps:
            want = self.reps[0]["digest"]
        checked = self.reps + ([self.traced] if self.traced else [])
        for i, r in enumerate(checked):
            if r is self.traced:
                attempted += r["runs"]
            if r["digest"] != want:
                self.problems.append(f"rep {i} digest {r['digest']} != {want}")
                failed += r["runs"]
            else:
                failed += r["runs_failed"]
        if self.reference is not None:
            attempted += 1
            ref_want = self.expected_digest(self.workload + ".reference")
            if ref_want is not None and self.reference["digest"] != ref_want:
                self.problems.append(f"reference digest {self.reference['digest']} != {ref_want}")
                failed += 1
        if self.failed_reps:
            self.problems.append(f"{self.failed_reps} rep process(es) failed")
        if failed:
            self.problems.append(f"{failed} of {attempted} runs failed")
        if self.workload == FLUID and not self.smoke:
            err = self.fidelity_err()
            ceiling = self.pins["fidelity_err_max"]
            if err is None or err > ceiling:
                self.problems.append(f"fidelity_err {err} above the ceiling {ceiling}")
        return not self.problems and bool(self.reps), attempted, failed

    # -- metrics -----------------------------------------------------------

    def e2e(self):
        out = {}
        for name in self.reps[0]["e2e"] if self.reps else []:
            values = [r["e2e"][name] for r in self.reps]
            q1, med, q3 = quartiles(values)
            out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}
        return out

    def layers(self):
        """Medians over the untraced reps; trace-only readings from the traced rep."""
        out = {}
        for name in self.reps[0]["layers"] if self.reps else []:
            out[name] = statistics.median(r["layers"][name] for r in self.reps)
        if self.traced is not None:
            for name, v in self.traced["layers"].items():
                out.setdefault(name, v)
        err = self.fidelity_err()
        out["fluid.fidelity_err"] = err or 0.0
        speedup = 0.0
        if self.reference is not None and self.reps:
            per_run = statistics.median(r["e2e"]["wall_s"] / r["runs"] for r in self.reps)
            speedup = self.reference["e2e"]["wall_s"] / per_run
        out["fluid.speedup_vs_packet"] = speedup
        out["telemetry.trace_overhead"] = (
            self.traced["e2e"]["wall_s"] / statistics.median(r["e2e"]["wall_s"] for r in self.reps)
            if self.traced is not None and self.reps else 0.0)
        return out


def declared(spec, kind):
    return {m["name"]: m for m in spec[kind]}


def metric_line(name, value, unit):
    return f"  {name:<36} {value:>14.6g} {unit}"


def chrome_trace(measurements):
    """Chrome-trace events for every traced rep, one pid per workload."""
    events = []
    for pid, m in enumerate(measurements, start=1):
        if m.traced is None:
            continue
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": m.workload}})
        for i, (name, start, end, parent, run, tid) in enumerate(m.traced["spans"]):
            events.append({"name": name, "ph": "X", "ts": start, "dur": end - start, "pid": pid,
                           "tid": tid, "args": {"id": i, "parent": parent, "run": run}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans):
    """Self time per span name: duration minus the union of its children."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    totals = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered, cur = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, [])):
            lo, hi = max(lo, cur), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cur = hi
        tot = totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += end - start
        tot[2] += end - start - covered
    return totals


def print_trace_table(m):
    print(f"\n[{m.workload}] spans (ms): name, count, total, self")
    for name, (n, total, own) in sorted(self_times(m.traced["spans"]).items(),
                                        key=lambda kv: -kv[1][2]):
        print(f"  {name:<36} {n:>5} {total / 1000:>12.3f} {own / 1000:>12.3f}")


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": f"{compiler}: {version}",
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"), "git_sha": sha,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


HOST_KEYS = ("cpu", "nproc", "compiler", "build_type")


# ---------------------------------------------------------------------------
# Modes.

def measure_one(args, spec, pins):
    """The --workload form: reps for --seconds, then one traced rep if asked."""
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()
    m = Measurement(args.workload, args.seed, args.smoke, pins)
    m.run_reference()
    start = time.monotonic()
    while True:
        m.add_rep()
        elapsed = time.monotonic() - start
        typical = statistics.median(r["elapsed_s"] for r in m.reps) if m.reps else 0.0
        done = len(m.reps) + m.failed_reps
        if done >= MIN_REPS and elapsed + typical > args.seconds:
            break
        if m.failed_reps > MIN_REPS:
            break
    if args.trace:
        m.run_traced()
    correct, attempted, failed = m.tally()
    for p in m.problems:
        print(f"run.py: {args.workload}: {p}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    values = ({k: v["median"] for k, v in m.e2e().items()} if not args.trace else m.layers())
    metrics = {}
    for name, d in declared(spec, kind).items():
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": d["unit"]}
        print(metric_line(name, values[name], d["unit"]))
    if args.trace and m.traced is not None:
        (BUILD / "trace.json").write_text(json.dumps(chrome_trace([m])))
        print_trace_table(m)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def measure_all(args, spec, pins):
    """All workloads; each rep runs them in an order rotated from the last."""
    build()
    names = [w["name"] for w in spec["workloads"]]
    ms = {n: Measurement(n, args.seed, args.smoke, pins) for n in names}
    want = {n: 1 if args.smoke else FULL_REPS.get(n, DEFAULT_REPS) for n in names}
    for m in ms.values():
        m.run_reference()
    for r in range(max(want.values())):
        for n in names[r % len(names):] + names[:r % len(names)]:
            if len(ms[n].reps) + ms[n].failed_reps < want[n]:
                print(f"rep {r}: {n}", file=sys.stderr)
                ms[n].add_rep()
    if args.trace or args.smoke:
        for m in ms.values():
            m.run_traced()

    e2e_decl, layer_decl = declared(spec, "end_to_end"), declared(spec, "per_layer")
    result = {"fingerprint": fingerprint(), "seed": args.seed, "smoke": args.smoke,
              "workloads": {}, "summary": {}}
    all_correct = True
    for n, m in ms.items():
        correct, attempted, failed = m.tally()
        all_correct &= correct
        e2e = m.e2e()
        print(f"\n[{n}] correct={correct} attempted={attempted} failed={failed} "
              f"digest={m.reps[0]['digest'] if m.reps else '-'}")
        for p in m.problems:
            print(f"  problem: {p}")
        for name, d in e2e_decl.items():
            if name in e2e:
                s = e2e[name]
                print(f"  {name:<36} {s['median']:>14.6g} {d['unit']:<5} "
                      f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")
                s["unit"] = d["unit"]
        entry = {"correct": correct, "attempted": attempted, "failed": failed,
                 "digest": m.reps[0]["digest"] if m.reps else None,
                 "problems": m.problems, "e2e": e2e}
        if m.traced is not None:
            layers = m.layers()
            entry["layers"] = {k: {"value": layers.get(k), "unit": d["unit"]}
                               for k, d in layer_decl.items()}
        result["workloads"][n] = entry

    walls = {n: e["e2e"]["wall_s"]["median"] for n, e in result["workloads"].items()
             if "wall_s" in e["e2e"]}
    if "gen-100k" in walls and "gen-100k-lp4" in walls:
        result["summary"]["lp.speedup_vs_serial"] = walls["gen-100k"] / walls["gen-100k-lp4"]
    for k, v in result["summary"].items():
        print(f"\n{k} = {v:.4g}")

    traced = [m for m in ms.values() if m.traced is not None]
    if traced:
        print("\nper-layer metrics (traced reps; counters from the untraced reps):")
        print(f"  {'metric':<36} " + " ".join(f"{n:>16}" for n in names) + "  unit")
        for k, d in layer_decl.items():
            row = [result["workloads"][n].get("layers", {}).get(k, {}).get("value") for n in names]
            print(f"  {k:<36} " + " ".join("-".rjust(16) if v is None else f"{v:>16.6g}"
                                           for v in row) + f"  {d['unit']}")
        for m in traced:
            print_trace_table(m)
        (BUILD / "trace.json").write_text(json.dumps(chrome_trace(traced)))
        print(f"\ntrace written to {BUILD / 'trace.json'}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"result written to {out}")

    if args.smoke:
        check_smoke(out, spec)
    if not all_correct:
        fail("outputs are not correct", 1)


def check_smoke(out, spec):
    """Every declared metric appears with its unit and the result JSON parses."""
    result = load_json(out)
    missing = []
    for n, entry in result["workloads"].items():
        for name, d in declared(spec, "end_to_end").items():
            if entry["e2e"].get(name, {}).get("unit") != d["unit"]:
                missing.append(f"{n}/{name}")
        for name, d in declared(spec, "per_layer").items():
            v = entry.get("layers", {}).get(name, {})
            if v.get("unit") != d["unit"] or not isinstance(v.get("value"), (int, float)):
                missing.append(f"{n}/{name}")
    if missing:
        fail("smoke: metrics missing or without unit: " + ", ".join(missing), 1)
    print("smoke: every declared metric printed with its unit; result JSON parses")


def verdict(parent, change, bound, better):
    """better / worse / within bound / unresolved, by choosing-metrics §6-8."""
    sign = 1.0 if better == "lower" else -1.0
    pm = statistics.median(parent)
    cm = statistics.median(change)
    if pm == 0:
        return "unresolved"
    worse_by = sign * (cm - pm) / pm
    p1, _, p3 = quartiles(parent)
    c1, _, c3 = quartiles(change)
    spread = max(p3 - p1, c3 - c1) / abs(pm)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if -worse_by > (p3 - p1) / abs(pm) and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def compare(args, spec):
    parent, change = load_json(args.compare[0]), load_json(args.compare[1])
    fa, fb = parent["fingerprint"], change["fingerprint"]
    differ = [k for k in HOST_KEYS if fa.get(k) != fb.get(k)]
    if differ:
        fail("refusing to compare results from different hosts or builds: "
             + ", ".join(f"{k}: {fa.get(k)!r} vs {fb.get(k)!r}" for k in differ))
    print(f"parent {fa['git_sha'][:12]} ({fa['date']})  change {fb['git_sha'][:12]} ({fb['date']})")
    print(f"  {'workload':<16} {'metric':<12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    for w in spec["workloads"]:
        n = w["name"]
        a = parent["workloads"].get(n, {}).get("e2e", {})
        b = change["workloads"].get(n, {}).get("e2e", {})
        for d in spec["end_to_end"]:
            k = d["name"]
            if k not in a or k not in b:
                continue
            v = verdict(a[k]["values"], b[k]["values"], d["bound"], d["better"])
            fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {d['unit']}"
            print(f"  {n:<16} {k:<12} {fmt(a[k]):>34} {fmt(b[k]):>34}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure one workload for --seconds")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="also run traced reps (per-layer metrics, trace.json)")
    ap.add_argument("--smoke", action="store_true", help="1 rep of shortened inputs, self-test")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--out", default=str(BUILD / "result.json"))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_json(ROOT / "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        compare(args, spec)
        return
    pins = load_json(HERE / "pins.json")
    if args.workload:
        measure_one(args, spec, pins)
    else:
        measure_all(args, spec, pins)


if __name__ == "__main__":
    main()
