#!/usr/bin/env python3
"""Validate telemetry output: a Chrome trace file, a run manifest,
and/or a fairness-audit document.

CI runs this after a tiny sweep with --telemetry --trace-out:

    python3 tools/check_telemetry.py --trace trace.json \
        --manifest run_manifest.json --stdout captured_output.txt

and after each audited golden-matrix run:

    python3 tools/check_telemetry.py --audit fairness_audit.json \
        --expect-watchdog silent

Checks:
  - the trace is valid JSON in the trace_event format: a traceEvents
    list with metadata (ph "M") naming the tracks, and at least one
    complete span (ph "X") in EACH clock domain — pid 1 (virtual time)
    and pid 2 (sweep wall-clock);
  - the manifest carries every required key, its digest is 16 lowercase
    hex digits, and the build/phase sub-objects are well-formed;
  - with --stdout, the manifest digest equals the "result digest: X"
    line the binary printed (manifest-vs-output cross-check);
  - the audit document follows schema "corelite-audit-v1": fairness
    windows with consistent per-flow samples and gauge vectors, a
    flight-recorder dump if (and only if) the watchdog fired, and
    well-formed optional engine / fluid_cert sections;
  - with --expect-watchdog fired|silent, the audit's watchdog state
    must match (the CI fairness gates).

Exits non-zero with a message per failed check; prints a one-line
summary on success.  Stdlib only.
"""

import argparse
import json
import re
import sys

DIGEST_RE = re.compile(r"^[0-9a-f]{16}$")
STDOUT_DIGEST_RE = re.compile(r"result digest: ([0-9a-f]{16})")

MANIFEST_REQUIRED = {
    "tool": str,
    "scenario": str,
    "mechanism": str,
    "base_seed": int,
    "runs": int,
    "jobs": int,
    "events": int,
    "result_digest": str,
    "build": dict,
    "wall_phases_ms": dict,
    "hot_path_counters": dict,
    "metrics": list,
    "extra": dict,
}
BUILD_REQUIRED = ("git_sha", "compiler", "flags", "build_type")
HOTPATH_REQUIRED = (
    "exp_calls",
    "pow_calls",
    "rng_draws",
    "observer_dispatches",
    "series_appends",
    "drops_admission",
    "drops_control_loss",
    "drops_queue_full",
    "drops_queue_internal",
    "markers_seen",
    "feedback_sent",
    "csfq_relabels",
    "audit_windows",
    "audit_violations",
    "audit_watchdog_fired",
)

VIRTUAL_PID = 1
WALL_PID = 2


class CheckError(Exception):
    pass


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise CheckError(f"{what}: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckError(f"{what}: {path} is not valid JSON: {e}") from e


def check_trace(path):
    doc = load_json(path, "trace")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise CheckError("trace: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise CheckError("trace: traceEvents is empty")

    spans_by_pid = {VIRTUAL_PID: 0, WALL_PID: 0}
    metadata = 0
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise CheckError(f"trace: event {i} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in e:
                raise CheckError(f"trace: event {i} lacks {key!r}")
        ph = e["ph"]
        if ph == "M":
            metadata += 1
        elif ph == "X":
            if "ts" not in e or "dur" not in e:
                raise CheckError(f"trace: X event {i} lacks ts/dur")
            if e["pid"] in spans_by_pid:
                spans_by_pid[e["pid"]] += 1

    if metadata == 0:
        raise CheckError("trace: no metadata (ph M) events — tracks are unnamed")
    if spans_by_pid[VIRTUAL_PID] == 0:
        raise CheckError("trace: no complete spans on pid 1 (virtual time)")
    if spans_by_pid[WALL_PID] == 0:
        raise CheckError("trace: no complete spans on pid 2 (sweep wall-clock)")
    return len(events), spans_by_pid


def check_manifest(path):
    doc = load_json(path, "manifest")
    if not isinstance(doc, dict):
        raise CheckError("manifest: top level is not an object")
    for key, typ in MANIFEST_REQUIRED.items():
        if key not in doc:
            raise CheckError(f"manifest: missing key {key!r}")
        if not isinstance(doc[key], typ):
            raise CheckError(
                f"manifest: {key!r} should be {typ.__name__}, "
                f"got {type(doc[key]).__name__}"
            )
    if not DIGEST_RE.match(doc["result_digest"]):
        raise CheckError(
            f"manifest: result_digest {doc['result_digest']!r} is not "
            "16 lowercase hex digits"
        )
    for key in BUILD_REQUIRED:
        if not doc["build"].get(key):
            raise CheckError(f"manifest: build.{key} missing or empty")
    for key in HOTPATH_REQUIRED:
        if key not in doc["hot_path_counters"]:
            raise CheckError(f"manifest: hot_path_counters.{key} missing")
    for name, ms in doc["wall_phases_ms"].items():
        if not isinstance(ms, (int, float)) or ms < 0:
            raise CheckError(f"manifest: phase {name!r} has bad duration {ms!r}")
    for i, m in enumerate(doc["metrics"]):
        for key in ("name", "kind", "count", "sum"):
            if key not in m:
                raise CheckError(f"manifest: metrics[{i}] lacks {key!r}")
    return doc


AUDIT_FAIRNESS_REQUIRED = {
    "window_sec": (int, float),
    "band": (int, float),
    "watchdog_windows": int,
    "grace_windows": int,
    "rate_floor_pps": (int, float),
    "watchdog_enabled": bool,
    "watchdog_fired": bool,
    "min_jain": (int, float),
    "worst_deviation": (int, float),
    "gauge_names": list,
    "windows": list,
    "flight_recorder": list,
}
AUDIT_FLOW_REQUIRED = (
    "id", "weight", "rate_pps", "sent_pps", "normalized", "oracle_pps",
    "fair_share_pps", "deviation", "overage", "active", "measurable",
)
AUDIT_WINDOW_REQUIRED = (
    "index", "t0_sec", "t1_sec", "jain", "max_abs_deviation", "violations",
    "boundary", "spans_jump", "violating", "flows", "gauges",
)


def check_audit_windows(windows, gauge_count, what):
    last_index = -1
    for w in windows:
        for key in AUDIT_WINDOW_REQUIRED:
            if key not in w:
                raise CheckError(f"audit: {what} window lacks {key!r}")
        if w["index"] <= last_index:
            raise CheckError(f"audit: {what} window indices not increasing")
        last_index = w["index"]
        if w["t1_sec"] <= w["t0_sec"]:
            raise CheckError(f"audit: {what} window {w['index']} has t1 <= t0")
        if not 0.0 <= w["jain"] <= 1.0 + 1e-9:
            raise CheckError(f"audit: {what} window {w['index']} Jain out of [0,1]")
        if len(w["gauges"]) != gauge_count:
            raise CheckError(
                f"audit: {what} window {w['index']} has {len(w['gauges'])} "
                f"gauge values for {gauge_count} gauge names"
            )
        for s in w["flows"]:
            for key in AUDIT_FLOW_REQUIRED:
                if key not in s:
                    raise CheckError(
                        f"audit: {what} window {w['index']} flow sample lacks {key!r}"
                    )


def check_audit(path, expect_watchdog=None):
    doc = load_json(path, "audit")
    schema = doc.get("audit_schema")
    if schema != "corelite-audit-v1":
        raise CheckError(f"audit: unexpected audit_schema {schema!r}")
    for key, typ in (("scenario", str), ("mechanism", str), ("seed", int)):
        if not isinstance(doc.get(key), typ):
            raise CheckError(f"audit: missing or mistyped {key!r}")

    fairness = doc.get("fairness")
    fired = False
    windows = 0
    if fairness is not None:
        for key, typ in AUDIT_FAIRNESS_REQUIRED.items():
            if key not in fairness:
                raise CheckError(f"audit: fairness lacks {key!r}")
            if not isinstance(fairness[key], typ):
                raise CheckError(f"audit: fairness.{key} mistyped")
        gauges = len(fairness["gauge_names"])
        check_audit_windows(fairness["windows"], gauges, "fairness")
        check_audit_windows(fairness["flight_recorder"], gauges, "flight-recorder")
        fired = fairness["watchdog_fired"]
        windows = len(fairness["windows"])
        if fired and not fairness["flight_recorder"]:
            raise CheckError("audit: watchdog fired but the flight recorder is empty")
        if not fired and fairness["flight_recorder"]:
            raise CheckError("audit: flight recorder dumped without a watchdog trip")

    engine = doc.get("engine")
    if engine is not None:
        for key in ("lp_count", "threads", "runs", "lps", "workers"):
            if key not in engine:
                raise CheckError(f"audit: engine lacks {key!r}")
        if len(engine["lps"]) != engine["lp_count"]:
            raise CheckError("audit: engine.lps length != lp_count")
        for lp in engine["lps"]:
            for key in ("lp", "windows", "events", "run_ms", "drains", "msgs_in"):
                if key not in lp:
                    raise CheckError(f"audit: engine lp entry lacks {key!r}")

    fluid_cert = doc.get("fluid_cert")
    if fluid_cert is not None:
        for key in ("attempts", "reject_min_skip", "reject_drift",
                    "reject_agreement", "accepts", "events"):
            if key not in fluid_cert:
                raise CheckError(f"audit: fluid_cert lacks {key!r}")
        gates = (fluid_cert["reject_min_skip"] + fluid_cert["reject_drift"]
                 + fluid_cert["reject_agreement"] + fluid_cert["accepts"])
        if gates > fluid_cert["attempts"]:
            raise CheckError("audit: fluid_cert gate outcomes exceed attempts")

    if expect_watchdog and fairness is None:
        raise CheckError(
            "audit: --expect-watchdog given but the document has no "
            "fairness section (was the auditor skipped?)"
        )
    if expect_watchdog == "fired" and not fired:
        raise CheckError("audit: expected the watchdog to fire, but it stayed silent")
    if expect_watchdog == "silent" and fired:
        raise CheckError("audit: expected a silent watchdog, but it FIRED")
    return doc, fired, windows


def check_stdout(path, manifest):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise CheckError(f"stdout: cannot read {path}: {e}") from e
    match = STDOUT_DIGEST_RE.search(text)
    if not match:
        raise CheckError("stdout: no 'result digest: <16 hex>' line found")
    if match.group(1) != manifest["result_digest"]:
        raise CheckError(
            f"digest mismatch: stdout printed {match.group(1)} but the "
            f"manifest recorded {manifest['result_digest']}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="Chrome trace JSON to validate")
    parser.add_argument("--manifest", help="run_manifest.json to validate")
    parser.add_argument(
        "--stdout",
        help="captured binary output; its printed digest must match the manifest",
    )
    parser.add_argument(
        "--audit",
        help="fairness-audit JSON (schema corelite-audit-v1) to validate",
    )
    parser.add_argument(
        "--expect-watchdog",
        choices=("fired", "silent"),
        help="assert the audit's watchdog state (requires --audit)",
    )
    args = parser.parse_args()
    if not args.trace and not args.manifest and not args.audit:
        parser.error("nothing to check: pass --trace, --manifest and/or --audit")
    if args.stdout and not args.manifest:
        parser.error("--stdout requires --manifest (it cross-checks the digest)")
    if args.expect_watchdog and not args.audit:
        parser.error("--expect-watchdog requires --audit")

    try:
        parts = []
        if args.trace:
            count, spans = check_trace(args.trace)
            parts.append(
                f"trace ok ({count} events, {spans[VIRTUAL_PID]} virtual / "
                f"{spans[WALL_PID]} wall spans)"
            )
        if args.manifest:
            manifest = check_manifest(args.manifest)
            parts.append(
                f"manifest ok (tool={manifest['tool']}, runs={manifest['runs']}, "
                f"digest={manifest['result_digest']})"
            )
            if args.stdout:
                check_stdout(args.stdout, manifest)
                parts.append("stdout digest matches")
        if args.audit:
            doc, fired, windows = check_audit(args.audit, args.expect_watchdog)
            parts.append(
                f"audit ok ({doc['scenario']}/{doc['mechanism']}, "
                f"{windows} windows, watchdog "
                + ("FIRED" if fired else "silent")
                + ")"
            )
    except CheckError as e:
        print(f"check_telemetry: FAIL: {e}", file=sys.stderr)
        return 1
    print("check_telemetry: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
