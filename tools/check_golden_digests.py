#!/usr/bin/env python3
"""Fluid-off golden digest gate.

Runs every scenario cell through corelite_sim WITHOUT --fluid and
compares the result digest against the committed manifest
(tools/golden_digests.json).  The cells are:

  - the paper scenarios fig3/fig5/fig7/fig9 at their default durations;
  - short generated workloads on a parking lot, a fat tree and an ISP
    graph (gen-pl4/gen-ft4/gen-isp16);

  - the two example scenario scripts (examples/scripts/*.cls, run with
    --config) at their own durations;

each under all nine mechanisms, once on the serial engine and once with
--lp 2; plus serial variant cells for the non-default edge adaptation
policies (--adaptation aimd/mimd on fig5/fig9 x corelite/csfq) and
pacing modes (--pacing poisson/onoff on fig5 x corelite).  Every cell
gets its own per-run digest, so a change that moves one wiring path
(one queue discipline, one topology family, the LP partition, one
adaptation policy, the script conversion) names the cell it moved.

Four sweep cells pin the combined digest of the paper matrix (fig3/5/7/9
x all nine mechanisms) run as one `--sweep` grid on four jobs: at --lp 1,
2 and 4, and with two repeats under --fluid.  They cover the sweep
runner, the --lp 4 partition and the fluid jumps, which no per-run cell
does.

The fluid machinery is compiled into the binary but disabled by default;
any digest drift here means fluid-off is no longer bit-identical to the
pure packet engine — the single most important invariant of the hybrid
design.

Digests depend on the scenarios' default seeds and durations and on the
engine's event ordering.  After an INTENTIONAL behaviour change (new
default, scheduler fix, ...) regenerate with --update and commit the new
manifest alongside the change that explains it.

Exit status: 0 = all digests match, 1 = any drift (or missing digest).
"""

import argparse
import json
import re
import subprocess
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "golden_digests.json"
SCRIPTS = Path(__file__).resolve().parent.parent / "examples" / "scripts"

# (cell name, scenario-source CLI args): paper scenarios run their
# default length, generated ones a short window that still covers
# arrivals and churn, scripts the duration they declare.
SCENARIOS = [
    ("fig3", ["--scenario", "fig3"]),
    ("fig5", ["--scenario", "fig5"]),
    ("fig7", ["--scenario", "fig7"]),
    ("fig9", ["--scenario", "fig9"]),
    ("gen-pl4-200", ["--scenario", "gen-pl4-200", "--duration", "20"]),
    ("gen-ft4-200", ["--scenario", "gen-ft4-200", "--duration", "20"]),
    ("gen-isp16-200", ["--scenario", "gen-isp16-200", "--duration", "20"]),
    ("dumbbell.cls", ["--config", str(SCRIPTS / "dumbbell.cls")]),
    ("parking_lot.cls", ["--config", str(SCRIPTS / "parking_lot.cls")]),
]
MECHANISMS = ["corelite", "csfq", "droptail", "red", "fred", "wfq", "ecnbit", "choke", "sfq"]
LPS = [1, 2]

# Serial cells for the edge variants the matrix above never selects: the
# AIMD/MIMD adaptation policies, and the Poisson/on-off pacing gaps (only
# the Corelite edge paces through them).
VARIANTS = [
    *((s, m, "adaptation", a) for a in ("aimd", "mimd") for s in ("fig5", "fig9")
      for m in ("corelite", "csfq")),
    ("fig5", "corelite", "pacing", "poisson"),
    ("fig5", "corelite", "pacing", "onoff"),
]


SWEEP_GRID = ["--jobs", "4", "--sweep-scenarios", "fig3,fig5,fig7,fig9",
              "--sweep-mechanisms", ",".join(MECHANISMS), "--quiet"]
SWEEPS = [
    *((f"sweep/lp{lp}", ["--sweep", "1", "--lp", str(lp)]) for lp in (1, 2, 4)),
    ("sweep/fluid", ["--sweep", "2", "--fluid"]),
]


def cell_key(scenario, mechanism, lp):
    key = f"{scenario}/{mechanism}"
    return key if lp == 1 else f"{key}/lp{lp}"


def cells():
    """(key, corelite_sim arguments) for every pinned cell."""
    for scenario, source in SCENARIOS:
        for mechanism in MECHANISMS:
            for lp in LPS:
                yield (cell_key(scenario, mechanism, lp),
                       [*source, "--mechanism", mechanism, "--lp", str(lp)])
    for scenario, mechanism, option, value in VARIANTS:
        yield (f"{scenario}/{mechanism}/{option}-{value}",
               ["--scenario", scenario, f"--{option}", value,
                "--mechanism", mechanism, "--lp", "1"])
    for key, args in SWEEPS:
        yield key, [*args, *SWEEP_GRID]


def run_digest(binary, key, args, workdir):
    # The digest line only prints under --telemetry; the run manifest it
    # also writes lands in the scratch working directory.
    out = subprocess.run(
        [binary, *args, "--telemetry"],
        check=True, capture_output=True, text=True, cwd=workdir).stdout
    m = re.search(r"result digest: ([0-9a-f]+)", out)
    if not m:
        raise SystemExit(f"{key}: no 'result digest:' line")
    return m.group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="path to the corelite_sim binary")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the manifest with freshly measured digests")
    args = ap.parse_args()
    binary = str(Path(args.binary).resolve())

    manifest = json.loads(MANIFEST.read_text())
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for key, cell_args in cells():
            got = run_digest(binary, key, cell_args, workdir)
            if args.update:
                manifest[key] = got
                print(f"{key:34s} {got}")
                continue
            want = manifest.get(key)
            ok = got == want
            print(f"{key:34s} {got}  {'PASS' if ok else f'FAIL (expected {want})'}")
            failed = failed or not ok

    if args.update:
        MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"updated {MANIFEST}")
        return
    if failed:
        raise SystemExit(1)
    print("golden digests: fluid-off is bit-identical on the full scenario matrix")


if __name__ == "__main__":
    main()
