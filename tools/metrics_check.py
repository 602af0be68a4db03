#!/usr/bin/env python3
"""Offline validator for quamax's windowed-metrics JSON (obs v2).

Usage:
    metrics_check.py METRICS.json
    metrics_check.py --emit BINARY [ARG...]

The first form validates a metrics file written by
`serve::ObsSession` (the `--metrics FILE` / `QUAMAX_METRICS` knob of
the serving binaries, JSON flavor).  The second form runs BINARY with
QUAMAX_METRICS pointed at a temp file, then validates what it wrote —
this is the `metrics_roundtrip` CTest, so a change to the windowed
collector that breaks the accounting invariants fails the suite offline.

Checks, in order:

  1. the file is valid JSON with schema "quamax-metrics-v1", and the
     header counts (num_windows, num_devices) match the arrays;
  2. windows tile the timeline exactly: window i spans
     [i*window_us, (i+1)*window_us) with no gap or overlap (adjacent
     bounds are the SAME %.17g double, not merely close), the first
     window starts at 0 and the last covers the horizon;
  3. per-window counts conserve to the run totals: every counter column
     (submitted, completed, fallbacks, dropped, failed, retries, missed,
     resolved, waves, failed_waves, bits) and the latency-sketch sample
     count sum window-wise to the totals block, exactly — they are
     integers, so no tolerance;
  4. the queue is conserved: per-window queue_depth is never negative
     and the final window drains to zero, and submitted jobs resolve to
     exactly completed + fallbacks + dropped;
  5. per-device time tiles the horizon: program + anneal + readout +
     aborted + outage + idle sums to horizon_us for every device, and
     busy_us is exactly the first four — nothing double-counted, nothing
     unattributed;
  6. energy/busy conservation: the sum of per-device attributed busy
     time equals the totals' wave_busy_us (the straight sum of traced
     wave extents, computed independently by the collector), per-window
     busy and energy sum to the same, per-device energy sums to the run
     total, and joules_per_bit is energy / bits;
  7. SLO reports are coherent: each alert's window index is in range,
     its interval matches that window's bounds, breached_windows equals
     the alert count, and worst_burn is the max alert burn;
  8. the Prometheus snapshot (METRICS.json.prom) exists next to the file
     and carries the quamax_windowed_* families.

Float sums (time/energy) use a 1e-9 relative tolerance: windows clip
spans at their bounds, so re-addition crosses windows in a different
order than the collector's and can differ in the last ulp or two.

Exit code 0 = metrics valid, 1 = a check failed, 2 = bad input/usage.
"""

import json
import os
import subprocess
import sys
import tempfile

COUNTERS = ["submitted", "completed", "fallbacks", "dropped", "failed",
            "retries", "missed", "resolved", "waves", "failed_waves", "bits"]


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fail(problems):
    for problem in problems:
        print(f"metrics_check: FAIL: {problem}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"metrics_check: cannot read metrics: {err}", file=sys.stderr)
        return 2

    problems = []

    # -- 1. schema and header ----------------------------------------------
    if doc.get("schema") != "quamax-metrics-v1":
        return fail([f"unexpected schema {doc.get('schema')!r}"])
    windows = doc.get("windows", [])
    devices = doc.get("devices", [])
    totals = doc.get("totals", {})
    width = doc.get("window_us", 0.0)
    horizon = doc.get("horizon_us", 0.0)
    if not windows:
        return fail(["no windows"])
    if doc.get("num_windows") != len(windows):
        problems.append(f"num_windows {doc.get('num_windows')} != "
                        f"{len(windows)} window entries")
    if doc.get("num_devices") != len(devices):
        problems.append(f"num_devices {doc.get('num_devices')} != "
                        f"{len(devices)} device entries")
    if width <= 0:
        problems.append(f"window_us {width} is not positive")

    # -- 2. windows tile the timeline --------------------------------------
    for i, w in enumerate(windows):
        if w["index"] != i:
            problems.append(f"window {i}: index {w['index']}")
        if not close(w["start_us"], i * width):
            problems.append(f"window {i}: starts at {w['start_us']}, "
                            f"expected {i * width}")
        if i > 0 and w["start_us"] != windows[i - 1]["end_us"]:
            problems.append(f"window {i}: gap/overlap — starts at "
                            f"{w['start_us']}, previous ends at "
                            f"{windows[i - 1]['end_us']}")
    if windows[0]["start_us"] != 0:
        problems.append(f"first window starts at {windows[0]['start_us']}")
    if windows[-1]["end_us"] < horizon and not close(
            windows[-1]["end_us"], horizon):
        problems.append(f"last window ends at {windows[-1]['end_us']}, "
                        f"before horizon {horizon}")

    # -- 3. per-window counts conserve to totals ---------------------------
    for key in COUNTERS:
        got = sum(w[key] for w in windows)
        if got != totals.get(key):
            problems.append(f"windows sum {key} to {got}, totals say "
                            f"{totals.get(key)}")
    win_samples = sum(w["latency_us"]["count"] for w in windows)
    if win_samples != totals["latency_us"]["count"]:
        problems.append(f"window latency sketches hold {win_samples} "
                        f"samples, totals sketch {totals['latency_us']['count']}")

    # -- 4. queue conservation ---------------------------------------------
    for w in windows:
        if w["queue_depth"] < 0:
            problems.append(f"window {w['index']}: negative queue depth "
                            f"{w['queue_depth']}")
    if windows[-1]["queue_depth"] != 0:
        problems.append(f"final window queue depth "
                        f"{windows[-1]['queue_depth']}, expected 0 (drained)")
    balance = (totals.get("completed", 0) + totals.get("fallbacks", 0)
               + totals.get("dropped", 0))
    if totals.get("submitted") != balance:
        problems.append(f"submitted {totals.get('submitted')} != completed + "
                        f"fallbacks + dropped = {balance}")

    # -- 5. per-device time tiles the horizon ------------------------------
    for d in devices:
        phases = (d["program_us"] + d["anneal_us"] + d["readout_us"]
                  + d["aborted_us"])
        if not close(d["busy_us"], phases):
            problems.append(f"device {d['device']}: busy_us {d['busy_us']} != "
                            f"phase sum {phases}")
        tiled = phases + d["outage_us"] + d["idle_us"]
        if not close(tiled, horizon):
            problems.append(f"device {d['device']}: busy + outage + idle = "
                            f"{tiled}, horizon {horizon}")

    # -- 6. energy/busy conservation ---------------------------------------
    wave_busy = totals.get("wave_busy_us", 0.0)
    dev_busy = sum(d["busy_us"] for d in devices)
    if not close(dev_busy, wave_busy):
        problems.append(f"device busy sums to {dev_busy}, traced wave spans "
                        f"total {wave_busy}")
    win_busy = sum(w["busy_us"] for w in windows)
    if not close(win_busy, wave_busy):
        problems.append(f"window busy sums to {win_busy}, traced wave spans "
                        f"total {wave_busy}")
    total_energy = totals.get("energy_joules", 0.0)
    win_energy = sum(w["energy_joules"] for w in windows)
    if not close(win_energy, total_energy):
        problems.append(f"window energy sums to {win_energy} J, totals "
                        f"{total_energy} J")
    dev_energy = sum(d["energy_joules"] for d in devices)
    if not close(dev_energy, total_energy):
        problems.append(f"device energy sums to {dev_energy} J, totals "
                        f"{total_energy} J")
    bits = totals.get("bits", 0)
    if bits > 0 and not close(totals.get("joules_per_bit", 0.0),
                              total_energy / bits):
        problems.append(f"joules_per_bit {totals.get('joules_per_bit')} != "
                        f"energy / bits = {total_energy / bits}")

    # -- 7. SLO reports -----------------------------------------------------
    for slo in doc.get("slos", []):
        alerts = slo.get("alerts", [])
        if slo.get("breached_windows") != len(alerts):
            problems.append(f"slo {slo.get('name')}: breached_windows "
                            f"{slo.get('breached_windows')} != "
                            f"{len(alerts)} alerts")
        worst = max((a["burn"] for a in alerts), default=0.0)
        if alerts and not close(slo.get("worst_burn", 0.0), worst):
            problems.append(f"slo {slo.get('name')}: worst_burn "
                            f"{slo.get('worst_burn')} != max alert burn "
                            f"{worst}")
        for a in alerts:
            if not (0 <= a["window"] < len(windows)):
                problems.append(f"slo {slo.get('name')}: alert window "
                                f"{a['window']} out of range")
                continue
            w = windows[a["window"]]
            if a["start_us"] != w["start_us"] or a["end_us"] != w["end_us"]:
                problems.append(f"slo {slo.get('name')}: alert interval "
                                f"[{a['start_us']}, {a['end_us']}) != window "
                                f"{a['window']} bounds")
            if a["value"] <= slo.get("threshold", 0.0):
                problems.append(f"slo {slo.get('name')}: alert at window "
                                f"{a['window']} with value {a['value']} <= "
                                f"threshold {slo.get('threshold')}")

    # -- 8. Prometheus snapshot ---------------------------------------------
    prom_path = path + ".prom"
    try:
        with open(prom_path) as f:
            prom = f.read()
        if "quamax_windowed_" not in prom:
            problems.append(f"{prom_path} lacks quamax_windowed_* families")
    except OSError:
        problems.append(f"Prometheus snapshot {prom_path} missing")

    if problems:
        return fail(problems)
    alerts = sum(len(s.get("alerts", [])) for s in doc.get("slos", []))
    print(f"metrics_check: OK: {len(windows)} windows x {width:g} us tile "
          f"{horizon:g} us, {len(devices)} device(s), counts/busy/energy "
          f"conserve, {len(doc.get('slos', []))} SLO(s) with {alerts} "
          f"alert(s)")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--emit":
        with tempfile.TemporaryDirectory() as tmp:
            metrics_path = os.path.join(tmp, "metrics.json")
            env = dict(os.environ, QUAMAX_METRICS=metrics_path,
                       QUAMAX_SLO="miss_rate<=0.05,p99<=100000")
            proc = subprocess.run(argv[2:], env=env,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"metrics_check: emitter exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            if not os.path.exists(metrics_path):
                print("metrics_check: emitter wrote no metrics",
                      file=sys.stderr)
                return 2
            return validate(metrics_path)
    if len(argv) == 2 and not argv[1].startswith("-"):
        return validate(argv[1])
    print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
    print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
