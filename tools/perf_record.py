#!/usr/bin/env python3
"""Append one perfbench run to the committed end-to-end perf record.

    python3 perfbench/run.py --workload coherent_duplex --seed 1 --seconds 10 \
        | python3 tools/perf_record.py --label "depth-partitioned execute_due"

Reads perfbench/run.py's stdout (from --in, or stdin), takes the run's
context line (first line), its digest line ("digest fnv1a=... reps=N") and
the final JSON result, and appends them as one entry to --out
(bench/BENCH_perf.json by default), creating the file when it is missing.
A run whose result is not correct, or that failed any job, is refused: the
record holds only runs that passed their own correctness checks.

The file is {"entries": [...]} in append order; each entry carries the
label, the context (workload, seed, jobs, lanes, compiler, commit, ...), the
digest, the repetition count and the metrics with their units, so a
trajectory can be read per workload and seed across commits.
"""
import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "bench", "BENCH_perf.json")
DIGEST = re.compile(r"^digest fnv1a=([0-9a-f]{16}) reps=(\d+)$")


def parse(text):
    """The entry for one perfbench stdout; raises ValueError when malformed."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise ValueError("expected a context line, a digest line and a result")
    context = json.loads(lines[0]).get("context")
    if not isinstance(context, dict):
        raise ValueError("first line has no context object")
    digests = [DIGEST.match(line) for line in lines if line.startswith("digest ")]
    if len(digests) != 1 or digests[0] is None:
        raise ValueError("expected exactly one 'digest fnv1a=<16 hex> reps=N' line")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise ValueError(f"run did not pass its checks: correct="
                         f"{result.get('correct')} failed={result.get('failed')}")
    return {"context": context, "digest": digests[0].group(1),
            "reps": int(digests[0].group(2)), "metrics": result["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--in", dest="src", default="-",
                        help="perfbench stdout file ('-' = stdin)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--label", default="",
                        help="what the measured tree is, e.g. the change's title")
    args = parser.parse_args()

    text = sys.stdin.read() if args.src == "-" else open(args.src).read()
    try:
        entry = parse(text)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"perf_record: {e}", file=sys.stderr)
        return 1
    entry = {"label": args.label, **entry}

    record = {"entries": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    ctx = entry["context"]
    print(f"perf_record: {ctx.get('workload')} seed {ctx.get('seed')} "
          f"({args.label or 'unlabelled'}) -> {args.out} "
          f"[{len(record['entries'])} entries]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
