"""Compare two sets of saved benchmark results (run.py --save).

    python3 perfbench/compare.py --before a/*.json --after b/*.json

Prints, per workload and metric, each side's median and quartile spread
and the change of the medians.  Refuses (exit 2) to compare result sets
whose kernel backend differs, or that mix workloads, run lengths or
trace modes, because their numbers do not measure the same thing.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    sets = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        sets[result["workload"]].append(result)
    return sets


def same(results, key):
    return {json.dumps(r[key] if key in r else r["env"][key]) for r in results}


def summary(values):
    if len(values) < 2:
        return values[0], 0.0
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q[2] - q[0]) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    everything = [r for sets in (before, after) for rs in sets.values() for r in rs]
    for key in ("backend", "seconds", "trace"):
        if len(same(everything, key)) != 1:
            sys.stderr.write("refusing to compare: %s differs (%s)\n" % (key, ", ".join(sorted(same(everything, key)))))
            return 2
    print("%-12s %-44s %14s %8s %14s %8s %9s" % ("workload", "metric", "before", "spread", "after", "spread", "change"))
    for workload in sorted(set(before) & set(after)):
        for name in sorted(before[workload][0]["metrics"]):
            b, bs = summary([r["metrics"][name]["value"] for r in before[workload]])
            a, as_ = summary([r["metrics"][name]["value"] for r in after[workload]])
            change = "%+8.1f%%" % (100 * (a - b) / b) if b else "      n/a"
            print("%-12s %-44s %14.6g %7.1f%% %14.6g %7.1f%% %s" % (workload, name, b, 100 * bs, a, 100 * as_, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
