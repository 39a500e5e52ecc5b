"""Summarise result files into one trajectory point.

    python3 bench/summarize.py bench/out/*.json > point.json

For each workload, its untraced (``end_to_end``) and traced
(``per_layer``) runs are summarised apart.  Each metric gets its run
count, median, quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median; the provenance of the first run
is kept.
"""

import json
import statistics
import sys


def summarize(paths) -> dict:
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        prov = record["provenance"]
        kind = "per_layer" if prov["trace"] else "end_to_end"
        runs.setdefault((prov["workload"], kind), []).append(record)
    out = {}
    for (workload, kind), records in sorted(runs.items()):
        metrics = {}
        for name, entry in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, median, median))
            metrics[name] = {"unit": entry["unit"], "runs": len(values),
                             "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None}
        out.setdefault(workload, {})[kind] = {
            "correct": all(r["correct"] for r in records),
            "seeds": [r["provenance"]["seed"] for r in records],
            "metrics": metrics,
            "provenance": records[0]["provenance"],
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
