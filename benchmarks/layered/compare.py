"""Compare two full reports of the layered benchmark: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; both come from
``run.py --out``.  One row per workload x end-to-end metric, every ratio
printed with its base.  A row's verdict applies the metric's bound:

``REGRESSION``  B's median is worse than A's by more than the bound;
``improved``    B's median is better than A's by more than the bound;
``unchanged``   the medians differ by less than the bound;
``unresolved``  the run-to-run spread (inter-quartile distance of either
                side's runs) is wider than the bound, so the medians
                cannot be told apart — unless every run of B reads better
                than every run of A, which is still ``improved``.

Exits non-zero when any row is a regression.  ``--layers`` also prints
the per-layer metrics side by side (no verdict: they have no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as metric_defs  # noqa: E402


def spread(values: list[float]) -> float:
    """Inter-quartile distance; 0 when there are too few runs to tell."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, allowed worsening in the metric's unit) for one row."""
    lower = metric["better"] == "lower"
    base, new = a["median"], b["median"]
    allowed = max(metric["bound"] * abs(base),
                  metric_defs.ABS_FLOOR.get(metric["name"], 0.0))
    worse = (new - base) if lower else (base - new)
    if max(spread(a["values"]), spread(b["values"])) > allowed:
        clean_win = (max(b["values"]) < min(a["values"]) if lower
                     else min(b["values"]) > max(a["values"]))
        return ("improved" if clean_win else "unresolved"), allowed
    if worse > allowed:
        return "REGRESSION", allowed
    if -worse > allowed:
        return "improved", allowed
    return "unchanged", allowed


def compare(a: dict, b: dict, layers: bool = False) -> tuple[list[str], int]:
    spec = metric_defs.load_spec()
    e2e = metric_defs.end_to_end_metrics(spec)
    lines = [f"base   {a['env']}", f"change {b['env']}", "",
             f"{'workload':<14} {'metric':<16} {'base':>14} {'change':>14} "
             f"{'change/base':>11} {'allowed':>10} {'iqr base':>10} {'iqr change':>10}  verdict"]
    regressions = 0
    for w in (x["name"] for x in spec["workloads"]):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for metric in e2e:
            ea, eb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            word, allowed = verdict(metric, ea, eb)
            regressions += word == "REGRESSION"
            ratio = eb["median"] / ea["median"] if ea["median"] else float("nan")
            lines.append(
                f"{w:<14} {metric['name']:<16} {ea['median']:>14.6g} {eb['median']:>14.6g} "
                f"{ratio:>11.4f} {allowed:>10.3g} {spread(ea['values']):>10.3g} "
                f"{spread(eb['values']):>10.3g}  {word}")
        same = (wa["pushes"], wa["counts"]) == (wb["pushes"], wb["counts"])
        lines.append(f"{w:<14} {'counts':<16} {'identical' if same else 'DIFFER'}")
        for problem in wa["problems"] + wb["problems"]:
            lines.append(f"{w:<14} PROBLEM: {problem}")
        if layers:
            for name, la in wa["per_layer"].items():
                va, vb = la["value"], wb["per_layer"][name]["value"]
                if va or vb:
                    ratio = vb / va if va else float("nan")
                    lines.append(f"{w:<14}   {name:<34} {va:>14.6g} {vb:>14.6g} "
                                 f"{ratio:>9.4f} {la['unit']}")
    lines.append("")
    lines.append(f"{regressions} regression(s)")
    return lines, regressions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--layers", action="store_true",
                    help="also print the per-layer metrics side by side")
    args = ap.parse_args(argv)
    docs = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, regressions = compare(*docs, layers=args.layers)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
