"""Compare two result files written by ``run.py --out``.

One row per (workload, metric): each side's median and quartiles, the ratio
change/base with its base, and a verdict by the pair rule.  Runs are paired
by workload and seed.  A side wins a metric when it is better in at least
nine tenths of all pairs (ties count for neither) and the medians differ by
more than the base's own spread, the distance between its quartiles.
Anything else is "unresolved".  Metrics with a bound also say whether the
change's median stays within that bound of the base's.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

WIN_SHARE = 0.9


def _load(path):
    """{(workload, metric): {seed: value}} from a JSON lines result file."""
    out = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], name)][rec["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(base: dict, change: dict, higher_is_better: bool):
    """("win" | "loss" | "unresolved", pairs, change wins, change losses)."""
    seeds = sorted(set(base) & set(change))
    wins = losses = 0
    for s in seeds:
        diff = change[s] - base[s]
        if diff == 0:
            continue
        if (diff > 0) == higher_is_better:
            wins += 1
        else:
            losses += 1
    if not seeds:
        return "unresolved", 0, 0, 0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    cmed = statistics.median(change.values())
    clear = abs(cmed - bmed) > (bq3 - bq1)
    if clear and wins >= WIN_SHARE * len(seeds):
        return "win", len(seeds), wins, losses
    if clear and losses >= WIN_SHARE * len(seeds):
        return "loss", len(seeds), wins, losses
    return "unresolved", len(seeds), wins, losses


def main(base_path: str, change_path: str, spec: dict) -> int:
    base = _load(base_path)
    change = _load(change_path)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<16} {'metric':<32} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'ratio':>8} {'verdict':>10} "
          f"{'pairs':>6} bound")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        m = meta.get(name, {"better": "lower"})
        higher = m["better"] == "higher"
        b = quartiles(list(base[key].values()))
        c = quartiles(list(change[key].values()))
        ratio = c[1] / b[1] if b[1] else float("nan")
        v, pairs, wins, losses = verdict(base[key], change[key], higher)
        bound = ""
        if "bound" in m and b[1]:
            worse = (b[1] - c[1]) / b[1] if higher else (c[1] - b[1]) / b[1]
            bound = ("within" if worse <= m["bound"] else "EXCEEDED") \
                + f" {m['bound']:g}"
        print(f"{workload:<16} {name:<32} {_fmt(b):>32} {_fmt(c):>32} "
              f"{ratio:>8.4f} {v:>10} {wins}-{losses}/{pairs:<3} {bound}")
    print(f"ratio = change median / base median (base {base_path})")
    return 0
