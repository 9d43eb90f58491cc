"""Output checks for every benchmark operation.

Each function returns a list of problems; an empty list means the output
is correct.  The checks read only what the program wrote (files and
captured stdout) plus the inputs the benchmark generated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re

REL = 1e-6
KKT_MAX = 1e-2  # solve-vi stops at a 1e-3 projected residual


def _close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_run(out_dir: str, mode: str, n_trips: int | None) -> list[str]:
    """`pvjtcs run --mode <mode>`: files written, ledger closes, trips add up."""
    names = ["summary.json", f"slots_{mode}.csv"]
    if mode == "jtcs":
        names.append("charging_plan.csv")
    missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing outputs {missing}"]
    problems = []
    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)[mode]
    slots = _read_csv(os.path.join(out_dir, f"slots_{mode}.csv"))
    if not slots:
        return ["empty slot ledger"]
    energy = [float(r["fleet_energy_kwh"]) for r in slots]
    consumed = [float(r["consumed_kwh"]) for r in slots]
    charged = [float(r["charged_kwh"]) for r in slots]
    start = None
    if mode == "jtcs":
        plan = _read_csv(os.path.join(out_dir, "charging_plan.csv"))
        if len(plan) != len(slots):
            problems.append(f"plan has {len(plan)} slots, ledger {len(slots)}")
        else:
            start = float(plan[0]["E_remaining"])
    for t in range(len(slots)):
        before = energy[t - 1] if t else start
        if before is None:
            continue
        if not _close(energy[t], before - consumed[t] + charged[t]):
            problems.append(f"ledger does not close at slot {t}")
            break
    if not _close(sum(charged), summary["total_charged_kwh"]):
        problems.append("slot charging does not sum to the summary total")
    last = slots[-1]
    if int(last["served"]) != summary["served"]:
        problems.append("last slot and summary disagree on served trips")
    if n_trips is None:
        problems.append("trip count unknown")
    elif summary["served"] + summary["waiting"] != n_trips:
        problems.append(
            f"served {summary['served']} + waiting {summary['waiting']} != {n_trips} trips"
        )
    elif int(last["served"]) + int(last["waiting"]) != n_trips:
        problems.append("last slot served + waiting != trips")
    return problems


_KKT = re.compile(r"^kkt worst residual = (\S+)$", re.M)
_ITERS = re.compile(r"^iterations = (\d+)$", re.M)


def check_game(stdout: str) -> list[str]:
    """`pvjtcs solve-vi`: a solution, and a finite, small KKT residual."""
    kkt = _KKT.search(stdout)
    if not stdout.startswith("x_star = ") or kkt is None or not _ITERS.search(stdout):
        return ["solve-vi printed no solution"]
    worst = float(kkt.group(1))
    if not math.isfinite(worst) or worst > KKT_MAX:
        return [f"kkt worst residual {worst:.3e} above {KKT_MAX}"]
    return []


def check_lp(stdout: str, doc: dict) -> list[str]:
    """`pvjtcs plan-charging`: plan rows, recursion, terminal floor, cost."""
    lines = stdout.splitlines()
    cost_line = [ln for ln in lines if ln.startswith("total cost = ")]
    if not cost_line:
        return ["plan-charging printed no cost"]
    rows = list(csv.DictReader(io.StringIO("\n".join(
        ln for ln in lines if not ln.startswith("total cost"))))
    )
    T = len(doc["consumed"])
    if len(rows) != T:
        return [f"plan has {len(rows)} rows, expected {T}"]
    e_plus = [float(r["E_plus"]) for r in rows]
    e_rem = [float(r["E_remaining"]) for r in rows]
    prices = [float(r["price"]) for r in rows]
    problems = []
    if not _close(e_rem[0], doc["e_init"]):
        problems.append("plan does not start at e_init")
    if min(e_plus) < -REL:
        problems.append("negative charging in the plan")
    for t in range(T - 1):
        if not _close(e_rem[t + 1], e_rem[t] - doc["consumed"][t] + e_plus[t]):
            problems.append(f"plan recursion broken at slot {t}")
            break
    end = e_rem[-1] - doc["consumed"][-1] + e_plus[-1]
    if end < doc["e_init"] - REL * doc["e_init"]:
        problems.append("plan ends below its starting energy")
    cost = float(cost_line[0].split("=", 1)[1].split()[0])
    if not _close(cost, sum(p * e for p, e in zip(prices, e_plus)), 1e-3):
        problems.append("printed cost disagrees with the plan")
    return problems
