"""Record sets of benchmark runs and compare them against BENCHMARK.json.

Usage, from the repository root::

    # ten seeded runs per workload, one stdout file per run
    python3 perfbench/compare.py record runs-a --seeds 1-10

    # two sets recorded interleaved: for each workload and seed, one run
    # per side, the side that goes first alternating from seed to seed,
    # so slow and fast host phases fall on both sides alike.  Each side
    # runs the benchmark command of its own checkout (default: this one).
    python3 perfbench/compare.py record runs-a runs-b --seeds 1-10 \
        --root-a ../parent-checkout --root-b .

    # one set: median, quartiles and spread (IQR / median) per metric
    python3 perfbench/compare.py spread runs-a

    # two sets: per workload and end-to-end metric, each side's median and
    # quartiles, and whether B stays within the metric's bound of A
    python3 perfbench/compare.py diff runs-a runs-b

Spread and quartiles are those of ``statistics.quantiles(values, n=4)``.
``diff`` exits 1 when some metric of B is worse than A by more than its
bound, so it can gate a script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict:
    with (root / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_run(root: Path, out: Path, workload: str, seed: int, seconds: int) -> None:
    """One untraced run of the benchmark command of the checkout at ``root``."""
    command = load_spec(root)["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=600
    )
    path = out / f"{workload}-seed{seed}.out"
    path.write_text(proc.stdout, encoding="utf-8")
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"{workload} seed {seed}: {status} -> {path}", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)


def cmd_record(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]
    ]
    sides = [(Path(args.out), Path(args.root_a).resolve())]
    if args.out_b:
        sides.append((Path(args.out_b), Path(args.root_b).resolve()))
    for out, _ in sides:
        out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec["run_seconds"]
    for name in names:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for out, root in sides if i % 2 == 0 else sides[::-1]:
                record_run(root, out, name, seed, seconds)
    return 0


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Workload name -> list of {run record, result} from ``*.out`` files."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.out")):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        record = json.loads(lines[-2])["run"]
        result = json.loads(lines[-1])
        runs.setdefault(record["workload"], []).append(
            {"record": record, "result": result}
        )
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(runs: List[dict], name: str) -> List[float]:
    """A metric's value per run, from the result line or, for the
    figures outside BENCHMARK.json, from the run record."""
    values = []
    for run in runs:
        metrics = dict(run["record"].get("ungated", {}), **run["result"]["metrics"])
        if name in metrics:
            values.append(metrics[name]["value"])
    return values


def metrics_to_show(spec: dict, runs: Dict[str, List[dict]]) -> List[dict]:
    """BENCHMARK.json's end-to-end metrics, then the run record's
    ungated figures (shown without a bound)."""
    shown = list(spec["end_to_end"])
    names = {m["name"] for m in shown}
    for entries in runs.values():
        for name in entries[0]["record"].get("ungated", {}):
            if name not in names:
                names.add(name)
                shown.append({"name": name, "better": "lower", "bound": None})
    return shown


def cmd_spread(args) -> int:
    spec = load_spec()
    runs = load_runs(Path(args.dir))
    print(f"{'workload':<16} {'metric':<18} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, entries in runs.items():
        failed = sum(1 for e in entries if not e["result"]["correct"])
        for metric in metrics_to_show(spec, runs):
            values = metric_values(entries, metric["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = metric["bound"]
            if bound is None:
                flag, bound_text = "  (ungated)", "-"
            else:
                flag = "" if spread <= bound / 3 else (
                    "  over bound/3" if spread <= bound else "  OVER BOUND"
                )
                bound_text = f"{bound:.2f}"
            print(f"{workload:<16} {metric['name']:<18} {len(values):>3} "
                  f"{q1:>12.5g} {q2:>12.5g} {q3:>12.5g} {spread:>7.3f} "
                  f"{bound_text:>6}{flag}")
        if failed:
            print(f"{workload:<16} {failed} run(s) failed the reference check")
    return 0


def cmd_diff(args) -> int:
    spec = load_spec()
    a_runs, b_runs = load_runs(Path(args.a)), load_runs(Path(args.b))
    worse_any = False
    print(f"{'workload':<16} {'metric':<18} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in metrics_to_show(spec, a_runs):
            name, bound = metric["name"], metric["bound"]
            a = metric_values(a_runs[workload], name)
            b = metric_values(b_runs[workload], name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = -change if metric["better"] == "higher" else change
            if bound is None:
                verdict = "(ungated)"
            elif abs(change) <= bound:
                verdict = "agree"
            elif worse > 0:
                verdict = "B worse"
                worse_any = True
            else:
                verdict = "B better"
            print(f"{workload:<16} {name:<18} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>32} "
                  f"{change:>+8.1%} {bound if bound is not None else '-':>6}  {verdict}")
        for side, runs in (("A", a_runs), ("B", b_runs)):
            failed = sum(1 for e in runs[workload] if not e["result"]["correct"])
            if failed:
                print(f"{workload:<16} {side}: {failed} run(s) failed the reference check")
                worse_any = worse_any or side == "B"
    return 1 if worse_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="run the benchmark over seeds")
    record.add_argument("out", help="directory for the run outputs")
    record.add_argument("out_b", nargs="?", default="",
                        help="second directory: record two sets interleaved")
    record.add_argument("--root-a", default=str(ROOT),
                        help="checkout whose benchmark fills OUT (default: this one)")
    record.add_argument("--root-b", default=str(ROOT),
                        help="checkout whose benchmark fills OUT_B (default: this one)")
    record.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    record.add_argument("--workloads", default="", help="comma list (default all)")
    record.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    record.set_defaults(run=cmd_record)
    spread = sub.add_parser("spread", help="quartiles and spread of one set")
    spread.add_argument("dir")
    spread.set_defaults(run=cmd_spread)
    diff = sub.add_parser("diff", help="compare two sets of runs")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(run=cmd_diff)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
