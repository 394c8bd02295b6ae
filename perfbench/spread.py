"""Run-to-run spread of the end-to-end metrics, one workload or several.

    python3 perfbench/spread.py --workload solve chain cli --runs 10 --seconds 30

Runs perfbench/run.py once per seed (1..runs, or from --first-seed) and
workload, one after another; with several workloads it runs all of them for
one seed before the next seed, so machine drift reaches each alike.  Prints
for each workload and metric its median and the interquartile distance as a
share of the median, and the same for the raw (unscaled) timings and the
speed-probe median.  Each spread of a bounded metric should stay below a
third of its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import spread  # noqa: E402

END_TO_END = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """(metrics, raw) of one run: metric values by name, and the raw timings
    and probe median from the `# speed probe` line."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe_line = next(line for line in lines if line.startswith("# speed probe"))
    raw = {"probe_ms": float(probe_line.split("median ")[1].split()[0])}
    for item in probe_line.split("raw ")[1].split():
        key, val = item.split("=")
        raw[key] = float(val)
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
          + " | raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}, raw


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()
    values = {w: {} for w in args.workload}
    raws = {w: {} for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workload:
            metrics, raw = run_once(w, seed, args.seconds)
            for name, v in metrics.items():
                values[w].setdefault(name, []).append(v)
            for name, v in raw.items():
                raws[w].setdefault(name, []).append(v)
    for w in args.workload:
        print(f"== {w}")
        for m in END_TO_END:
            name, vals = m["name"], values[w][m["name"]]
            s = spread(vals)
            flag = "" if s < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name}: median {statistics.median(vals):.6g} {m['unit']}, "
                  f"spread {s:.4f} (bound {m['bound']}){flag}")
        for name, vals in raws[w].items():
            print(f"raw {name}: median {statistics.median(vals):.6g}, spread {spread(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
