"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

For each workload it makes two short traced runs on one seed and checks:

* every op passed its check, which includes each traced op returning the
  same result as the untraced op on the same case, so the wrappers do not
  change behaviour;
* both runs report exactly the same counts and quality;
* the per-layer predictions of README.md hold: LES subproblems repeat on
  ``worst`` (share above 0.5) and never on ``planted``, the caterpillar
  steps never run on ``planted``, and LES and max-flow never run on
  ``certify``.

Exits 0 when every check holds and 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("les.cuts", "maxflow.arcs", "approx.pops", "approx.preprocess.calls",
         "les.subproblem_repeat_frac", "certs.sdp.checks", "certs.sa.checks")
STEP_PREFIXES = ("approx.first_step", "approx.hair_step",
                 "approx.backbone_step", "approx.final_step", "approx.pops")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record_path = HERE / "out" / f"{workload}-seed{seed}-trace1.json"
    record = json.loads(record_path.read_text())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["quality.ratio_mean"] = record["quality.ratio_mean"]
    return {"correct": result["correct"], "failed": result["failed"],
            "values": values}


def check_workload(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            problems.append(f"{run['failed']} ops failed their check")
    for key in EXACT + ("quality.ratio_mean",):
        a, b = first["values"][key], second["values"][key]
        if a != b:
            problems.append(f"{key} differs between runs: {a} != {b}")
    v = first["values"]
    if workload == "worst" and not v["les.subproblem_repeat_frac"] > 0.5:
        problems.append("les.subproblem_repeat_frac is not above 0.5")
    if workload == "planted":
        if v["les.subproblem_repeat_frac"] != 0:
            problems.append("les.subproblem_repeat_frac is not 0")
        problems += [f"{k} is not 0" for k in v
                     if k.startswith(STEP_PREFIXES) and v[k] != 0]
    if workload == "certify":
        problems += [f"{k} is not 0" for k in v
                     if k.startswith(("les.", "maxflow.")) and v[k] != 0]
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    problems = []
    for workload in ("planted", "worst", "certify"):
        found = check_workload(workload, args.seed)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
