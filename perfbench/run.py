"""lambda-mixer benchmark: cold CLI, bulk sweeps and point queries.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Workloads (closed loop, one client, seeded inputs):

* ``cli-cold``       one fresh ``python -m lambda_mixer`` per request
* ``dabs-sweep``     warm fig2-sized depth scans and 20k-point detuning sweeps
* ``point-queries``  warm mix of propagate / full_report / exact sweeps / noise ratio

A request is timed per step, one whole cycle of the workload's request mix.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from spans the benchmark records around calls into lambda_mixer's modules.
Metric names and units are those declared in BENCHMARK.json.
The lines before it describe the run: machine, versions, seed, sample
counts, error rate.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = ("cli-cold", "dabs-sweep", "point-queries")
SETUPS = 3  # fresh workload processes per run; set-up time is their median
WORKER_GRACE_S = 60.0


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, but not below p50.

    Returns (value, level in percent, samples beyond).  Below 21 samples no
    percentile above the median has ten beyond it, so the upper median
    stands in and the count beyond says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the sources either way."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".toml"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def worker_argv(workload, seed, workdir) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--refs", str(workdir / "refs.json"),
    ]


def reference_run(workload, seed, workdir) -> dict:
    """Reference values, paper anchors and versions, from a process of their own."""
    proc = subprocess.run(
        worker_argv(workload, seed, workdir) + ["--reference"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env(),
        timeout=WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} reference process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads((workdir / "refs.json").read_text())


def spawn_worker(workload, seed, seconds, start, last, trace, workdir, index) -> tuple[float, dict]:
    """Run one workload process; return its set-up time and its result."""
    result = workdir / f"result-{index}.json"
    stderr_path = workdir / f"worker-{index}.stderr"
    argv = worker_argv(workload, seed, workdir) + [
        "--seconds", repr(seconds),
        "--start", str(start),
        "--trace", str(trace),
        "--result", str(result),
    ]
    if last:
        argv.append("--last")
    with open(stderr_path, "wb") as stderr:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env()
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], WORKER_GRACE_S)
            line = proc.stdout.readline() if ready else b""
            setup = perf_counter() - t0
            code = proc.wait(timeout=seconds + WORKER_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or code != 0 or not result.is_file():
        detail = stderr_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{workload} worker failed (exit {code}):\n{detail}")
    return setup, json.loads(result.read_text())


def import_profile(probes: int = 3) -> dict:
    """Median over fresh interpreters of the ``-X importtime`` figures."""
    runs = [import_probe() for _ in range(probes)]
    return {name: median(run[name] for run in runs) for name in runs[0]}


def import_probe() -> dict:
    """``-X importtime`` of ``import lambda_mixer`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lambda_mixer"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import lambda_mixer failed:\n{proc.stderr[-2000:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((int(cumulative), len(name) - len(name.lstrip()), name.strip()))
    top = max(i for i, row in enumerate(rows) if row[2] == "lambda_mixer" and row[1] == 1)
    first = top
    while first > 0 and rows[first - 1][1] > 1:  # the nested imports of lambda_mixer precede it
        first -= 1

    def cumulative_s(module: str) -> float:
        return next((r[0] for r in rows[first : top + 1] if r[2] == module), 0) / 1e6

    return {
        "import.total_s": rows[top][0] / 1e6,
        "import.scipy_integrate_s": cumulative_s("scipy.integrate"),
        "import.scipy_signal_s": cumulative_s("scipy.signal"),
        "import.modules": top + 1 - first,
    }


def merge_steps(results: list[dict]) -> list[list]:
    """Per-step sums from every worker; a step that spans two workers is added up."""
    steps: dict[int, list] = {}
    for r in results:
        for step, seconds, points, kinds in r["steps"]:
            entry = steps.setdefault(step, [0.0, 0, {}])
            entry[0] += seconds
            entry[1] += points
            for kind, (t, n) in kinds.items():
                total = entry[2].setdefault(kind, [0.0, 0])
                total[0] += t
                total[1] += n
    return [steps[s] for s in sorted(steps)]


def per_kind(steps: list[list]) -> dict:
    """Per request kind: calls, median seconds per call over steps, share of step time."""
    total = sum(s[0] for s in steps)
    out = {}
    for kind in steps[0][2]:
        runs = [s[2][kind] for s in steps if kind in s[2]]
        out[kind] = {
            "calls": sum(n for _, n in runs),
            "median_s": median(t / n for t, n in runs),
            "time_share": round(sum(t for t, _ in runs) / total, 4),
        }
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, workdir: Path, spec: dict) -> dict:
    for stem, text in inputs.scenario_files(seed).items():
        (workdir / "scenarios" / f"{stem}.toml").write_text(text, encoding="utf-8")
    reference = reference_run(workload, seed, workdir)
    runs = 1 if trace else SETUPS
    setups, results, start = [], [], 0
    for k in range(runs):
        last = k == runs - 1
        setup, result = spawn_worker(workload, seed, seconds / runs, start, last, trace, workdir, k)
        setups.append(setup)
        results.append(result)
        start = result["next"]
    steps = merge_steps(results)
    latencies = [s[0] for s in steps]
    summary = {
        "workload": workload,
        "seed": seed,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:20],
        "anchor_problems": reference["anchor_problems"],
        "versions": reference["versions"],
        "setups": setups,
        "steps": len(steps),
        "calls_per_step": results[0]["cycle"],
        "per_kind": per_kind(steps),
    }
    tail, level, beyond = percentile_tail(latencies)
    summary["tail"] = {"level_pct": round(level, 4), "samples_beyond": beyond}
    p50 = median(latencies)
    if trace:
        layers = dict(results[0]["layers"])
        layers.update(import_profile())
        main_s = layers["cli.main_s"]
        call_p50 = p50 / results[0]["cycle"]
        layers["cli.startup_s"] = call_p50 - layers["import.total_s"] - main_s if main_s else 0.0
        summary["trace_steps"] = layers["trace.steps"]
        declared = spec["per_layer"]
    else:
        layers = {
            "setup_s": median(setups),
            "request_s.p50": p50,
            "request_s.tail": tail,
            "points_per_s": median(s[1] / s[0] for s in steps),
            "peak_rss_mb": max(r["maxrss_kb"] for r in results) * 1024 / 1e6,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in layers]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    summary["metrics"] = {m["name"]: (layers[m["name"]], m["unit"]) for m in declared}
    return summary


def report(summary: dict, identity: dict) -> dict:
    """Print the human-readable lines of one workload; return its JSON result."""
    attempted, failed = summary["attempted"], summary["failed"]
    correct = failed == 0 and not summary["anchor_problems"]
    n = summary["steps"]
    counts = {
        "setup_s": len(summary["setups"]),
        "request_s.p50": n,
        "request_s.tail": n,
        "points_per_s": n,
        "peak_rss_mb": len(summary["setups"]),
    }
    record = {
        "workload": summary["workload"],
        "seed": summary["seed"],
        "machine": platform.machine(),
        "platform": platform.platform(),
        "host": platform.node(),
        "cores": os.cpu_count(),
        **summary["versions"],
        **identity,
        "calls_per_step": summary["calls_per_step"],
        "tail": summary["tail"],
        "per_kind": summary["per_kind"],
        "sample_counts": counts if "setup_s" in summary["metrics"] else {"trace_steps": summary["trace_steps"]},
        "error_rate": {"value": failed / attempted if attempted else 0.0, "failed": failed, "attempted": attempted},
    }
    print(f"# {summary['workload']}  seed {summary['seed']}")
    for name, (value, unit) in summary["metrics"].items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        if name == "request_s.tail":
            extra += f"  p{summary['tail']['level_pct']:g}, {summary['tail']['samples_beyond']} beyond"
        print(f"  {name:40s} {value:>16.6g} {unit}{extra}")
    print(f"  {'error_rate':40s} {record['error_rate']['value']:>16.6g} ratio  ({failed}/{attempted} requests failed)")
    for problem in summary["failures"] + summary["anchor_problems"]:
        print(f"  FAIL {problem}")
    print("# record " + json.dumps(record))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in summary["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lambda_mixer" / "__init__.py").is_file():
        print(f"perfbench: no lambda_mixer sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    compileall.compile_dir(str(SRC), quiet=1)  # byte-compile once, outside every timed region
    identity = source_identity()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    (workdir / "scenarios").mkdir(parents=True)
    try:
        results = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            summary = run_workload(workload, args.seed, args.seconds, args.trace, workdir, spec)
            results[workload] = report(summary, identity)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {w: r["metrics"] for w, r in results.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
