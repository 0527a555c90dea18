"""One workload process: set up, print ``ready``, run timed requests, write results.

``run.py`` starts this script in a fresh interpreter and times its set-up
from the spawn to the ``ready`` line: the import of lambda_mixer, loading and
validating the generated inputs, and (for the in-process workloads) one
warm-up request of each kind.  Requests then run one at a time in a closed
loop; each is timed alone, and its output is checked after its timer stops.
Times and points are summed per step, one whole cycle of the request mix.

With ``--reference`` the script instead computes the reference values the
checks compare against, runs the paper anchors and writes both to ``--refs``.
``run.py`` does that in a process of its own, so the workload process loads
neither scipy's ``expm`` nor anything else the program itself does not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
CPUS = os.cpu_count() or 1


class Runner:
    """Request kinds of one workload; ``execute`` is the only timed call."""

    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: dict = {}  # request key -> fingerprint of its first output
        self.refs: dict = {}  # request key -> reference values, from the reference process

    def warm(self) -> None:
        """One request of each kind, so set-up covers work deferred to first use."""
        for i in range(self.cycle):
            self.execute(self.prepare(i))

    def references(self) -> dict:
        return {}

    def scenario(self, stem: str):
        from lambda_mixer.model import validate
        from lambda_mixer.scenario import load_scenario

        target = self.workdir / "scenarios" / f"{stem}.toml"
        scenario, _ = load_scenario(str(target) if target.is_file() else stem)
        return validate(scenario)

    def repeat(self, key, fingerprint, first_check) -> list[str]:
        """Full check on a key's first output; later outputs must match it exactly.

        Fingerprints stay small (``checks.digest`` for sweeps), so the
        checker adds little to the peak RSS of the workload process.
        """
        if key not in self.first:
            self.first[key] = fingerprint
            return first_check()
        if self.first[key] != fingerprint:
            return [f"{key}: output differs from the first run of the same input"]
        return []

    def records(self, out) -> tuple[int, int]:
        return 0, 0


class DabsSweep(Runner):
    cycle = len(inputs.DABS_KINDS)

    def load(self) -> None:
        from lambda_mixer import scan

        self.sweeps = {}
        for j in range(inputs.POOL):
            fig2 = self.scenario(f"fig2_v{j}")
            inner = scan.default_detuning_spec(fig2.eit)
            fig4 = self.scenario(f"fig4_v{j}")
            wide = scan.default_detuning_spec(fig4.eit, inputs.LARGE_GRID_POINTS)
            self.sweeps[f"sweep_absorber_depth:{j}"] = (fig2, fig2.sweep, inner)
            self.sweeps[f"sweep_detuning:{j}"] = (fig4, wide, None)

    def references(self) -> dict:
        refs = {}
        for key, (scenario, spec, inner) in self.sweeps.items():
            samples = inputs.sample_indices(self.seed, key, spec.points, 2 if inner else 8)
            if inner is not None:
                refs[key] = checks.depth_reference(scenario, spec, inner, samples)
            else:
                refs[key] = checks.detuning_reference(scenario, spec, samples)
        return refs

    def prepare(self, i: int) -> dict:
        request = inputs.dabs_request(i)
        request["key"] = f"{request['kind']}:{request['variant']}"
        request["args"] = self.sweeps[request["key"]]
        return request

    def execute(self, request: dict):
        from lambda_mixer import scan

        scenario, spec, inner = request["args"]
        if inner is not None:
            return scan.sweep_absorber_depth(scenario, spec, workers=CPUS, inner_spec=inner)
        return scan.sweep_detuning(scenario, spec, workers=CPUS)

    def check(self, i: int, request: dict, records) -> list[str]:
        key = request["key"]
        return checks.unclean(records) + self.repeat(
            key, checks.digest(records), lambda: checks.compare_points(key, records, self.refs[key])
        )

    def records(self, out) -> tuple[int, int]:
        return len(out), sum(r.flagged for r in out)


class PointQueries(Runner):
    cycle = len(inputs.POINT_CYCLE)

    def load(self) -> None:
        from lambda_mixer import scan
        from lambda_mixer.model import EitMedium, FieldPair, Scenario, validate

        self.pools = inputs.point_inputs(self.seed)

        def medium(d):
            return validate(Scenario(eit=EitMedium(**d))).eit

        self.propagate_args = [
            (
                medium(p["eit"]),
                complex(*p["loss"]),
                p["delta"],
                FieldPair(complex(*p["fields"][:2]), complex(*p["fields"][2:])),
            )
            for p in self.pools["propagate"]
        ]
        self.noise_args = [(medium(n["eit"]), n["d_abs"]) for n in self.pools["noise"]]
        self.reports = [self.scenario(f"sec5_v{j}") for j in range(inputs.POOL)]
        self.exact = []
        for s in self.pools["sweeps"]:
            scenario = self.scenario(s["scenario"])
            self.exact.append((scenario, scan.default_detuning_spec(scenario.eit, s["points"])))

    def warm(self) -> None:
        for kind in inputs.POINT_COUNTS:
            self.execute({"kind": kind, "index": 0})

    def references(self) -> dict:
        refs = {}
        for j, (eit, loss, delta, _) in enumerate(self.propagate_args):
            refs[f"propagate:{j}"] = checks.transfer_reference(eit, loss, delta)
        for j, scenario in enumerate(self.reports):
            refs[f"full_report:{j}"] = checks.report_reference(scenario)
        for j, (scenario, spec) in enumerate(self.exact):
            key = f"exact_sweep:{j}"
            refs[key] = checks.detuning_reference(scenario, spec, inputs.sample_indices(self.seed, key, spec.points, 3))
        for j, (eit, d_abs) in enumerate(self.noise_args):
            refs[f"noise_ratio:{j}"] = checks.noise_ratio_value(eit, d_abs)
        return refs

    def prepare(self, i: int) -> dict:
        return inputs.point_request(self.pools, i)

    def execute(self, request: dict):
        from lambda_mixer import design, propagation, scan

        kind, j = request["kind"], request["index"]
        if kind in ("propagate", "adaptive_rk"):
            eit, loss, delta, fields = self.propagate_args[j]
            matrix = propagation.build_coupling_matrix(eit, loss, delta)
            if kind == "propagate":
                return propagation.propagate(matrix, fields)
            return propagation.propagate(matrix, fields, method="adaptive-rk")
        if kind == "full_report":
            return design.full_report(self.reports[j])
        if kind == "exact_sweep":
            return scan.sweep_detuning(*self.exact[j])
        return propagation.noise_suppression_ratio(*self.noise_args[j])

    def check(self, i: int, request: dict, out) -> list[str]:
        from dataclasses import asdict, astuple

        kind, j = request["kind"], request["index"]
        key = f"{kind}:{j}"
        if kind in ("propagate", "adaptive_rk"):
            fields = self.propagate_args[j][3]
            result, transfer = out
            reference = self.refs[f"propagate:{j}"]
            return self.repeat(
                key,
                (result.a_s, result.a_i_dag),
                lambda: checks.propagate_output(reference, fields, result, transfer, kind == "adaptive_rk"),
            )
        if kind == "full_report":
            ref = self.refs[key]
            return self.repeat(key, astuple(out), lambda: ref["problems"] + checks.report_diff(asdict(out), ref["report"]))
        if kind == "exact_sweep":
            return checks.unclean(out) + self.repeat(
                key, checks.digest(out), lambda: checks.compare_points(key, out, self.refs[key])
            )
        if checks.rel_err(out, self.refs[key]) > checks.CLI_REL:
            return [f"noise ratio {out!r} != closed form {self.refs[key]!r}"]
        return []

    def records(self, out) -> tuple[int, int]:
        if isinstance(out, list):
            return len(out), sum(r.flagged for r in out)
        return 0, 0


class CliCold(Runner):
    """Cold ``python -m lambda_mixer`` subprocesses, one at a time.

    Every request is a fresh interpreter, so there is nothing to warm up: the
    set-up is the import of lambda_mixer and loading the generated scenarios.
    Its checks run in this process, as its peak RSS is that of the largest
    CLI child, not its own.
    """

    cycle = len(inputs.CLI_KINDS)

    def warm(self) -> None:
        pass

    def load(self) -> None:
        self.pools = inputs.cli_pools(self.seed)
        self.scenarios = {stem: self.scenario(stem) for stem in dict.fromkeys(sum(self.pools.values(), []))}
        self.out_dir = self.workdir / f"out-{os.getpid()}"
        self.out_dir.mkdir()
        self.sweeps: dict = {}
        self.reports: dict = {}

    def argv(self, request: dict, tag: str) -> tuple[list[str], Path | None]:
        stem = request["scenario"]
        path = self.workdir / "scenarios" / f"{stem}.toml"
        argv = [request["kind"], "--scenario", str(path) if path.is_file() else stem]
        out = None
        for flag in request["flags"]:
            if flag == "--out":
                out = self.out_dir / f"{tag}.csv"
                argv += ["--out", str(out)]
            else:
                argv.append(flag)
        return argv, out

    def prepare(self, i: int) -> dict:
        request = inputs.cli_request(self.pools, i)
        request["argv"], request["out"] = self.argv(request, f"r{i}")
        request["stdout"] = self.out_dir / f"r{i}.stdout"
        return request

    def execute(self, request: dict) -> int:
        with open(request["stdout"], "wb") as out, open(self.out_dir / "stderr", "ab") as err:
            return subprocess.run(
                [sys.executable, "-m", "lambda_mixer", *request["argv"]],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                cwd=ROOT,
                timeout=120,
            ).returncode

    def expected_exit(self, request: dict) -> int:
        if request["kind"] != "design":
            return 0
        return 0 if self.report(request["scenario"]).overall else 4

    def report(self, stem: str):
        from lambda_mixer.design import full_report

        if stem not in self.reports:
            self.reports[stem] = full_report(self.scenarios[stem])
        return self.reports[stem]

    def sweep(self, kind: str, stem: str):
        """The in-process sweep the CLI command runs, with the CLI's grid choice."""
        from lambda_mixer import scan
        from lambda_mixer.cli import DEFAULT_DABS_SPEC

        key = (kind, stem)
        if key not in self.sweeps:
            scenario = self.scenarios[stem]
            sweep = scenario.sweep
            if kind == "scan-detuning":
                spec = sweep if sweep and sweep.axis == scan.DETUNING_AXIS else scan.default_detuning_spec(scenario.eit)
                inner = None
                records = scan.sweep_detuning(scenario, spec, workers=1)
            else:
                spec = sweep if sweep and sweep.axis == scan.DEPTH_AXIS else DEFAULT_DABS_SPEC
                inner = scan.default_detuning_spec(scenario.eit)
                records = scan.sweep_absorber_depth(scenario, spec, workers=1, inner_spec=inner)
            self.sweeps[key] = (scenario, spec, inner, records)
        return self.sweeps[key]

    def outputs(self, request: dict, stdout: str) -> dict[str, str]:
        files = {"stdout": stdout}
        if request["out"] is not None:
            for suffix in (".csv", ".json", ".svg"):
                path = request["out"].with_suffix(suffix)
                if path.exists():
                    files[suffix] = path.read_text(encoding="utf-8")
        return files

    def check(self, i: int, request: dict, code: int, stdout: str | None = None) -> list[str]:
        if stdout is None:
            stdout = request["stdout"].read_text(encoding="utf-8")
        files = self.outputs(request, stdout)
        for path in self.out_dir.glob(f"{request['stdout'].stem}.*"):
            path.unlink()
        want = self.expected_exit(request)
        if code != want:
            return [f"{' '.join(request['argv'])}: exit {code}, expected {want}"]
        kind, stem = request["kind"], request["scenario"]
        key = (kind, stem, tuple(request["flags"]))
        fingerprint = {k: v for k, v in files.items() if k != ".json"}
        if ".json" in files:  # the sidecar's timestamp differs on every run
            fingerprint[".json"] = {k: v for k, v in json.loads(files[".json"]).items() if k != "timestamp"}
        return self.repeat(key, fingerprint, lambda: self.first_check(kind, stem, request, files))

    def first_check(self, kind: str, stem: str, request: dict, files: dict) -> list[str]:
        from lambda_mixer.cli import DABS_CSV_HEADER, DETUNING_CSV_HEADER
        from lambda_mixer.propagation import n_fwm, noise_suppression_ratio
        from lambda_mixer.susceptibility import effective_depth

        scenario = self.scenarios[stem]
        if kind == "design":
            return checks.cli_design(files["stdout"], "--json" in request["flags"], self.report(stem))
        if kind == "noise":
            d_abs = effective_depth(scenario.absorber)
            return checks.cli_noise(
                files["stdout"], n_fwm(scenario.eit), noise_suppression_ratio(scenario.eit, d_abs)
            )
        scenario, spec, inner, records = self.sweep(kind, stem)
        text = files.get(".csv", files["stdout"])
        detuning = kind == "scan-detuning"
        header = DETUNING_CSV_HEADER if detuning else DABS_CSV_HEADER
        problems = checks.unclean(records) + checks.cli_scan(text, header, records, detuning)
        label = f"{kind}:{stem}"
        sample = inputs.sample_indices(self.seed, label, len(records), 3 if detuning else 1)
        if detuning:
            reference = checks.detuning_reference(scenario, spec, sample)
        else:
            reference = checks.depth_reference(scenario, spec, inner, sample)
        problems += checks.compare_points(label, records, reference)
        if "--json" in request["flags"]:
            problems += checks.cli_sidecar(files.get(".json", "{}"), kind, len(records))
        if "--svg" in request["flags"]:
            problems += checks.cli_svg(files.get(".svg", ""))
        return problems

    def in_process(self, i: int, request: dict, tag: str, tracer=None) -> tuple[float, int, list[str]]:
        """cli.main on the same request inside this process: wall time, bytes out, problems."""
        from lambda_mixer import cli

        argv, out = self.argv(request, f"{tag}{i}")
        inner = dict(request, argv=argv, out=out, stdout=self.out_dir / f"{tag}{i}.stdout")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code, elapsed, error = timed(lambda: cli.main(argv), tracer)
        if error is not None:
            return elapsed, 0, [f"in-process {' '.join(argv)} raised {error!r}"]
        stdout = buffer.getvalue()
        written = len(stdout.encode())
        if out is not None:
            written += sum(p.stat().st_size for p in self.out_dir.glob(f"{tag}{i}.*"))
        return elapsed, written, self.check(i, inner, code, stdout)


RUNNERS = {"cli-cold": CliCold, "dabs-sweep": DabsSweep, "point-queries": PointQueries}


def timed(call, tracer=None):
    """Run ``call`` alone in the timed region; spans are recorded only with a tracer."""
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out, error = call(), None
    except Exception as exc:
        out, error = None, exc
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return out, elapsed, error


def run(runner: Runner, args) -> dict:
    from tracing import LayerStats, Tracer

    tracer = Tracer() if args.trace else None
    stats = LayerStats()
    steps: dict[int, list] = {}  # step -> [seconds, points, {kind: [seconds, calls]}]
    failures = []
    attempted = failed = records = flagged = 0
    mode_time = {False: 0.0, True: 0.0}
    mode_steps = {False: 0, True: 0}
    main_times, bytes_out = [], []
    in_process = args.trace and isinstance(runner, CliCold)
    i = args.start
    end = perf_counter() + args.seconds
    while perf_counter() < end or (args.last and i % runner.cycle):
        step, step_end = divmod(i, runner.cycle)
        step_end = step_end == runner.cycle - 1
        traced = tracer is not None and not in_process and step % 2 == 1
        if tracer is not None and not in_process:
            (tracer.install if traced else tracer.uninstall)()
        request = runner.prepare(i)
        attempted += 1
        out, elapsed, error = timed(lambda: runner.execute(request), tracer if traced else None)
        if traced:
            stats.add(tracer.drain())
        if error is not None:  # a failed request is counted, not fatal
            problems = [f"request {i} ({request['kind']}) raised {error!r}"]
        else:
            try:
                problems = runner.check(i, request, out)
            except Exception as exc:
                problems = [f"request {i} ({request['kind']}) output check raised {exc!r}"]
            n, f = runner.records(out)
            records += n
            flagged += f
        if not in_process:
            mode_time[traced] += elapsed
            mode_steps[traced] += step_end
            stats.steps += traced and step_end
        elif not problems:
            untraced, written, problems = runner.in_process(i, request, "u")
            tracer.install()
            try:
                t_traced, _, more = runner.in_process(i, request, "t", tracer)
            finally:
                tracer.uninstall()
            stats.add(tracer.drain())
            problems += more
            main_times.append(untraced)
            bytes_out.append(written)
            mode_time[False] += untraced
            mode_time[True] += t_traced
            for mode in (False, True):
                mode_steps[mode] += step_end
            stats.steps += step_end
        if problems:
            failed += 1
            failures.extend(problems[:3])
        points = 0 if problems else inputs.request_points(request, getattr(runner, "pools", None))
        entry = steps.setdefault(step, [0.0, 0, {}])
        entry[0] += elapsed
        entry[1] += points
        kind = entry[2].setdefault(request["kind"], [0.0, 0])
        kind[0] += elapsed
        kind[1] += 1
        i += 1
    if tracer is not None:
        tracer.uninstall()

    result = {
        "steps": sorted([s, *entry] for s, entry in steps.items()),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "next": i,
        "cycle": runner.cycle,
        "maxrss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if isinstance(runner, CliCold) else resource.RUSAGE_SELF
        ).ru_maxrss,
    }
    if args.trace:
        result["layers"] = layer_metrics(stats, mode_time, mode_steps, records, flagged, main_times, bytes_out)
    return result


def layer_metrics(stats, mode_time, mode_steps, records, flagged, main_times, bytes_out) -> dict:
    def rate(traced: bool) -> float:
        return mode_steps[traced] / mode_time[traced] if mode_time[traced] else 0.0

    sweeps = stats.count.get("scan.sweep", 0)
    return {
        "cli.main_s": median(main_times) if main_times else 0.0,
        "cli.bytes_out": sum(bytes_out) / len(bytes_out) if bytes_out else 0.0,
        "scenario.load_us": stats.mean_us("scenario.load"),
        "model.validate_us": stats.mean_us("model.validate"),
        "svgplot.render_ms": stats.mean_us("svgplot.render") / 1e3,
        "svgplot.calls": stats.per_step("svgplot.render"),
        "propagation.coupling_entries_us": stats.mean_us("propagation.coupling_entries"),
        "propagation.coupling_entries_calls": stats.per_step("propagation.coupling_entries"),
        "propagation.expm2_us": stats.mean_us("propagation.expm2"),
        "propagation.expm2_calls": stats.per_step("propagation.expm2"),
        "propagation.propagate_us": stats.mean_us("propagation.propagate"),
        "propagation.propagate_calls": stats.per_step("propagation.propagate"),
        "propagation.propagate_rk_us": stats.mean_us("propagation.propagate_rk"),
        "propagation.propagate_rk_calls": stats.per_step("propagation.propagate_rk"),
        "scan.points": stats.sweep_points / sweeps if sweeps else 0.0,
        "scan.flagged_ratio": flagged / records if records else 0.0,
        "scan.peak_outputs_us": stats.mean_us("scan.peak_outputs"),
        "scan.self_s": median(stats.sweep_self) if stats.sweep_self else 0.0,
        "susceptibility.chi_abs_us": stats.mean_us("susceptibility.chi_abs"),
        "susceptibility.chi_abs_calls": stats.per_step("susceptibility.chi_abs"),
        "susceptibility.lineshape_us": stats.mean_us("susceptibility.lineshape"),
        "susceptibility.lineshape_calls": stats.per_step("susceptibility.lineshape"),
        "susceptibility.effective_depth_calls": stats.per_step("susceptibility.effective_depth"),
        "design.full_report_us": stats.mean_us("design.full_report"),
        "design.full_report_calls": stats.per_step("design.full_report"),
        "design.solve_omega_a_us": stats.mean_us("design.solve_omega_a"),
        "design.bisect_evals": sum(stats.bisect_evals) / len(stats.bisect_evals) if stats.bisect_evals else 0.0,
        "trace.overhead_ratio": rate(True) / rate(False) if rate(False) else 0.0,
        "trace.steps": stats.steps,
    }


def versions() -> dict:
    import platform

    import numpy
    import scipy

    import lambda_mixer

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lambda_mixer": lambda_mixer.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--refs", type=Path, required=True, help="reference values: read, or written with --reference")
    parser.add_argument("--reference", action="store_true", help="compute the reference values and paper anchors")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--last", action="store_true", help="end on a whole step")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()

    import lambda_mixer  # noqa: F401  (the import is part of the timed set-up)

    runner = RUNNERS[args.workload](args.seed, args.workdir)
    runner.load()
    if args.reference:
        refs = {"refs": runner.references(), "anchor_problems": checks.paper_anchors(), "versions": versions()}
        args.refs.write_text(json.dumps(refs), encoding="utf-8")
        return 0
    runner.warm()
    print("ready", flush=True)
    runner.refs = json.loads(args.refs.read_text(encoding="utf-8"))["refs"]
    result = run(runner, args)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
