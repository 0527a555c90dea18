"""Seeded input generation for the three workloads.

Everything here is plain Python and reads only the shipped scenario files, so
the same seed gives the same inputs on any commit.  Variants perturb the
shipped fig2 / fig4 / sec5 scenarios by a few percent, which keeps every
variant inside validation and inside the physics regime of its base: fig2
keeps its gain-2 calibration, fig4 its three absorber strengths, sec5 its
design verdicts (both FAIL, exit code 4).

A request is a small dict; ``cli_request``, ``dabs_request`` and
``point_request`` give the one at position ``i`` of a run.  Request kinds
repeat in a fixed cycle (a step), so host drift hits all of them alike.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

SHIPPED_DIR = Path(__file__).resolve().parent.parent / "src" / "lambda_mixer" / "scenarios"
FIG2 = ("fig2_default",)
FIG4 = ("fig4_dabs_0.83", "fig4_dabs_4.16", "fig4_dabs_41.6")
SEC5 = ("sec5_proposed_mix", "sec5_as_performed")
SHIPPED = FIG2 + FIG4 + SEC5

# (section, key) -> (low, high) multiplicative factor
_PERTURB = {
    "fig2": {
        ("eit", "gamma_gs"): (0.9, 1.1),
        ("eit", "delta_control"): (0.95, 1.05),
        ("eit", "omega_c"): (0.95, 1.05),
        ("eit", "depth"): (0.95, 1.05),
        ("absorber", "omega_a"): (0.9, 1.1),
        ("absorber", "gamma_ab"): (0.95, 1.05),
    },
    "fig4": {
        ("eit", "gamma_gs"): (0.9, 1.1),
        ("eit", "omega_c"): (0.95, 1.05),
        ("eit", "depth"): (0.95, 1.05),
        ("absorber", "omega_a"): (0.95, 1.05),
        ("absorber", "gamma_cb"): (0.8, 1.2),
    },
    "sec5": {
        ("eit", "gamma_gs"): (0.9, 1.1),
        ("eit", "depth"): (0.95, 1.05),
        ("absorber", "omega_a"): (0.95, 1.05),
        ("absorber", "delta_2"): (0.95, 1.05),
        ("options", "delta_a"): (0.95, 1.05),
        ("options", "target_depth_ratio"): (0.95, 1.1),
    },
}

# A step is one whole cycle of a workload's fixed mix of request kinds, and
# the unit that request_s.* time, so no median has to pick between kinds that
# differ in cost by up to 1000x.  No usage log exists for lambda-mixer, so the
# shares below are not drawn from real traffic.  They are chosen so that each
# kind carries a similar share of step time, which every run measures and
# prints (``time_share`` in its record).

# cli-cold: one invocation of each command per step; scan output flags rotate by step
CLI_KINDS = ("scan-dabs", "scan-detuning", "design", "noise")
CLI_SCAN_FLAGS = (("--out",), ("--out", "--json"), ("--out", "--svg"), ())
CLI_DESIGN_FLAGS = ((), ("--json",))

# dabs-sweep: a fig2-sized depth scan and a large detuning grid per step
DABS_KINDS = ("sweep_absorber_depth", "sweep_detuning")
LARGE_GRID_POINTS = 20001
FIG2_DEPTHS = 60
FIG2_INNER = 401

# point-queries: calls per step, sized so that each kind takes about a fifth of
# the step (per call on a 2-vCPU x86_64 VM: adaptive-rk ~6 ms, exact sweep
# ~0.5 ms, full_report ~0.3 ms, propagate ~18 us, noise ratio ~2 us)
POINT_COUNTS = {
    "propagate": 350,
    "adaptive_rk": 1,
    "full_report": 22,
    "exact_sweep": 12,
    "noise_ratio": 2800,
}
# each kind spread evenly over the step
POINT_CYCLE = tuple(
    kind
    for _, kind in sorted(
        ((k + 0.5) / n, kind) for kind, n in POINT_COUNTS.items() for k in range(n)
    )
)
POOL = 6  # distinct variants per request kind and run


def _shipped_text(name: str) -> str:
    return (SHIPPED_DIR / f"{name}.toml").read_text(encoding="utf-8")


def _set_key(text: str, section: str, key: str, value: str) -> str:
    """Replace ``key = ...`` inside ``[section]``, appending it if absent."""
    out, current, done = [], None, False
    for line in text.splitlines():
        head = re.match(r"^\[(\w+)\]\s*$", line)
        if head:
            if current == section and not done:
                out.append(f"{key} = {value}")
                done = True
            current = head.group(1)
        elif current == section and re.match(rf"^{key}\s*=", line):
            line = f"{key} = {value}"
            done = True
        out.append(line)
    if not done:
        if current != section:
            out.append(f"[{section}]")
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def _get_key(text: str, section: str, key: str) -> float:
    current = None
    for line in text.splitlines():
        head = re.match(r"^\[(\w+)\]\s*$", line)
        if head:
            current = head.group(1)
            continue
        m = re.match(rf"^{key}\s*=\s*([^#]+)", line)
        if current == section and m:
            return float(m.group(1))
    raise KeyError(f"{section}.{key}")


def variant_text(rng: random.Random, base: str, regime: str) -> str:
    """A shipped scenario with each perturbable value scaled by a seeded factor."""
    text = _shipped_text(base)
    for (section, key), (lo, hi) in _PERTURB[regime].items():
        value = _get_key(text, section, key) * rng.uniform(lo, hi)
        text = _set_key(text, section, key, repr(value))
    return text


def scenario_files(seed: int) -> dict[str, str]:
    """Seeded scenario variants for one run: file stem -> TOML text."""
    rng = random.Random(seed)
    files = {}
    for i in range(POOL):
        files[f"fig2_v{i}"] = variant_text(rng, FIG2[0], "fig2")
        files[f"fig4_v{i}"] = variant_text(rng, FIG4[i % len(FIG4)], "fig4")
        sec5 = variant_text(rng, SEC5[i % len(SEC5)], "sec5")
        files[f"sec5_v{i}"] = sec5
        files[f"sec5x_v{i}"] = _set_key(sec5, "options", "exact_absorber", "true")
    return files


def cli_pools(seed: int) -> dict[str, list[str]]:
    """Scenario arguments per CLI command: shipped names and variant stems.

    Every command is paired with every shipped scenario it accepts (design
    needs the sec5 Raman-control detuning) and with the seeded variants.
    """
    rng = random.Random(seed * 7919 + 1)
    variants = [f"{r}_v{i}" for r in ("fig2", "fig4", "sec5") for i in range(POOL)]
    sec5_variants = [f"sec5_v{i}" for i in range(POOL)]
    pools = {
        "scan-dabs": list(SHIPPED) + variants,
        "scan-detuning": list(SHIPPED) + variants,
        "design": list(SEC5) + sec5_variants,
        "noise": list(SHIPPED) + variants,
    }
    for pool in pools.values():
        rng.shuffle(pool)
    return pools


def cli_request(pools: dict[str, list[str]], i: int) -> dict:
    """The i-th cold CLI request: command, scenario argument and output flags."""
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    cycle = i // len(CLI_KINDS)
    pool = pools[kind]
    scenario = pool[cycle % len(pool)]
    if kind.startswith("scan"):
        flags = CLI_SCAN_FLAGS[cycle % len(CLI_SCAN_FLAGS)]
    elif kind == "design":
        flags = CLI_DESIGN_FLAGS[cycle % len(CLI_DESIGN_FLAGS)]
    else:
        flags = ()
    return {"kind": kind, "scenario": scenario, "flags": list(flags)}


def dabs_request(i: int) -> dict:
    kind = DABS_KINDS[i % len(DABS_KINDS)]
    j = (i // len(DABS_KINDS)) % POOL
    scenario = f"fig2_v{j}" if kind == "sweep_absorber_depth" else f"fig4_v{j}"
    return {"kind": kind, "scenario": scenario, "variant": j}


def point_inputs(seed: int) -> dict[str, list]:
    """Seeded parameter pools for point-queries.

    propagate inputs are (medium, complex absorber loss, detuning, fields)
    drawn around the shipped media like the library's own cross-checks;
    noise-ratio inputs are (medium, absorber depth).  Loss, detuning and
    exact-sweep sizes are stratified, so the cost mix (adaptive-rk time grows
    with the loss) is nearly the same for every seed.
    """
    rng = random.Random(seed * 104729 + 2)
    media = []
    for base in ("fig2", "sec5"):
        for _ in range(POOL // 2):
            media.append(
                {
                    "gamma_ge": 300.0,
                    "gamma_gs": (0.033189889272 if base == "fig2" else 0.064)
                    * rng.uniform(0.9, 1.1),
                    "delta_control": 3036.0 * rng.uniform(0.95, 1.05),
                    "omega_c": 50.0 * rng.uniform(0.95, 1.05),
                    "depth": (6.465019137871 if base == "fig2" else 15.0) * rng.uniform(0.9, 1.1),
                }
            )
    n = 8 * POOL

    def stratum(k: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (k + rng.random()) / n

    propagate = []
    for i in range(n):
        propagate.append(
            {
                "eit": media[i % len(media)],
                "loss": [stratum(i, 0.0, 20.0), rng.uniform(-3.0, 3.0)],
                "delta": stratum(i * 29 % n, -30.0, 30.0),
                "fields": [rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)],
            }
        )
    noise = [{"eit": media[i % len(media)], "d_abs": rng.uniform(5.0, 50.0)} for i in range(POOL)]
    sizes = [11 + round(90 * (k + rng.random()) / POOL) for k in range(POOL)]
    sweeps = [{"scenario": f"sec5x_v{i}", "points": sizes[i]} for i in range(POOL)]
    return {"propagate": propagate, "noise": noise, "sweeps": sweeps}


def point_request(pools: dict[str, list], i: int) -> dict:
    kind = POINT_CYCLE[i % len(POINT_CYCLE)]
    n = i // len(POINT_CYCLE)
    if kind == "propagate":
        j = (i * 7 + n) % len(pools["propagate"])
    elif kind == "adaptive_rk":  # one per step, stepping through every loss stratum
        j = n % len(pools["propagate"])
    elif kind == "full_report":
        j = (i + n) % POOL
    elif kind == "exact_sweep":
        j = (i + n) % len(pools["sweeps"])
    else:
        j = (i + n) % len(pools["noise"])
    return {"kind": kind, "index": j}


def request_points(request: dict, pools: dict | None = None) -> int:
    """Grid points a request completes, at the stated grid sizes."""
    kind = request["kind"]
    if kind in ("scan-dabs", "sweep_absorber_depth"):
        return FIG2_DEPTHS * FIG2_INNER
    if kind == "scan-detuning":
        return FIG2_INNER
    if kind == "sweep_detuning":
        return LARGE_GRID_POINTS
    if kind == "exact_sweep":
        return pools["sweeps"][request["index"]]["points"]
    return 1


def sample_indices(seed: int, key: str, n: int, k: int) -> list[int]:
    """k distinct seeded indices in range(n), sorted."""
    rng = random.Random(f"{seed}:{key}")
    return sorted(rng.sample(range(n), min(k, n)))

