"""Command-line front end.

Subcommands:
  analyze    run selected criterion checkers on a model preset
  hierarchy  run the model's full criterion table with implication checks
  mcwf       Monte-Carlo wave-function run against the master-equation oracle
  mcsm       classical jump-diffusion sampler with analytic moment checks

Exit codes: 0 on completion, 1 when --assert-pass is given and something
fails (or an implication edge is violated, or a spec is rejected), 2 on
usage errors. Identical configuration and seed produce byte-identical
output files; wall-clock timing is only embedded when --timing is passed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .criteria import CRITERIA

ARTIFACT_VERSION = "0.1.0"

USAGE_ERROR, FAILURE, OK = 2, 1, 0


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    import json
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a flat JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _seed_from(args, cfg) -> int:
    seed = _merged(args, cfg, "seed")
    if seed is None:
        seed = os.environ.get("OQS_SEED")
    return int(seed) if seed is not None else 0


def _parse_grid(text: str) -> list:
    """Times from `start:stop:step` or a comma list."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        n = int(round((stop - start) / step)) if step > 0 and math.isfinite(stop - start) else -1
        grid = [start + i * step for i in range(n + 1)]
    else:
        grid = [float(x) for x in text.split(",")]
    if not grid or not all(map(math.isfinite, grid)) \
            or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid '{text}' is not a non-empty, strictly increasing list "
                         "of finite times (a step must be positive)")
    return grid


def _sample_count(args, cfg, default: int) -> int:
    m = int(_merged(args, cfg, "M", default))
    if m < 1:
        raise ValueError(f"M must be a positive number of samples, got {m}")
    return m


def _step_and_horizon(args, cfg) -> tuple[float, float]:
    dt = float(_merged(args, cfg, "dt", 1e-3))
    t_max = float(_merged(args, cfg, "tmax", 1.0))
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite positive step, got {dt}")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"tmax must be a finite non-negative time, got {t_max}")
    return dt, t_max


def _emit(args, cfg, payload, out_default: str):
    from .serialize import write_json, write_csv
    out = _merged(args, cfg, "out", out_default)
    fmt = _merged(args, cfg, "format", "json")
    if fmt == "json":
        write_json(out, payload)
    elif fmt == "csv":
        header = ["criterion", "verdict", "tolerance", "witness", "value"]
        rows = [(rep["criterion"], rep["verdict"], rep["tolerance"], k, float(v))
                for rep in payload.get("reports", [])
                for k, v in sorted(rep["witnesses"].items()) if isinstance(v, (int, float))]
        write_csv(out, header, list(zip(*rows)))
    else:
        raise ValueError(f"unknown format {fmt}")
    return out


def cmd_analyze(args) -> int:
    from .criteria import criterion_settings, run_criterion
    from .models import make_model, PRESETS
    cfg = _load_config(args.config)
    model_name = _merged(args, cfg, "model")
    crits = _merged(args, cfg, "criteria")
    if model_name not in PRESETS:
        print(f"error: unknown model '{model_name}'; known: {sorted(PRESETS)}",
              file=sys.stderr)
        return USAGE_ERROR
    names = [c.strip() for c in crits.split(",")] if isinstance(crits, str) else list(crits or [])
    bad = [c for c in names if c not in CRITERIA]
    if bad or not names:
        print(f"error: unknown or missing criteria {bad or '(none given)'}; "
              f"known: {CRITERIA}", file=sys.stderr)
        return USAGE_ERROR
    seed = _seed_from(args, cfg)
    model = make_model(model_name)
    grid_text, tol = _merged(args, cfg, "grid"), _merged(args, cfg, "tol")
    if tol is not None and not 0 <= float(tol) < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    started = time.perf_counter()
    settings = criterion_settings(
        model, names, times=[_merged(args, cfg, k) for k in ("t0", "t1", "t2")],
        grid=_parse_grid(grid_text) if grid_text else None,
        tol=None if tol is None else float(tol))
    reports = [run_criterion(c, model, settings[c], seed) for c in names]
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "config": {"command": "analyze", "model": model_name,
                   "criteria": names, "seed": seed},
        "reports": [r.to_dict() for r in reports],
        "timing": {"seconds": time.perf_counter() - started} if args.timing else None,
    }
    out = _emit(args, cfg, payload, f"analyze-{model_name}.json")
    print(f"wrote {out}")
    if args.assert_pass and any(r.verdict != "pass" for r in reports):
        return FAILURE
    return OK


def cmd_hierarchy(args) -> int:
    from .models import PRESETS
    from .criteria import hierarchy_report
    cfg = _load_config(args.config)
    model_name = _merged(args, cfg, "model")
    if model_name not in PRESETS:
        print(f"error: unknown model '{model_name}'; known: {sorted(PRESETS)}",
              file=sys.stderr)
        return USAGE_ERROR
    seed = _seed_from(args, cfg)
    started = time.perf_counter()
    rep = hierarchy_report(model_name, seed=seed)
    payload = {"artifact_version": ARTIFACT_VERSION,
               "config": {"command": "hierarchy", "model": model_name, "seed": seed},
               "reports": [r.to_dict() for r in rep.reports.values()],
               "implications": rep.implications,
               "consistent": rep.consistent,
               "extras": rep.extras,
               "timing": {"seconds": time.perf_counter() - started} if args.timing else None}
    out = _emit(args, cfg, payload, f"hierarchy-{model_name}.json")
    print(f"wrote {out}")
    for name, r in rep.reports.items():
        print(f"  {name:20s} {r.verdict}")
    if not rep.consistent:
        print("implication consistency VIOLATED", file=sys.stderr)
        return FAILURE
    if args.assert_pass and any(r.verdict == "fail" for r in rep.reports.values()):
        return FAILURE
    return OK


MCWF_SPECS = ("decay", "eternal")


def _mcwf_spec(name: str):
    from .core import SM
    from .superop import LindbladSpec
    from .models import eternal_me
    if name == "decay":
        return LindbladSpec(2, None, [(SM, 2.0)])
    if name == "eternal":
        return eternal_me().lindblad_spec()
    raise KeyError(name)


def cmd_mcwf(args) -> int:
    from .unravel import mcwf_jump, mcwf_diffusive, ensemble_to_rows
    from .serialize import write_csv, write_json
    cfg = _load_config(args.config)
    spec_name = _merged(args, cfg, "spec", "decay")
    if spec_name not in MCWF_SPECS:
        print(f"error: unknown spec '{spec_name}'; known: {MCWF_SPECS}", file=sys.stderr)
        return USAGE_ERROR
    seed = _seed_from(args, cfg)
    m = _sample_count(args, cfg, 5000)
    dt, t_max = _step_and_horizon(args, cfg)
    jobs = int(_merged(args, cfg, "jobs", 1))
    method = _merged(args, cfg, "method", "jump")
    grid = np.round(np.arange(0.0, t_max + dt / 2, max(dt, t_max / 10)), 12)
    spec = _mcwf_spec(spec_name)
    psi0 = np.array([0.0, 1.0], dtype=complex)    # excited state
    runner = mcwf_jump if method == "jump" else mcwf_diffusive
    try:
        ens = runner(spec, psi0, grid, m, seed, dt=dt, jobs=jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    out = _merged(args, cfg, "out", f"mcwf-{spec_name}")
    write_csv(f"{out}.csv", *ensemble_to_rows(ens))
    # excited-population comparison against the integrated master equation
    from .superop import me_integrate
    me = me_integrate(spec, np.outer(psi0, psi0.conj()), grid, step=dt)
    max_dev, max_sigma = 0.0, 0.0
    summary_rows = []
    for i, t in enumerate(grid):
        pops = np.abs(ens.states[:, i, 1]) ** 2
        mean = float(pops.mean())
        se = float(pops.std(ddof=1) / math.sqrt(m)) if m > 1 else float("nan")
        target = float(np.real(me.states[i][1, 1]))
        summary_rows.append({"t": float(t), "mean": mean, "se": se, "me": target})
        if m > 1 and se > 0:
            max_dev = max(max_dev, abs(mean - target))
            max_sigma = max(max_sigma, abs(mean - target) / se)
    summary = {"artifact_version": ARTIFACT_VERSION,
               "config": {"command": "mcwf", "spec": spec_name, "M": m, "dt": dt,
                          "tmax": t_max, "seed": seed, "method": method},
               "series": summary_rows,
               "max_abs_deviation": max_dev if m > 1 else None,
               "max_sigma_deviation": max_sigma if m > 1 else None,
               "within_3_sigma": bool(max_sigma <= 3.0) if m > 1 else None}
    write_json(f"{out}.json", summary)
    print(f"wrote {out}.csv and {out}.json")
    if args.assert_pass and m > 1 and max_sigma > 3.0:
        return FAILURE
    return OK


MCSM_SPECS = ("ou", "poisson")


def cmd_mcsm(args) -> int:
    from .classical import mcsm, ou_spec, ou_moments, poisson_spec
    from .serialize import write_csv, write_json
    cfg = _load_config(args.config)
    spec_name = _merged(args, cfg, "spec", "ou")
    if spec_name not in MCSM_SPECS:
        print(f"error: unknown spec '{spec_name}'; known: {MCSM_SPECS}", file=sys.stderr)
        return USAGE_ERROR
    seed = _seed_from(args, cfg)
    m = _sample_count(args, cfg, 10000)
    dt, t_max = _step_and_horizon(args, cfg)
    jobs = int(_merged(args, cfg, "jobs", 1))
    grid = np.round(np.linspace(0.0, t_max, 6), 12)
    if spec_name == "ou":
        k, sigma, x0 = 1.0, 0.5, 1.0
        spec = ou_spec(k, sigma)
    else:
        rate, x0 = 1.0, 0.0
        spec = poisson_spec(rate)
    res = mcsm(spec, [x0], grid, m, seed, dt=dt, jobs=jobs)
    if getattr(args, "paths_out", None):
        from .classical import paths_to_rows
        write_csv(args.paths_out, *paths_to_rows(res))
    header = ["time", "mean", "variance", "se_mean", "analytic_mean", "analytic_var"]
    if spec_name == "ou":
        analytic = np.array([ou_moments(x0, k, sigma, float(t)) for t in grid])
    else:
        analytic = np.column_stack([rate * grid, rate * grid])
    se = res.se_mean[:, 0]
    resolved = se > 0
    max_sigma = float(np.max(np.abs(res.mean[resolved, 0] - analytic[resolved, 0])
                             / se[resolved], initial=0.0))
    out = _merged(args, cfg, "out", f"mcsm-{spec_name}")
    write_csv(f"{out}.csv", header, [grid, res.mean[:, 0], res.variance[:, 0],
                                     res.se_mean[:, 0], analytic[:, 0], analytic[:, 1]])
    summary = {"artifact_version": ARTIFACT_VERSION,
               "config": {"command": "mcsm", "spec": spec_name, "M": m, "dt": dt,
                          "tmax": t_max, "seed": seed},
               "max_sigma_deviation": max_sigma,
               "within_3_sigma": bool(max_sigma <= 3.0)}
    write_json(f"{out}.json", summary)
    print(f"wrote {out}.csv and {out}.json")
    if args.assert_pass and max_sigma > 3.0:
        return FAILURE
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oqmarkov",
                                description="Markovianity criterion checkers for "
                                            "small open quantum systems")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key-value JSON config; flags override")
        sp.add_argument("--seed", type=int, help="RNG seed (fallback: env OQS_SEED)")
        sp.add_argument("--jobs", type=int,
                        help="chunks a sampler run is split into; only the samplers "
                             "(mcwf, mcsm) read it, and outputs do not depend on it")
        sp.add_argument("--out", help="output path (or stem for csv+json pairs)")
        sp.add_argument("--assert-pass", action="store_true",
                        help="exit 1 if any requested criterion fails")
        sp.add_argument("--timing", action="store_true",
                        help="embed wall-clock timing (breaks byte reproducibility)")

    sp = sub.add_parser("analyze", help="run criterion checkers on a model")
    sp.add_argument("--model")
    sp.add_argument("--criteria", help="comma list from " + ",".join(CRITERIA))
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--t2", type=float)
    sp.add_argument("--grid", help="start:stop:step or comma list")
    sp.add_argument("--tol", type=float, help="criterion tolerance override")
    sp.add_argument("--format", choices=("json", "csv"))
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("hierarchy", help="full verdict table for a model")
    sp.add_argument("--model")
    sp.add_argument("--format", choices=("json", "csv"))
    common(sp)
    sp.set_defaults(func=cmd_hierarchy)

    sp = sub.add_parser("mcwf", help="Monte-Carlo wave-function run")
    sp.add_argument("--spec", help="named master-equation spec: decay | eternal")
    sp.add_argument("--method", choices=("jump", "diffusive"))
    sp.add_argument("--M", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--tmax", type=float)
    common(sp)
    sp.set_defaults(func=cmd_mcwf)

    sp = sub.add_parser("mcsm", help="classical jump-diffusion sampler")
    sp.add_argument("--spec", help="named SDE spec: ou | poisson")
    sp.add_argument("--M", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--paths-out", help="also write every sample path to this CSV")
    common(sp)
    sp.set_defaults(func=cmd_mcsm)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
