"""Command-line front end.

Subcommands:
  analyze    run selected criterion checkers on a model preset
  hierarchy  run the model's full criterion table with implication checks
  mcwf       Monte-Carlo wave-function run against the master-equation oracle
  mcsm       classical jump-diffusion sampler with analytic moment checks

Exit codes: 0 on completion; 1 when --assert-pass is given and something
fails, when an implication edge is violated, or on a sampler run failure
(a negative rate, or a step probability of 0.1 or more, raised while
sampling); 2 on usage errors, i.e. anything the arguments decide. The
samplers check those before sampling: the spec and method names, a positive
integer M and --jobs, a finite positive --dt and --tmax, and an output grid
that --dt divides. A config value of the wrong JSON type (M, jobs and seed
must be integers; dt, tmax, tol, t0, t1 and t2 real numbers) is a usage
error too. Identical configuration and seed produce byte-identical output
files; wall-clock timing is only embedded when --timing is passed.
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


def _number(args, cfg, key: str, default=None, integer: bool = False):
    """A numeric setting from the flags or the config: an integer (`M`,
    `jobs`, `seed`) or a real number, never a bool, so that a config value
    of the wrong JSON type is a usage error rather than a traceback or a
    silent truncation. A setting without a default may be unset (None)."""
    val = _merged(args, cfg, key, default)
    if val is None and default is None:
        return None
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ValueError(f"{key} must be {'an integer' if integer else 'a real number'}, "
                         f"got {val!r}")
    return val


def _seed_from(args, cfg) -> int:
    seed = _number(args, cfg, "seed", integer=True)
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
    from .criteria import criterion_settings, run_criteria
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
    grid_text, tol = _merged(args, cfg, "grid"), _number(args, cfg, "tol")
    if tol is not None and not 0 <= float(tol) < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    started = time.perf_counter()
    settings = criterion_settings(
        model, names, times=[_number(args, cfg, k) for k in ("t0", "t1", "t2")],
        grid=_parse_grid(grid_text) if grid_text else None,
        tol=None if tol is None else float(tol))
    reports = list(run_criteria(model, settings, seed).values())
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


def _sampler_args(args, specs: dict, m_default: int, grid_rule):
    """The config file, summary config, output grid, chunk count and output
    stem of a sampler run; the first key of `specs` is the default spec.

    Everything the arguments decide is checked here, before sampling, and a
    bad value raises ValueError: a usage error (exit 2). `dt` is checked
    before `grid_rule(dt, tmax)` builds the grid, which needs it.
    """
    from .unravel import _prepare_grid, _require_samples
    cfg = _load_config(args.config)
    known = tuple(specs)
    spec = _merged(args, cfg, "spec", known[0])
    if spec not in known:
        raise ValueError(f"unknown spec '{spec}'; known: {known}")
    m = _number(args, cfg, "M", m_default, integer=True)
    _require_samples(m)
    dt = float(_number(args, cfg, "dt", 1e-3))
    t_max = float(_number(args, cfg, "tmax", 1.0))
    jobs = _number(args, cfg, "jobs", 1, integer=True)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite positive step, got {dt}")
    if not 0 < t_max < math.inf:
        raise ValueError(f"tmax must be a finite positive time, got {t_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be a positive number of chunks, got {jobs}")
    grid = grid_rule(dt, t_max)
    _prepare_grid(grid, dt)
    config = {"command": args.command, "spec": spec, "M": m, "dt": dt, "tmax": t_max,
              "seed": _seed_from(args, cfg)}
    return cfg, config, grid, jobs, _merged(args, cfg, "out", f"{args.command}-{spec}")


def _run_failure(exc: ValueError) -> int:
    """A sampler raised while it ran (a negative rate, a step probability of
    0.1 or more): a run failure, exit 1."""
    print(f"error: {exc}", file=sys.stderr)
    return FAILURE


def _oracle_deviation(mean, target, se) -> tuple:
    """The largest |mean - target| and |mean - target| / se over the grid
    times where se > 0; None for both when no such time exists."""
    se = np.asarray(se, dtype=float)
    resolved = se > 0
    if not resolved.any():
        return None, None
    dev = np.abs(np.asarray(mean, dtype=float) - np.asarray(target, dtype=float))[resolved]
    return float(dev.max()), float(np.max(dev / se[resolved]))


def _write_summary(args, out: str, config: dict, max_sigma, **fields) -> int:
    """Write a sampler run's JSON summary and return its exit code: 1 only
    when --assert-pass is given and a resolved time is off by over 3 sigma."""
    from .serialize import write_json
    within = None if max_sigma is None else bool(max_sigma <= 3.0)
    write_json(f"{out}.json", {"artifact_version": ARTIFACT_VERSION, "config": config,
                               "max_sigma_deviation": max_sigma, "within_3_sigma": within,
                               **fields})
    print(f"wrote {out}.csv and {out}.json")
    return FAILURE if args.assert_pass and within is False else OK


def cmd_mcwf(args) -> int:
    from .core import SM
    from .models import eternal_me
    from .serialize import write_csv
    from .superop import LindbladSpec, me_integrate
    from .unravel import mcwf_jump, mcwf_diffusive, ensemble_to_rows
    specs = {"decay": lambda: LindbladSpec(2, None, [(SM, 2.0)]),
             "eternal": lambda: eternal_me().lindblad_spec()}
    runners = {"jump": mcwf_jump, "diffusive": mcwf_diffusive}
    cfg, config, grid, jobs, out = _sampler_args(
        args, specs, 5000,
        lambda dt, t_max: np.round(np.arange(0.0, t_max + dt / 2, max(dt, t_max / 10)), 12))
    config["method"] = method = _merged(args, cfg, "method", "jump")
    if method not in tuple(runners):
        raise ValueError(f"unknown method '{method}'; known: {tuple(runners)}")
    m, dt = config["M"], config["dt"]
    spec = specs[config["spec"]]()
    psi0 = np.array([0.0, 1.0], dtype=complex)    # excited state
    try:
        ens = runners[method](spec, psi0, grid, m, config["seed"], dt=dt, jobs=jobs)
    except ValueError as exc:
        return _run_failure(exc)
    write_csv(f"{out}.csv", *ensemble_to_rows(ens))
    # excited-population comparison against the integrated master equation;
    # per-time 1-D reductions: an axis-0 reduction changes the means' last bits
    me = me_integrate(spec, np.outer(psi0, psi0.conj()), grid, step=dt)
    series = []
    for i, t in enumerate(grid):
        pops = np.abs(ens.states[:, i, 1]) ** 2
        se = float(pops.std(ddof=1) / math.sqrt(m)) if m > 1 else float("nan")
        series.append({"t": float(t), "mean": float(pops.mean()), "se": se,
                       "me": float(np.real(me.states[i][1, 1]))})
    max_dev, max_sigma = _oracle_deviation(*([row[k] for row in series]
                                             for k in ("mean", "me", "se")))
    return _write_summary(args, out, config, max_sigma,
                          series=series, max_abs_deviation=max_dev)


def cmd_mcsm(args) -> int:
    from .classical import mcsm, ou_spec, ou_moments, paths_to_rows, poisson_spec
    from .serialize import write_csv
    k, sigma, rate = 1.0, 0.5, 1.0
    # name -> (SDE, x0, analytic (mean, variance) at time t from x0)
    specs = {"ou": (ou_spec(k, sigma), 1.0, lambda t: ou_moments(1.0, k, sigma, t)),
             "poisson": (poisson_spec(rate), 0.0, lambda t: (rate * t, rate * t))}
    _, config, grid, jobs, out = _sampler_args(
        args, specs, 10000, lambda dt, t_max: np.round(np.linspace(0.0, t_max, 6), 12))
    sde, x0, moments = specs[config["spec"]]
    try:
        res = mcsm(sde, [x0], grid, config["M"], config["seed"], dt=config["dt"], jobs=jobs)
    except ValueError as exc:
        return _run_failure(exc)
    if args.paths_out:
        write_csv(args.paths_out, *paths_to_rows(res))
    analytic = np.array([moments(float(t)) for t in grid])
    write_csv(f"{out}.csv",
              ["time", "mean", "variance", "se_mean", "analytic_mean", "analytic_var"],
              [grid, res.mean[:, 0], res.variance[:, 0], res.se_mean[:, 0],
               analytic[:, 0], analytic[:, 1]])
    _, max_sigma = _oracle_deviation(res.mean[:, 0], analytic[:, 0], res.se_mean[:, 0])
    return _write_summary(args, out, config, max_sigma)


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
