"""Command-line surface: measure, tune, scan, verify.

Every command reads one flat config file. Results go to ``--out`` (CSV by
default, JSON with ``--format json``) or stdout. Exit codes: 0 success,
2 configuration problem, 3 divergence (a non-finite tuning loss, or a
non-finite norm or kernel in a measurement), 4 verification failure.
Scans parallelize over grid points with one independent random stream per
point (stream id = point index), so results never depend on worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .apjn import apjn_profile
from .blocks import OPS, AuxScalars, NetworkSpec, forward, init_params
from .config import (
    ConfigError,
    ExperimentConfig,
    ScanAxis,
    load_config,
    network_to_lines,
)
from .data import FormatError, make_batch
from .losses import kernel_profile
from .meanfield import relu_dynamics
from .tensor import RngStream
from .tuner import DivergenceError, TuneTrace, tune
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

BAND = (0.8, 1.25)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crit-tuner",
        description="Measure block-to-block Jacobian norms and tune networks to criticality.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("measure", "per-pair Jacobian norms and boundary kernels"),
        ("tune", "run the scalar-tuning loop and emit the trace"),
        ("scan", "grid scan over hyperparameters"),
        ("verify", "run oracle-equivalence suites"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _require_network(cfg: ExperimentConfig) -> NetworkSpec:
    if cfg.network is None:
        raise ConfigError("config defines no network (net.input / net.block lines)")
    return cfg.network


def _setup(cfg: ExperimentConfig, seed: int, stream_id: int = 0):
    net = _require_network(cfg)
    rng = RngStream(seed, stream_id)
    batch = make_batch(cfg.data, net.input_shape, rng.child(1))
    params = init_params(net, rng.child(2))
    return net, rng, batch, params


# --------------------------------------------------------------------------
# measure
# --------------------------------------------------------------------------

def _measure(cfg: ExperimentConfig, seed: int, stream_id: int = 0):
    """Norm report of the configured network and the boundary kernels of its first draw."""
    net, rng, batch, params = _setup(cfg, seed, stream_id)
    aux = AuxScalars.ones(net, "none")
    m = cfg.measure
    report = apjn_profile(net, params, aux, batch, m.k, method=m.method, n_v=m.n_v,
                          n_param_samples=m.param_samples, rng=rng.child(3),
                          probe_mode=m.probe_mode)
    return report, kernel_profile(forward(net, params, aux, batch))


def _first_non_finite(report, kernels) -> str | None:
    """Names the first non-finite norm, else kernel, of a measurement; None if all are finite."""
    for p in report.pairs:
        if not np.isfinite(p.value):
            return f"norm of pair ({p.l0}, {p.l}) is {p.value}"
    for i, v in enumerate(kernels):
        if not np.isfinite(v):
            return f"kernel at boundary {i} is {v}"
    return None


def cmd_measure(cfg: ExperimentConfig, args) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    report, kernels = _measure(cfg, seed)
    if args.format == "json":
        doc = {
            "apjn": [vars(p) for p in report.pairs],
            "kernels": [{"boundary": i, "value": float(v)} for i, v in enumerate(kernels)],
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit("\n".join(report.csv_rows()), args.out)
        krows = ["boundary,kernel"] + [f"{i},{v:.12g}" for i, v in enumerate(kernels)]
        _emit("\n".join(krows), _sibling(args.out, ".kernels.csv"))
    bad = _first_non_finite(report, kernels)
    if bad is not None:
        sys.stderr.write(f"divergence: {bad}\n")
        return EXIT_DIVERGED
    return EXIT_OK


def _sibling(out: str | None, suffix: str) -> str | None:
    if out is None:
        return None
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + suffix


# --------------------------------------------------------------------------
# tune
# --------------------------------------------------------------------------

def _trace_json(trace: TuneTrace) -> list[dict]:
    return [
        {"t": s.t, "loss": s.loss, "js": [float(v) for v in s.js],
         "aux": [float(v) for v in s.aux], "eta": s.eta}
        for s in trace.steps
    ]


def cmd_tune(cfg: ExperimentConfig, args) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    net, rng, batch, params = _setup(cfg, seed)

    def provider(t: int):
        return make_batch(cfg.data, net.input_shape, rng.child(90_000 + t))

    try:
        result = tune(net, params, batch, cfg.tune, rng.child(3),
                      batch_provider=provider if cfg.tune.fresh_batch else None)
    except DivergenceError as exc:
        sys.stderr.write(f"divergence: {exc}\n")
        if args.format == "json":
            _emit(json.dumps({"status": "diverged", "trace": _trace_json(exc.trace)},
                             indent=2), args.out)
        else:
            _emit("\n".join(exc.trace.csv_rows()), args.out)
        return EXIT_DIVERGED
    net_lines = network_to_lines(result.spec)
    if args.format == "json":
        doc = {"status": "ok", "converged": result.converged,
               "steps_used": result.steps_used, "trace": _trace_json(result.trace),
               "network": net_lines,
               "aux": {f"{i}:{g}": v for (i, g), v in result.aux.values.items()}}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit("\n".join(result.trace.csv_rows()), args.out)
        _emit("\n".join(net_lines), _sibling(args.out, ".network.cfg"))
    return EXIT_OK


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------

def _axis_values(ax: ScanAxis) -> np.ndarray:
    return np.linspace(ax.lo, ax.hi, ax.points)


def _apply_axis(cfg: ExperimentConfig, name: str, value: float) -> ExperimentConfig:
    cfg = replace(cfg)
    if name == "eta":
        cfg.tune = replace(cfg.tune, eta=float(value))
        return cfg
    net = _require_network(cfg)
    blocks = [replace(blk, **{name: float(value)}) if name in OPS[blk.kind].scan else blk
              for blk in net.blocks]
    cfg.network = NetworkSpec(tuple(blocks), net.input_shape)
    return cfg


def _predicted_converged(cfg: ExperimentConfig) -> str:
    """Exact-map stability prediction for uniform-gain ReLU stacks, else ''."""
    net = cfg.network
    t = cfg.tune
    if t.loss not in ("jll", "jsl") or t.schedule != "constant":
        return ""
    kinds = {b.kind for b in net.blocks}
    if kinds != {"dense", "activation"}:
        return ""
    if any(b.kind == "activation" and b.act != "relu" for b in net.blocks):
        return ""
    sw = {b.sigma_w for b in net.blocks if b.kind == "dense"}
    sb = {b.sigma_b for b in net.blocks if b.kind == "dense"}
    if len(sw) != 1 or sb != {0.0}:
        return ""
    sigma_w = sw.pop()
    j0 = np.full(net.n_boundaries - 1, sigma_w ** 2 / 2.0)
    traj = relu_dynamics(j0, sigma_w, t.eta, t.t_max, t.loss)
    tail = traj.values[-min(10, t.t_max):]
    ok = bool(np.all(np.isfinite(tail)) and np.all((tail > BAND[0]) & (tail < BAND[1])))
    return "1" if ok else "0"


def _scan_point(cfg: ExperimentConfig, names, values, seed: int, index: int) -> dict:
    for name, value in zip(names, values):
        cfg = _apply_axis(cfg, name, value)
    net = _require_network(cfg)
    row = {name: float(v) for name, v in zip(names, values)}
    row["point"] = index
    try:
        diverged = False
        if cfg.scan.mode == "measure":
            report, kernels = _measure(cfg, seed, stream_id=index)
            js = report.values()
            diverged = _first_non_finite(report, kernels) is not None
            row["steps"] = 0
        else:
            net, rng, batch, params = _setup(cfg, seed, stream_id=index)
            result = tune(net, params, batch, cfg.tune, rng.child(3))
            js = np.asarray(result.trace.steps[-1].js)
            row["steps"] = result.steps_used
        row["j_min"] = float(np.min(js))
        row["j_max"] = float(np.max(js))
        row["converged"] = int(not diverged and bool(np.all((js > BAND[0]) & (js < BAND[1]))))
        row["status"] = "diverged" if diverged else "ok"
        row["js"] = [float(v) for v in js]
    except DivergenceError:
        row.update(steps=cfg.tune.t_max, j_min=float("nan"), j_max=float("nan"),
                   converged=0, status="diverged", js=[])
    row["predicted"] = _predicted_converged(cfg) if cfg.scan.mode == "tune" else ""
    return row


def cmd_scan(cfg: ExperimentConfig, args) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    axes = cfg.scan.axes
    if not 1 <= len(axes) <= 2:
        raise ConfigError("scan needs one or two axes")
    names = [ax.name for ax in axes]
    grids = [_axis_values(ax) for ax in axes]
    mesh = [g.ravel() for g in np.meshgrid(*grids, indexing="ij")]
    points = list(zip(*mesh))
    workers = max(1, args.workers)
    if workers == 1:
        rows = [_scan_point(cfg, names, vals, seed, i) for i, vals in enumerate(points)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda iv: _scan_point(cfg, names, iv[1], seed, iv[0]),
                                 enumerate(points)))
    n_js = max((len(r["js"]) for r in rows), default=0)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
        return EXIT_OK
    cols = ["point"] + names + [f"J_{i}" for i in range(n_js)] + \
        ["j_min", "j_max", "converged", "steps", "status", "predicted"]
    lines = [",".join(cols)]
    for r in rows:
        js = r["js"] + [float("nan")] * (n_js - len(r["js"]))
        cells = [str(r["point"])] + [f"{r[n]:.10g}" for n in names]
        cells += [f"{v:.10g}" for v in js]
        cells += [f"{r['j_min']:.10g}", f"{r['j_max']:.10g}", str(r["converged"]),
                  str(r["steps"]), r["status"], r["predicted"]]
        lines.append(",".join(cells))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(cfg: ExperimentConfig, args) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    names = cfg.verify_suites or sorted(SUITES)
    try:
        results = run_suites(names, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [r.line() for r in results]
    if args.format == "json":
        _emit(json.dumps([vars(r) for r in results], indent=2), args.out)
    else:
        _emit("\n".join(lines), args.out)
    if args.out is not None:
        for line in lines:
            sys.stdout.write(line + "\n")
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "measure":
            return cmd_measure(cfg, args)
        if args.command == "tune":
            return cmd_tune(cfg, args)
        if args.command == "scan":
            return cmd_scan(cfg, args)
        return cmd_verify(cfg, args)
    except (ConfigError, FormatError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
