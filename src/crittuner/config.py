"""Flat key-value experiment configuration.

The format is plain ``key = value`` lines with dotted section prefixes and
``#`` comments. The network is an ordered list of block lines::

    seed = 42
    data.source = gaussian-synthetic
    data.batch = 256
    net.input = 784
    net.block.01 = dense out=500 sigma_w=1.4142135623730951 sigma_b=0.0
    net.block.02 = act kind=relu boundary
    measure.k = 1
    tune.loss = jll
    tune.eta = 0.05
    scan.axis.sigma_w = 0.5 3.0 6

Parsing and serialization round-trip exactly; floats are written with
``repr`` so the text form is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .blocks import OPS, BlockSpec, NetworkSpec
from .tuner import TuneConfig


class ConfigError(ValueError):
    """Malformed configuration; message carries line/field context."""


_ALIAS_TO_KIND = {op.alias: kind for kind, op in OPS.items()}
_SCAN_AXES = {"eta"} | {f for op in OPS.values() for f in op.scan}


@dataclass
class DataConfig:
    source: str = "gaussian-synthetic"   # gaussian-synthetic | cifar10-binary
    path: str = ""
    batch: int = 64
    normalize: bool = True


@dataclass
class MeasureConfig:
    k: int = 1
    method: str = "auto"                 # auto | exact | estimate
    n_v: int = 16
    param_samples: int = 1


@dataclass
class ScanAxis:
    name: str                            # sigma_w | sigma_b | mu | eta | eps_ls
    lo: float
    hi: float
    points: int


@dataclass
class ScanConfig:
    mode: str = "measure"                # measure | tune
    axes: list = field(default_factory=list)


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    network: NetworkSpec | None = None
    measure: MeasureConfig = field(default_factory=MeasureConfig)
    tune: TuneConfig = field(default_factory=lambda: TuneConfig(eta=0.05))
    scan: ScanConfig = field(default_factory=ScanConfig)
    verify_suites: list = field(default_factory=list)


# --------------------------------------------------------------------------
# block lines
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def block_to_line(blk: BlockSpec) -> str:
    op = OPS[blk.kind]
    parts = [op.alias]
    for a in op.attrs:
        value = getattr(blk, a.field)
        if not (a.omit_default and value == a.default):
            parts.append(f"{a.key}={_fmt(value)}")
    if blk.boundary:
        parts.append("boundary")
    return " ".join(parts)


def block_from_line(line: str) -> BlockSpec:
    tokens = line.split()
    if not tokens:
        raise ConfigError("empty block line")
    alias, attrs = tokens[0], tokens[1:]
    kind = _ALIAS_TO_KIND.get(alias)
    if kind is None:
        raise ConfigError(f"unknown block kind {alias!r}")
    kv: dict[str, str] = {}
    boundary = False
    for tok in attrs:
        if tok == "boundary":
            boundary = True
            continue
        if "=" not in tok:
            raise ConfigError(f"bad block attribute {tok!r}")
        k, v = tok.split("=", 1)
        kv[k] = v
    blk = BlockSpec(kind, boundary=boundary)
    for a in OPS[kind].attrs:
        if a.key in kv:
            try:
                setattr(blk, a.field, a.cast(kv.pop(a.key)))
            except ValueError:
                raise ConfigError(f"bad value for {a.key!r} in block {alias!r}") from None
        elif a.default is None:
            raise ConfigError(f"block {alias!r} needs attribute {a.key!r}")
        else:
            setattr(blk, a.field, a.default)
    if kv:
        raise ConfigError(f"unknown attributes {sorted(kv)} for block {alias!r}")
    return blk


def network_to_lines(spec: NetworkSpec) -> list[str]:
    lines = [f"net.input = {' '.join(str(d) for d in spec.input_shape)}"]
    for n, blk in enumerate(spec.blocks, start=1):
        lines.append(f"net.block.{n:02d} = {block_to_line(blk)}")
    return lines


# --------------------------------------------------------------------------
# whole-file parse / serialize
# --------------------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(v: str, key: str) -> bool:
    if v.lower() not in _BOOL:
        raise ConfigError(f"{key}: expected true/false, got {v!r}")
    return _BOOL[v.lower()]


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    blocks: list[tuple[int, BlockSpec]] = []
    input_shape: tuple[int, ...] | None = None
    tune_kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            _apply_key(cfg, key, value, blocks, tune_kv)
            if key == "net.input":
                input_shape = tuple(int(t) for t in value.split())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    if blocks:
        if input_shape is None:
            raise ConfigError("net.block lines present but net.input missing")
        blocks.sort(key=lambda p: p[0])
        try:
            cfg.network = NetworkSpec(tuple(b for _, b in blocks), input_shape)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    _apply_tune(cfg, tune_kv)
    return cfg


def _apply_key(cfg: ExperimentConfig, key: str, value: str, blocks, tune_kv):
    if key == "seed":
        cfg.seed = int(value)
    elif key == "data.source":
        if value not in ("gaussian-synthetic", "cifar10-binary"):
            raise ConfigError(f"unknown data source {value!r}")
        cfg.data.source = value
    elif key == "data.path":
        cfg.data.path = value
    elif key == "data.batch":
        cfg.data.batch = int(value)
        if cfg.data.batch < 1:
            raise ConfigError("data.batch must be >= 1")
    elif key == "data.normalize":
        cfg.data.normalize = _parse_bool(value, key)
    elif key == "net.input":
        pass  # handled by caller (order-independent w.r.t. block lines)
    elif key.startswith("net.block."):
        try:
            idx = int(key.rsplit(".", 1)[1])
        except ValueError:
            raise ConfigError(f"bad block index in {key!r}") from None
        blocks.append((idx, block_from_line(value)))
    elif key in ("measure.k", "measure.n_v", "measure.param_samples"):
        n = int(value)
        if n < 1:
            raise ConfigError(f"{key} must be >= 1")
        setattr(cfg.measure, key[len("measure."):], n)
    elif key == "measure.method":
        if value not in ("auto", "exact", "estimate"):
            raise ConfigError(f"unknown measure method {value!r}")
        cfg.measure.method = value
    elif key.startswith("tune.") and key[5:] in _TUNE_KEYS:
        tune_kv[key[5:]] = value
    elif key == "scan.mode":
        if value not in ("measure", "tune"):
            raise ConfigError(f"unknown scan mode {value!r}")
        cfg.scan.mode = value
    elif key.startswith("scan.axis."):
        name = key[len("scan.axis."):]
        if name not in _SCAN_AXES:
            raise ConfigError(f"unknown scan axis {name!r}")
        parts = value.split()
        if len(parts) != 3:
            raise ConfigError(f"scan axis needs 'min max points', got {value!r}")
        lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
        if pts < 1:
            raise ConfigError("scan axis needs at least one point")
        cfg.scan.axes.append(ScanAxis(name, lo, hi, pts))
    elif key == "verify.suites":
        cfg.verify_suites = value.split()
    else:
        raise ConfigError(f"unknown key {key!r}")


_TUNE_KEYS = {
    "loss": ("loss", str),
    "lambda": ("lam", float),
    "eta": ("eta", float),
    "schedule": ("schedule", str),
    "bound_safety": ("bound_safety", float),
    "steps": ("t_max", int),
    "epsilon": ("eps", float),
    "n_v": ("n_v", int),
    "grad": ("grad_mode", str),
    "fresh_batch": ("fresh_batch", None),
    "aux": ("aux_groups", None),
}


def _apply_tune(cfg: ExperimentConfig, kv: dict[str, str]):
    updates = {}
    for k, v in kv.items():
        attr, cast = _TUNE_KEYS[k]
        if k == "fresh_batch":
            updates[attr] = _parse_bool(v, f"tune.{k}")
        elif k == "aux":
            updates[attr] = v if v in ("default", "all", "none") else frozenset(v.split(","))
        else:
            updates[attr] = cast(v)
    try:
        cfg.tune = replace(cfg.tune, **updates)
    except ValueError as exc:
        raise ConfigError(f"tune: {exc}") from None


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"seed = {cfg.seed}", ""]
    d = cfg.data
    lines += [f"data.source = {d.source}"]
    if d.path:
        lines.append(f"data.path = {d.path}")
    lines += [f"data.batch = {d.batch}", f"data.normalize = {str(d.normalize).lower()}", ""]
    if cfg.network is not None:
        lines += network_to_lines(cfg.network) + [""]
    m = cfg.measure
    lines += [f"measure.k = {m.k}", f"measure.method = {m.method}", f"measure.n_v = {m.n_v}",
              f"measure.param_samples = {m.param_samples}", ""]
    t = cfg.tune
    aux = t.aux_groups if isinstance(t.aux_groups, str) else ",".join(sorted(t.aux_groups))
    lines += [f"tune.loss = {t.loss}", f"tune.lambda = {_fmt(t.lam)}"]
    if t.eta is not None:
        lines.append(f"tune.eta = {_fmt(t.eta)}")
    lines += [f"tune.schedule = {t.schedule}", f"tune.bound_safety = {_fmt(t.bound_safety)}",
              f"tune.steps = {t.t_max}", f"tune.epsilon = {_fmt(t.eps)}",
              f"tune.n_v = {t.n_v}", f"tune.grad = {t.grad_mode}",
              f"tune.fresh_batch = {str(t.fresh_batch).lower()}", f"tune.aux = {aux}", ""]
    s = cfg.scan
    lines.append(f"scan.mode = {s.mode}")
    for ax in s.axes:
        lines.append(f"scan.axis.{ax.name} = {_fmt(ax.lo)} {_fmt(ax.hi)} {ax.points}")
    if cfg.verify_suites:
        lines.append(f"verify.suites = {' '.join(cfg.verify_suites)}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)
