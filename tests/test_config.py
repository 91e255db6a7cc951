import math
from pathlib import Path

import pytest

from crittuner.blocks import NetworkSpec, conv2d, dense, flatten_block
from crittuner.config import (
    ConfigError,
    block_from_line,
    block_to_line,
    load_config,
    parse_config,
    serialize_config,
)
from crittuner.presets import conv_bn_relu_stack, prebn_residual_mlp, relu_mlp, resmlp_toy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EXAMPLE = """
# ten-layer stack at criticality
seed = 42
data.source = gaussian-synthetic
data.batch = 64
data.normalize = true

net.input = 500
net.block.01 = dense out=500 sigma_w=1.4142135623730951 sigma_b=0.0
net.block.02 = act kind=relu boundary

measure.k = 1
measure.method = exact
measure.param_samples = 4

tune.loss = jll
tune.eta = 0.05
tune.steps = 20
tune.grad = analytic-relu

scan.mode = measure
scan.axis.sigma_w = 0.5 2.0 4
"""


def test_parse_example():
    cfg = parse_config(EXAMPLE)
    assert cfg.seed == 42
    assert cfg.data.batch == 64
    assert cfg.network.input_shape == (500,)
    assert len(cfg.network.blocks) == 2
    assert cfg.network.blocks[0].fan_in == 500
    assert cfg.tune.eta == 0.05
    assert cfg.tune.grad_mode == "analytic-relu"
    assert cfg.scan.axes[0].name == "sigma_w"
    assert cfg.scan.axes[0].points == 4


def test_round_trip_identity():
    cfg = parse_config(EXAMPLE)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.seed == cfg.seed
    assert cfg2.data == cfg.data
    assert cfg2.network == cfg.network
    assert cfg2.measure == cfg.measure
    assert cfg2.tune == cfg.tune
    assert cfg2.scan == cfg.scan
    assert serialize_config(cfg2) == text


@pytest.mark.parametrize("spec_fn", [
    lambda: relu_mlp(3, 16, math.sqrt(2.0), 0.1),
    lambda: prebn_residual_mlp(2, 8, 1.5, 0.5, mu=0.8),
    lambda: resmlp_toy(2, 8, 1.2, mu=1.0, eps_ls=0.1, image=(3, 8, 8), patch=4),
    lambda: resmlp_toy(1, 8, 1.2, 0.3, mu=0.5, eps_ls=0.1, image=(3, 8, 8), patch=4,
                       with_head=True),
    lambda: conv_bn_relu_stack((4, 6), 1.5, 0.2, image=(3, 8, 8), eps_bn=1e-3),
    lambda: NetworkSpec((conv2d(4, 3, 1.1, stride=2, padding=1), flatten_block(boundary=True),
                         dense(5, 0.9, boundary=True)), (2, 7, 7)),
])
def test_network_block_lines_round_trip(spec_fn):
    spec = spec_fn()
    lines = [block_to_line(b) for b in spec.blocks]
    rebuilt = NetworkSpec(tuple(block_from_line(l) for l in lines), spec.input_shape)
    assert rebuilt == spec


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nbogus_line_without_equals\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("nonsense.key = 3\n")
    with pytest.raises(ConfigError, match="data source"):
        parse_config("data.source = mnist\n")
    with pytest.raises(ConfigError, match="needs attribute"):
        parse_config("net.input = 4\nnet.block.01 = dense sigma_w=1.0\n")
    with pytest.raises(ConfigError, match="unknown block kind"):
        parse_config("net.input = 4\nnet.block.01 = dropout p=0.5\n")
    with pytest.raises(ConfigError):
        parse_config("net.block.01 = dense out=4 sigma_w=1.0\n")  # no net.input
    with pytest.raises(ConfigError, match="scan axis"):
        parse_config("scan.axis.sigma_w = 0.5 2.0\n")
    with pytest.raises(ConfigError, match="tune"):
        parse_config("tune.loss = l2\n")
    with pytest.raises(ConfigError, match="aux groups"):
        parse_config("tune.aux = alpha,gamma\n")
    for key in ("n_v", "k", "param_samples"):
        for value in ("0", "-3"):
            with pytest.raises(ConfigError, match=f"line 3: measure.{key} must be >= 1"):
                parse_config(f"seed = 1\n\nmeasure.{key} = {value}\n")
    # non-integer values of integer keys name the key and the line
    for key in ("measure.k", "measure.n_v", "tune.n_v", "tune.steps"):
        with pytest.raises(ConfigError, match=f"^line 2: {key}: invalid literal for int"):
            parse_config(f"seed = 1\n{key} = 2.5\n")
    # non-finite tune settings
    for key, attr in (("eta", "eta"), ("lambda", "lam"), ("bound_safety", "bound_safety")):
        with pytest.raises(ConfigError, match=f"tune: {attr} must be finite, got nan"):
            parse_config(f"tune.{key} = nan\n")
    with pytest.raises(ConfigError, match="tune: eps must be >= 0, got nan"):
        parse_config("tune.epsilon = nan\n")
    # keys of removed options
    for line in ("tune.fd_step = 0.0001", "tune.probe_mode = auto", "tune.span = include-io",
                 "tune.return = scale-sigmas", "measure.probe_mode = input"):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"seed = 1\n{line}\n")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_sample_configs_load(path):
    cfg = load_config(str(path))
    assert parse_config(serialize_config(cfg)) == cfg


def test_sample_config_block_lines_round_trip_exactly():
    lines = [line.split("=", 1)[1].strip()
             for path in sorted(CONFIGS.glob("*.cfg"))
             for line in path.read_text().splitlines() if line.startswith("net.block.")]
    assert lines
    for line in lines:
        assert block_to_line(block_from_line(line)) == line


def test_block_order_from_indices():
    text = ("net.input = 6\n"
            "net.block.02 = act kind=relu boundary\n"
            "net.block.01 = dense out=6 sigma_w=1.0\n")
    cfg = parse_config(text)
    assert cfg.network.blocks[0].kind == "dense"
    assert cfg.network.blocks[1].kind == "activation"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# heading\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7
