import json

import numpy as np
import pytest

from crittuner import apjn, blocks, cli
from crittuner.cli import main
from crittuner.config import load_config
from crittuner.losses import kernel_profile

MLP_CFG = """
seed = 11
data.source = gaussian-synthetic
data.batch = 16
net.input = 40
net.block.01 = dense out=40 sigma_w=1.4142135623730951 sigma_b=0.0
net.block.02 = act kind=relu boundary
net.block.03 = dense out=40 sigma_w=1.4142135623730951 sigma_b=0.0
net.block.04 = act kind=relu boundary
net.block.05 = dense out=40 sigma_w=1.4142135623730951 sigma_b=0.0
net.block.06 = act kind=relu boundary
measure.k = 1
measure.method = exact
measure.param_samples = 3
tune.loss = jll
tune.eta = 0.1
tune.steps = 8
tune.n_v = 0
tune.grad = analytic-relu
"""


@pytest.fixture
def mlp_cfg(tmp_path):
    p = tmp_path / "mlp.cfg"
    p.write_text(MLP_CFG)
    return p


def test_measure_writes_apjn_and_kernel_csv(mlp_cfg, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["measure", "--config", str(mlp_cfg), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "l0,l,value,stderr,method,N_v,batch,samples"
    assert len(rows) == 4
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(0.5 < v < 1.5 for v in vals)
    krows = (tmp_path / "report.kernels.csv").read_text().strip().splitlines()
    assert krows[0] == "boundary,kernel"
    assert len(krows) == 5


def test_measure_json_mirror(mlp_cfg, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["measure", "--config", str(mlp_cfg), "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["apjn"]) == 3
    assert len(doc["kernels"]) == 4
    assert doc["apjn"][0]["method"] == "exact"


def test_measure_runs_one_forward_pass_per_draw(mlp_cfg, tmp_path, monkeypatch):
    # the kernels are read off parameter draw 0's pass, not off a second one
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return blocks.run_network(*args, **kwargs)

    for module in (cli, apjn):
        monkeypatch.setattr(module, "run_network", counted, raising=False)
    out = tmp_path / "report.csv"
    assert main(["measure", "--config", str(mlp_cfg), "--out", str(out)]) == 0
    assert len(calls) == 3   # measure.param_samples
    net, _, batch, params = cli._setup(load_config(str(mlp_cfg)), 11)
    aux = blocks.AuxScalars.ones(net, "none")
    kernels = kernel_profile(blocks.run_network(net, params, aux, batch))
    krows = ["boundary,kernel"] + [f"{i},{v:.12g}" for i, v in enumerate(kernels)]
    assert (tmp_path / "report.kernels.csv").read_text() == "\n".join(krows) + "\n"


def test_measure_deterministic_given_seed(mlp_cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["measure", "--config", str(mlp_cfg), "--out", str(a)])
    main(["measure", "--config", str(mlp_cfg), "--out", str(b)])
    assert a.read_text() == b.read_text()
    c = tmp_path / "c.csv"
    main(["measure", "--config", str(mlp_cfg), "--out", str(c), "--seed", "99"])
    assert a.read_text() != c.read_text()


def test_tune_writes_trace_and_network(mlp_cfg, tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["tune", "--config", str(mlp_cfg), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("t,loss,J_0,J_1,J_2")
    assert rows[0].endswith(",eta")
    netfile = (tmp_path / "trace.network.cfg").read_text().strip().splitlines()
    assert netfile[0] == "net.input = 40"
    assert len(netfile) == 7
    # near criticality already: sigmas barely move
    assert "dense" in netfile[1]


def test_tune_divergence_exit_code(tmp_path):
    cfg = tmp_path / "div.cfg"
    blocks = "\n".join(
        f"net.block.{2*i+1:02d} = dense out=8 sigma_w=0.3 sigma_b=0.0\n"
        f"net.block.{2*i+2:02d} = act kind=relu boundary"
        for i in range(70))
    cfg.write_text("seed = 3\ndata.batch = 4\nnet.input = 8\n" + blocks +
                   "\ntune.loss = jll\ntune.eta = 1e6\ntune.steps = 5\n"
                   "tune.n_v = 0\ntune.grad = analytic-relu\n")
    out = tmp_path / "trace.csv"
    old = np.seterr(all="ignore")
    try:
        rc = main(["tune", "--config", str(cfg), "--out", str(out)])
    finally:
        np.seterr(**old)
    assert rc == 3
    assert out.read_text().startswith("t,loss")


def _overflow_cfg(tmp_path, extra: str = ""):
    # sigma_w = 1e6 multiplies the squared activations by ~1e12 per layer, so
    # the float64 range runs out about halfway up the stack.
    blocks = "\n".join(
        f"net.block.{2*i+1:03d} = dense out=20 sigma_w=1e6 sigma_b=0.0\n"
        f"net.block.{2*i+2:03d} = act kind=relu boundary"
        for i in range(60))
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("seed = 3\ndata.batch = 4\nnet.input = 20\n" + blocks +
                   "\nmeasure.method = exact\n" + extra)
    return cfg


def test_measure_non_finite_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        rc = main(["measure", "--config", str(_overflow_cfg(tmp_path)), "--out", str(out),
                   "--format", "json"])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert len(doc["apjn"]) == 60
    assert not np.isfinite(doc["kernels"][-1]["value"])
    assert capsys.readouterr().err.startswith("divergence: norm of pair (52, 53) is nan")


def test_measure_scan_marks_non_finite_point_diverged(tmp_path):
    cfg = _overflow_cfg(tmp_path, "scan.mode = measure\nscan.axis.sigma_w = 1.0 1e6 2\n")
    out = tmp_path / "grid.json"
    with np.errstate(all="ignore"):
        rc = main(["scan", "--config", str(cfg), "--out", str(out), "--format", "json"])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [(r["status"], r["converged"]) for r in rows] == [("ok", 0), ("diverged", 0)]


def test_scan_grid_rows_and_worker_determinism(mlp_cfg, tmp_path):
    text = mlp_cfg.read_text() + "scan.mode = measure\nscan.axis.sigma_w = 1.0 2.0 3\n"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(text)
    a, b = tmp_path / "s1.csv", tmp_path / "s4.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(b), "--workers", "4"]) == 0
    assert a.read_text() == b.read_text()
    rows = a.read_text().strip().splitlines()
    assert len(rows) == 4
    header = rows[0].split(",")
    assert header[:2] == ["point", "sigma_w"]
    # J tracks sigma_w^2 / 2 across the axis
    first = dict(zip(header, rows[1].split(",")))
    last = dict(zip(header, rows[3].split(",")))
    assert float(first["j_max"]) < 0.8
    assert float(last["j_max"]) > 1.5
    assert first["converged"] == "0"
    assert last["converged"] == "0"


def test_scan_two_axes_tune_mode_with_prediction(tmp_path):
    cfg = tmp_path / "scan2.cfg"
    cfg.write_text(
        "seed = 5\ndata.batch = 4\nnet.input = 30\n"
        "net.block.01 = dense out=30 sigma_w=2.0 sigma_b=0.0\n"
        "net.block.02 = act kind=relu boundary\n"
        "net.block.03 = dense out=30 sigma_w=2.0 sigma_b=0.0\n"
        "net.block.04 = act kind=relu boundary\n"
        "tune.loss = jll\ntune.eta = 0.05\ntune.steps = 60\ntune.n_v = 0\n"
        "tune.grad = analytic-relu\n"
        "scan.mode = tune\nscan.axis.sigma_w = 1.2 2.4 2\nscan.axis.eta = 0.02 0.1 2\n")
    out = tmp_path / "grid.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 5
    header = rows[0].split(",")
    assert header[1:3] == ["sigma_w", "eta"]
    assert "predicted" in header
    for r in rows[1:]:
        rec = dict(zip(header, r.split(",")))
        assert rec["status"] == "ok"
        assert rec["converged"] == "1"          # stable rates on both points
        assert rec["predicted"] == "1"


def test_one_point_scan_matches_measure(mlp_cfg, tmp_path):
    text = mlp_cfg.read_text() + "scan.mode = measure\nscan.axis.sigma_w = 1.4142135623730951 1.4142135623730951 1\n"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text)
    sout = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(sout)]) == 0
    mout = tmp_path / "meas.csv"
    assert main(["measure", "--config", str(mlp_cfg), "--out", str(mout)]) == 0
    srow = sout.read_text().strip().splitlines()[1].split(",")
    mvals = [float(r.split(",")[2]) for r in mout.read_text().strip().splitlines()[1:]]
    svals = [float(v) for v in srow[2:5]]
    assert np.allclose(svals, mvals, rtol=1e-12)


@pytest.mark.parametrize("fresh", ["true", "false"])
def test_one_point_tune_scan_matches_tune(fresh, mlp_cfg, tmp_path):
    # a tune-mode scan point draws its per-step batches as `tune` does
    def last_js(text, command):
        cfg = tmp_path / f"{command}-{fresh}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"{command}-{fresh}.json"
        assert main([command, "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        return doc[0]["js"] if command == "scan" else doc["trace"][-1]["js"]

    base = MLP_CFG.replace("tune.n_v = 0", "tune.n_v = 2").replace("tune.steps = 8",
                                                                     "tune.steps = 3")
    text = base + f"tune.fresh_batch = {fresh}\n"
    scanned = last_js(text + "scan.mode = tune\nscan.axis.eta = 0.1 0.1 1\n", "scan")
    tuned = last_js(text, "tune")
    assert scanned == tuned
    fixed = last_js(base + "tune.fresh_batch = false\n", "tune")
    assert (scanned == fixed) == (fresh == "false")


def test_verify_subcommand_runs_fast_suites(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("seed = 0\nverify.suites = kernel-fixed-point eta-scaling "
                   "jkl-equivalence bn-limit\n")
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 0


def test_verify_json_output_parses(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("seed = 0\nverify.suites = kernel-fixed-point gradient-check\n")
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["name"] for r in doc] == ["kernel-fixed-point", "gradient-check"]
    assert all(r["ok"] is True for r in doc)


def test_verify_unknown_suite_is_config_error(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("verify.suites = bogus\n")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_missing_config_gives_exit_2(tmp_path):
    assert main(["measure", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_directory_data_path_gives_exit_2(tmp_path):
    cfg = tmp_path / "dir.cfg"
    cfg.write_text(f"data.source = cifar10-binary\ndata.path = {tmp_path}\ndata.batch = 2\n"
                   "net.input = 3072\nnet.block.01 = dense out=4 sigma_w=1.0\n")
    assert main(["measure", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line, message", [
    ("tune.eta = nan", "tune: eta must be finite"),
    ("tune.lambda = nan", "tune: lam must be finite"),
    ("tune.bound_safety = nan", "tune: bound_safety must be finite"),
    ("tune.epsilon = nan", "tune: eps must be >= 0"),
    ("tune.n_v = 2.5", "tune.n_v: invalid literal for int()"),
    ("measure.k = 2.5", "measure.k: invalid literal for int()"),
])
def test_non_finite_or_non_integer_setting_gives_exit_2(line, message, mlp_cfg, capsys):
    # a NaN eta used to run and report divergence (exit 3)
    mlp_cfg.write_text(MLP_CFG + line + "\n")
    assert main(["tune", "--config", str(mlp_cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


def test_bad_block_config_gives_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("net.input = 4\nnet.block.01 = dense out=4\n")
    assert main(["measure", "--config", str(cfg)]) == 2
