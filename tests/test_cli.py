import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from quasibr import cli, grid


def _run(argv):
    return cli.main(argv)


def test_decompose_writes_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = _run(["decompose", "--delta", "0.0625", "--out", str(out)])
        assert code == 0
    b1 = (out1 / "decompose.json").read_bytes()
    b2 = (out2 / "decompose.json").read_bytes()
    assert b1 == b2
    rep = json.loads(b1)
    assert "config_hash" in rep and "manifest" in rep
    assert rep["Q"] > 0 and len(rep["points"]) == rep["Q"] + 1


def test_sqfn_scaling_reruns_are_byte_identical(tmp_path):
    codes = [_run(["sqfn-scaling", "--grid", "64,6", "--out",
                   str(tmp_path / out)]) for out in ("a", "b")]
    assert codes[0] == codes[1]
    for name in ("sqfn_scaling.json", "sqfn_scaling.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_tile_csv_has_rows(tmp_path):
    code = _run(["tile", "--delta", "0.0625", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "tiles.csv").read_text().strip().splitlines()
    assert len(lines) > 10
    assert lines[0].startswith("sector,")


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"type": "disk", "radius": 10.0},
                               "A": [[1.0, 0.0], [0.0, 2.0]]}))
    code = _run(["decompose", "--delta", "0.0625", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0


def test_threshold_failure_exit_code(tmp_path):
    # an impossible slope requirement must trip the threshold exit code
    code = _run(["sqfn-scaling", "--deltas", "2^-3,2^-4,2^-5",
                 "--grid", "128,12", "--slope-min", "10.0",
                 "--out", str(tmp_path)])
    assert code == 2


def test_config_error_exit_code(tmp_path):
    # delta outside the admissible range
    code = _run(["decompose", "--delta", "0.5", "--out", str(tmp_path)])
    assert code == 3


def test_resolution_error_exit_code(tmp_path):
    # the kernel tail monitor trips on a grid that is far too small
    code = _run(["kernel-l1", "--grid", "512,60", "--out", str(tmp_path)])
    assert code == 4


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        _run(["no-such-command"])


def test_usage_error_exits_3_without_traceback(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["sqfn-scaling", "--grid", "a,b"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


def test_sqfn_scaling_family_flag_is_rejected(tmp_path, capsys):
    # only the standard probe family exists, so there is no --family flag
    with pytest.raises(SystemExit) as exc:
        _run(["sqfn-scaling", "--family", "foo", "--grid", "64,6",
              "--deltas", "2^-3", "--out", str(tmp_path)])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "unrecognized arguments: --family foo" in err
    assert "Traceback" not in err


def test_mult_norm_reports_value(tmp_path):
    code = _run(["mult-norm", "--multiplier", "bump", "--alpha", "0.6",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "mult_norm.json").read_text())
    assert rep["value"] > 0.0


def test_mult_norm_rough_multiplier_flagged(tmp_path):
    code = _run(["mult-norm", "--multiplier", "br", "--lambda", "0.25",
                 "--alpha", "0.6", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "mult_norm.json").read_text())
    assert rep["value"] == "inf"


@pytest.mark.parametrize("cfg, field", [
    ({"A": [[float("nan"), 0.0], [0.0, 1.0]]}, "A must"),
    ({"A": [[1.0, "x"], [0.0, 1.0]]}, "A must"),
    ({"domain": {"type": "disk", "radius": "x"}}, "disk radius"),
    ({"domain": {"type": "disk", "radius": float("nan")}}, "disk radius"),
    ({"domain": {"type": "superellipse", "a": 10.0, "b": float("inf"),
                 "p": 4.0}}, "superellipse semi-axis b"),
    ({"domain": {"type": "polygon",
                 "vertices": [[12, -12], [12, float("nan")], [-12, 12]]}},
     "polygon vertices"),
    ({"domain": {"type": "regular-polygon", "k": 6, "circumradius": 12.0,
                 "phase": "x"}}, "phase"),
    ({"rotation": "x"}, "rotation"),
    ({"rotation": float("nan")}, "rotation"),
    ({"matrix": [[1.0, 0.0], [0.0, 2.0]]}, "unknown config key 'matrix'"),
    ({"domain": {"type": "disk", "radius": 10.0, "radius2": 5.0}},
     "unknown disk field 'radius2'"),
    ([["A", [[1.0, 0.0], [0.0, 2.0]]]], "config must be a JSON object"),
])
def test_bad_numeric_config_exits_3_without_traceback(tmp_path, capsys, cfg,
                                                      field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = _run(["decompose", "--delta", "0.0625", "--config", str(path),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: " + field)
    assert "Traceback" not in err


def test_lwp_probe_empty_band_is_resolution_error(tmp_path, capsys):
    # at N = 16, L = 24 the frequency window ends below the unit rho level
    code = _run(["lwp-probe", "--grid", "16,24", "--out", str(tmp_path)])
    assert code == 4
    assert "probe band empty" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy_optimize():
    # only build_sectors needs brentq, and most subcommands build no tiling
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, quasibr.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env)
    assert run.returncode == 0


@pytest.mark.parametrize("tiles", ["0", "-1"])
def test_active_time_rejects_fewer_than_one_tile(tmp_path, capsys, tiles):
    code = _run(["active-time", "--delta", "0.0625", "--tiles=" + tiles,
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: --tiles must be at least 1")
    assert not (tmp_path / "active_time.json").exists()


@pytest.mark.parametrize("indices, message", [
    pytest.param(v, m, id=v) for v, m in (
        ("999,0,0,0", "indices 999,0,0,0 name no tile"),
        ("-1,4,0,0", "indices -1,4,0,0 name no tile"),
        ("0,4,99,0", "indices 0,4,99,0 name no tile"),
        ("0,4,0,7", "indices 0,4,0,7 name no tile"),
        ("a,0,0,0", "indices must be four integers"),
        ("0,4,0", "indices must be four integers"))])
def test_kernel_l1_rejects_indices_outside_the_tiling(tmp_path, capsys,
                                                      monkeypatch, indices,
                                                      message):
    def no_grid(*args, **kwargs):
        raise AssertionError("rho grid built for a rejected tile")

    monkeypatch.setattr(grid, "rho_omega_grid", no_grid)
    code = _run(["kernel-l1", "--indices=" + indices, "--grid", "64,6",
                 "--k-max", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: " + message)


def test_kernel_l1_accepts_a_tile_of_the_tiling(tmp_path):
    code = _run(["kernel-l1", "--indices", "0,4,0,0", "--grid", "128,12",
                 "--k-max", "2", "--tail-tol", "1.0", "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "kernel_l1.json").read_text())["l1"] > 0.0


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=" ".join(argv)) for argv, flag in (
        (["overlap-count", "--deltas", "0.0625"], "--deltas needs at least 3"),
        (["overlap-count", "--deltas", "0.0625,0.03125"],
         "--deltas needs at least 3"),
        (["lwp-probe", "--deltas", "0.0625"], "--deltas needs at least 2"),
        (["kernel-maximal-probe", "--deltas", "0.0625"],
         "--deltas needs at least 2"),
        (["sqfn-scaling", "--deltas", "0.0625,2^-4"],
         "--deltas needs at least 2"),
        (["maximal-growth", "--Ns", "8"], "--Ns needs at least 2"))])
def test_growth_fit_on_too_few_scales_exits_3(tmp_path, capsys, monkeypatch,
                                              argv, flag):
    def nothing_built(*args, **kwargs):
        raise AssertionError("pair or family built for a rejected fit")

    monkeypatch.setattr(cli, "_build_pair", nothing_built)
    monkeypatch.setattr(cli, "RectangleFamily", nothing_built)
    code = _run(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("configuration error: " + flag)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, m, id=" ".join(argv)) for argv, m in (
        (["maximal-growth", "--Ns", "0"], "--Ns: every N must be at least 1"),
        (["maximal-growth", "--Ns", "8,-16"],
         "--Ns: every N must be at least 1"),
        (["br-mean", "--grid", "64,0"], "--grid: grid L must be finite"),
        (["br-mean", "--grid", "64,-5"], "--grid: grid L must be finite"),
        (["br-mean", "--grid", "64,nan"], "--grid: grid L must be finite"),
        (["br-mean", "--grid", "64,inf"], "--grid: grid L must be finite"),
        (["br-mean", "--grid", "63,6"], "--grid: grid N must be an even"),
        (["br-mean", "--grid", "0,6"], "--grid: grid N must be an even"),
        (["sqfn-scaling", "--grid", "64"], "--grid: grid must be 'N,L'"))])
def test_bad_sizes_and_grids_exit_3_without_traceback(tmp_path, capsys, argv,
                                                      message):
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _exit_code(argv):
    """main's return code, or the code of the SystemExit of a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, m, id=" ".join(argv)) for argv, m in (
        (["glambda-probe", "--Ns", "64"], "--Ns needs at least 2"),
        (["glambda-probe", "--nt", "0"], "--nt must be at least 1"),
        (["glambda-probe", "--L-per-N", "0"], "--L-per-N must be positive"),
        (["sqfn-scaling", "--deltas", "0,0.1"], "--deltas: delta must lie"),
        (["sqfn-scaling", "--deltas", "0.1,nan"], "--deltas: delta must lie"),
        (["sqfn-scaling", "--deltas", "0..0.1"], "usage:"),
        (["lwp-probe", "--deltas", "0,0.1"], "--deltas: delta must lie"),
        (["kernel-maximal-probe", "--deltas", "0.1,nan"],
         "--deltas: delta must lie"),
        (["overlap-count", "--deltas", "0,0.1,0.05"],
         "--deltas: delta must lie"),
        (["maximal-growth", "--lambda", "0"], "--lambda must be positive"),
        (["maximal-growth", "--lambda", "-1"], "--lambda must be positive"),
        (["maximal-growth", "--lambda", "1e-9"], "is below 2^-9"),
        (["maximal-growth", "--Ns", "8,1000000000"], "is below 2^-9"),
        (["br-mean", "--grid", "65536,30"], "--grid: grid N must be an even"),
        (["glambda-probe", "--Ns", "128,65536"],
         "--Ns: grid size 65536 exceeds 4096"),
        (["br-mean", "--lambda", "nan"], "--lambda must be finite"),
        (["mult-norm", "--alpha", "nan"], "--alpha must be finite"),
        (["kernel-l1", "--k-min", "5", "--k-max", "2"],
         "--k-min 5 exceeds --k-max 2"))])
def test_bad_option_values_exit_3_before_any_work(tmp_path, capsys,
                                                  monkeypatch, argv, message):
    def nothing_built(*args, **kwargs):
        raise AssertionError("pair or family built for a rejected option")

    monkeypatch.setattr(cli, "_build_pair", nothing_built)
    monkeypatch.setattr(cli, "RectangleFamily", nothing_built)
    out = tmp_path / "out"
    code = _exit_code(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert message in err
    assert "configuration error: " in err or "usage:" in err
    assert "Traceback" not in err
    assert not out.exists()


# the twelve subcommands at small sizes; the two probes miss their
# thresholds on the 64-point grid
_SMALL_RUNS = [
    (["decompose", "--delta", "0.0625"], 0),
    (["tile", "--delta", "0.0625"], 0),
    (["overlap-count", "--deltas", "2^-4,2^-5,2^-6"], 0),
    (["active-time", "--delta", "0.0625"], 0),
    (["kernel-l1", "--grid", "128,12", "--tail-tol", "1", "--k-max", "2"], 0),
    (["sqfn-scaling", "--grid", "64,6"], 0),
    (["glambda-probe", "--Ns", "32,64"], 0),
    (["maximal-growth", "--Ns", "4,8"], 0),
    (["kernel-maximal-probe", "--grid", "64,6"], 2),
    (["lwp-probe", "--grid", "64,6"], 2),
    (["mult-norm"], 0),
    (["br-mean", "--grid", "64,6"], 0),
]


def _options_of(command, capsys):
    """Long option names in the subcommand's --help text."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return set(re.findall(r"--([A-Za-z][\w-]*)", capsys.readouterr().out))


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv, code, id=argv[0]) for argv, code in _SMALL_RUNS])
def test_small_reruns_are_byte_identical_and_list_their_options(
        tmp_path, capsys, argv, expected):
    codes = [cli.main(argv + ["--out", str(tmp_path / out)])
             for out in ("a", "b")]
    assert codes == [expected, expected]
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    # both files are written, also before exit 2
    assert (any(n.endswith(".csv") for n in names)
            == (argv[0] not in ("decompose", "mult-norm")))
    summary, = [n for n in names if n.endswith(".json")]
    params = json.loads((tmp_path / "a" / summary).read_text())["manifest"][
        "parameters"]
    assert set(params) == _options_of(argv[0], capsys) - {"help", "config",
                                                          "out"}


_NUMBERS = st.sampled_from([0.0, -1.0, 1e-300, 0.5, 2.0, 10.0, 12.0, 1e300,
                            1.7e308, float("nan"), float("inf")])
_JUNK = st.sampled_from(["x", None, True, [], {}, [1.0]])
_VALUE = st.one_of(_NUMBERS, st.floats(), _JUNK)
_DOMAINS = st.one_of(
    st.fixed_dictionaries({"type": st.just("disk"), "radius": _VALUE}),
    st.fixed_dictionaries({"type": st.just("superellipse"), "a": _VALUE,
                           "b": _VALUE, "p": _VALUE}),
    st.fixed_dictionaries({"type": st.just("polygon"), "vertices": st.one_of(
        _JUNK, st.lists(st.lists(_VALUE, max_size=3), max_size=6))}),
    st.fixed_dictionaries({"type": st.just("regular-polygon"),
                           "k": st.sampled_from([6, 2, 0, 6.0, "6", None]),
                           "circumradius": _VALUE, "phase": _VALUE}),
    st.fixed_dictionaries({"type": st.sampled_from(["square", 3, None])}),
    _JUNK)
_MATRICES = st.one_of(
    st.lists(st.lists(_VALUE, min_size=2, max_size=2), min_size=2,
             max_size=2),
    st.lists(st.lists(_VALUE, max_size=3), max_size=3), _JUNK)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=st.fixed_dictionaries({}, optional={
    "domain": _DOMAINS, "A": _MATRICES, "rotation": _VALUE}))
@example(cfg={"domain": {"type": "disk", "radius": 1.7e308}})
@example(cfg={"domain": {"type": "superellipse", "a": 10.0, "b": 10.0,
                         "p": 1e6}})
def test_malformed_configs_never_raise(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["decompose", "--delta", "0.0625", "--config", str(path),
                     "--out", str(tmp_path)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
