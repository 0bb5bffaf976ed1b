import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slowtorus import cli, reporting


BASE_CONFIG = {
    "construction": "untwisted",
    "regime": "custom",
    "q1": 2,
    "kl_schedule": [[1, 2, 4], [1, 8, 8], [1, 1, 64]],
    "n_min": 2,
    "n_max": 2,
    "grid": 20,
    "horizons": ["1", "q", "q_next"],
    "eps_list": [0.125],
    "families": [["int1", 4, 2], ["pol", 0, 0]],
    "t_grid": [0.5, 1.0],
    "seed": 7,
    "horizon_cap": 4096,
}


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    cfg.setdefault("outdir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["outdir"])


def test_params_writes_chain_and_validates(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    rc = cli.main(["params", "--config", str(cfg_path)])
    assert rc == 0
    chain_file = outdir / "chain.json"
    assert chain_file.exists()
    body = chain_file.read_text()
    assert '"q": "8"' in body
    assert (outdir / "validation.txt").read_text().strip().endswith("passed=True")


def test_params_roundtrip_revalidates_identically(tmp_path):
    from slowtorus.params import chain_from_json, validate_chain

    cfg_path, outdir = write_config(tmp_path)
    cli.main(["params", "--config", str(cfg_path)])
    text = (outdir / "chain.json").read_text()
    payload = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    chain = chain_from_json(payload)
    cfg = cli.load_config(str(cfg_path), {})
    rep1 = validate_chain(chain, cfg.profile())
    rep2 = validate_chain(chain_from_json(payload), cfg.profile())
    assert rep1.lines() == rep2.lines()


def test_params_eps_violation_exit_code(tmp_path):
    # strict eps schedule cannot hold at stage 3 when q_3 stays tiny
    cfg_path, _ = write_config(
        tmp_path,
        relax_eps=False,
        kl_schedule=[[1, 1, 4], [1, 1, 8], [1, 1, 64]],
        n_max=3,
    )
    rc = cli.main(["params", "--config", str(cfg_path)])
    assert rc == cli.EXIT_VALIDATION


def test_run_outputs_and_determinism(tmp_path):
    cfg_path, out1 = write_config(tmp_path, outdir=str(tmp_path / "o1"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    cfg_path2, out2 = write_config(tmp_path, outdir=str(tmp_path / "o2"))
    assert cli.main(["run", "--config", str(cfg_path2)]) == 0
    for name in ("raw_counts.csv", "counts.csv", "trends.txt"):
        a = (out1 / name).read_bytes().split(b"\n", 2)[2]
        b = (out2 / name).read_bytes().split(b"\n", 2)[2]
        assert a == b, name
    # identical outdir and config: byte-identical including headers
    cfg_path3, _ = write_config(tmp_path, outdir=str(tmp_path / "o3"))
    cli.main(["run", "--config", str(cfg_path3)])
    first = (tmp_path / "o3" / "raw_counts.csv").read_bytes()
    cli.main(["run", "--config", str(cfg_path3)])
    assert (tmp_path / "o3" / "raw_counts.csv").read_bytes() == first


def test_run_summary_reports_witness(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg_path)])
    summary = (outdir / "summary.txt").read_text()
    assert "witness separation pass" in summary


def test_run_weak_mixing_writes_selection_and_hamming(tmp_path):
    cfg_path, outdir = write_config(
        tmp_path,
        construction="weak_mixing",
        kl_schedule=[[1, 2, 4], [1, 1, 8]],
        horizons=["q", "q_next"],
        hamming_samples=900,
        word_eps=0.25,
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    sel = (outdir / "selection_stage2.txt").read_text()
    lines = [ln for ln in sel.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split()[:3] == ["4", "8", "8"]
    raw = (outdir / "raw_counts.csv").read_text()
    assert ",hamming," in raw
    assert "word selection verified=True" in (outdir / "summary.txt").read_text()


def test_run_budget_guard(tmp_path):
    cfg_path, _ = write_config(tmp_path, max_orbit_evals=10.0)
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_BUDGET


def test_run_construction_error_exit(tmp_path):
    # unreachable word separation threshold at desk word lengths
    cfg_path, _ = write_config(
        tmp_path, construction="weak_mixing", word_eps=1.0 / 64.0
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_CONSTRUCTION


def read_header_hash(path):
    for line in path.read_text().splitlines():
        if line.startswith("# config_sha256="):
            return line.split("=", 1)[1]
        if not line.startswith("#"):
            break
    raise ValueError(f"{path} carries no config hash")


def test_config_hash_consistent_across_outputs(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg_path)])
    hashes = {
        read_header_hash(outdir / name)
        for name in ("raw_counts.csv", "counts.csv", "summary.txt", "trends.txt")
    }
    assert len(hashes) == 1


def test_plotdata_curves_and_manifest(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg_path)])
    plots = tmp_path / "plots"
    rc = cli.main(["plotdata", str(outdir / "counts.csv"), "--outdir", str(plots)])
    assert rc == 0
    manifest = json.loads((plots / "manifest.json").read_text())
    assert manifest
    for entry in manifest:
        curve = plots / entry["file"]
        rows = curve.read_text().strip().splitlines()
        assert all(len(r.split()) == 2 for r in rows)


def test_plotdata_empty_report(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("stage,horizon,eps,count_kind,count,family,t,log_ratio\n")
    plots = tmp_path / "plots"
    rc = cli.main(["plotdata", str(src), "--outdir", str(plots)])
    assert rc == 0
    assert json.loads((plots / "manifest.json").read_text()) == []


def test_plotdata_missing_columns(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("stage,horizon\n1,2\n")
    rc = cli.main(["plotdata", str(src), "--outdir", str(tmp_path / "p")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "missing columns" in err


@pytest.mark.parametrize(
    "body, message",
    [
        (None, "cannot read report"),
        (
            "stage,horizon,eps,count_kind,count,family,t,log_ratio\n2,8,0.125\n",
            "has 3 of 8 columns",
        ),
    ],
    ids=["missing-file", "short-row"],
)
def test_plotdata_unreadable_report_exit_code(tmp_path, capsys, body, message):
    src = tmp_path / "counts.csv"
    if body is not None:
        src.write_text(body)
    rc = cli.main(["plotdata", str(src), "--outdir", str(tmp_path / "p")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and message in err


GOOD_REPORT = (
    "stage,horizon,eps,count_kind,count,family,t,log_ratio\n2,8,0.125,separated,5,pol,0.5,1.25\n"
)


@pytest.mark.parametrize(
    "reports",
    [[None], [GOOD_REPORT, None], [GOOD_REPORT, GOOD_REPORT.replace(",0.5,1.25", "")]],
    ids=["missing", "good-then-missing", "good-then-short-row"],
)
def test_plotdata_bad_report_writes_nothing(tmp_path, reports):
    paths = []
    for i, body in enumerate(reports):
        path = tmp_path / f"r{i}.csv"
        if body is not None:
            path.write_text(body)
        paths.append(str(path))
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", *paths, "--outdir", str(plots)]) == cli.EXIT_VALIDATION
    assert not plots.exists()


def write_reports(tmp_path, names):
    """GOOD_REPORT at each relative path of ``names``; their paths."""
    paths = []
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(GOOD_REPORT)
        paths.append(str(path))
    return paths


def test_plotdata_repeated_stems_named_by_position(tmp_path):
    # two runs' reports are both counts.csv: each curve name takes the
    # report's position on the command line; a distinct stem keeps its name
    paths = write_reports(tmp_path, ["a/counts.csv", "b/counts.csv", "c/other.csv"])
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", *paths, "--outdir", str(plots)]) == cli.EXIT_OK
    manifest = json.loads((plots / "manifest.json").read_text())
    assert [(e["file"], e["source"]) for e in manifest] == [
        ("curve_counts-1_pol_t0.5_eps0.125_separated.dat", paths[0]),
        ("curve_counts-2_pol_t0.5_eps0.125_separated.dat", paths[1]),
        ("curve_other_pol_t0.5_eps0.125_separated.dat", paths[2]),
    ]
    assert (plots / manifest[1]["file"]).read_text() == "8 1.25\n"


def test_plotdata_colliding_names_rejected(tmp_path, capsys):
    # the first counts.csv is named counts-1, as the third report is
    paths = write_reports(tmp_path, ["a/counts.csv", "b/counts.csv", "counts-1.csv"])
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", *paths, "--outdir", str(plots)]) == cli.EXIT_VALIDATION
    assert "curve_counts-1_pol_t0.5_eps0.125_separated.dat" in capsys.readouterr().err
    assert not plots.exists()
    # one of them alone keeps its name
    assert cli.main(["plotdata", paths[0], "--outdir", str(plots)]) == cli.EXIT_OK
    assert sorted(p.name for p in plots.iterdir()) == [
        "curve_counts_pol_t0.5_eps0.125_separated.dat",
        "manifest.json",
    ]


def test_two_radius_run_keeps_radii_apart(tmp_path):
    # each trend and each plot curve follows one radius, one row per horizon
    cfg_path, outdir = write_config(
        tmp_path, eps_list=[0.125, 0.25], horizon_cap=16, families=[["pol", 0, 0]], t_grid=[0.5]
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    trends = (outdir / "trends.txt").read_text().splitlines()[2:]
    assert [ln.split(":")[0] for ln in trends] == [
        f"pol,t=0.5,{kind},eps={eps}" for kind in ("cover", "separated") for eps in (0.125, 0.25)
    ]
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", str(outdir / "counts.csv"), "--outdir", str(plots)]) == 0
    manifest = json.loads((plots / "manifest.json").read_text())
    curves = {}
    for e in manifest:
        rows = (plots / e["file"]).read_text().splitlines()
        curves[e["kind"], e["eps"]] = [ln.split()[0] for ln in rows]
    assert len(curves) == len(manifest) == 5
    assert curves == {
        ("cover", "0.125"): ["8", "16"],
        ("cover", "0.25"): ["8", "16"],
        ("separated", "0.125"): ["8", "16"],
        ("separated", "0.25"): ["8", "16"],
        ("hamming", "0.25"): ["16"],
    }
    assert "curve_counts_pol_t0.5_eps0.25_cover.dat" in {e["file"] for e in manifest}


def test_write_csv_writes_numpy_float_as_decimal(tmp_path):
    path = tmp_path / "x.csv"
    reporting.write_csv(path, cli.ExperimentConfig(), ("x",), [(np.float64(0.25),)])
    assert path.read_text().splitlines()[2:] == ["x", "0.25"]


def test_words_subcommand(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    rc = cli.main(
        [
            "words",
            "--config",
            str(cfg_path),
            "--alphabet",
            "4",
            "--length",
            "64",
            "--count",
            "8",
            "--eps",
            "0.25",
        ]
    )
    assert rc == 0
    text = (outdir / "selection.txt").read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split()[:3] == ["4", "64", "8"]
    assert len(lines) == 9
    assert "passed=True" in (outdir / "selection_report.txt").read_text()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--alphabet", "3", "--length", "10"], "positive multiple of s = 3"),
        (["--alphabet", "1"], "2 to 36 symbols"),
        (["--alphabet", "40", "--length", "40"], "2 to 36 symbols"),
        (["--alphabet", "2", "--length", "8", "--count", "0"], "at least one word"),
        (["--alphabet", "4", "--length", "64", "--eps", "1.5"], "eps must lie in (0, 1)"),
        (["--alphabet", "4", "--length", "64", "--eps", "nan"], "eps must lie in (0, 1)"),
    ],
)
def test_words_bad_arguments_exit_code(tmp_path, capsys, monkeypatch, args, message):
    from slowtorus import words

    def no_draw(*a, **k):
        raise AssertionError("words drawn for invalid arguments")

    monkeypatch.setattr(words, "_repair_uniform", no_draw)
    cfg_path, outdir = write_config(tmp_path)
    assert cli.main(["words", "--config", str(cfg_path), *args]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and message in err
    assert not outdir.exists()


def test_norms_order_above_two_exit_code(tmp_path, monkeypatch):
    from slowtorus import normest

    def no_estimate(*a, **k):
        raise AssertionError("norms estimated for an invalid order")

    monkeypatch.setattr(normest, "triple_norm", no_estimate)
    cfg_path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["norms", "--config", str(cfg_path), "--k-max", "3"])
    assert exc.value.code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("grid", [0, -4])
def test_norms_empty_grid_exit_code(tmp_path, capsys, grid):
    # an empty grid used to write estimate 0.0 with excluded_fraction nan
    cfg_path, outdir = write_config(tmp_path)
    assert cli.main(["norms", "--config", str(cfg_path), "--grid", str(grid)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation failure: grid must be >= 1")
    assert not outdir.exists()


@pytest.mark.parametrize("node", sorted(cli._NORM_NODES))
@pytest.mark.parametrize("q", [0, -3])
def test_norms_q_below_one_exit_code(tmp_path, capsys, monkeypatch, node, q):
    # rotation must not fall back to Rotation(1) and write rows labelled q=-3
    def no_build(*a, **k):
        raise AssertionError("node built for an invalid q")

    monkeypatch.setitem(cli._NORM_NODES, node, no_build)
    cfg_path, outdir = write_config(tmp_path)
    rc = cli.main(["norms", "--config", str(cfg_path), "--node", node, "--q", str(q)])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation failure: q must be >= 1")
    assert not outdir.exists()


def test_norms_subcommand(tmp_path):
    cfg_path, outdir = write_config(tmp_path, grid=31)
    rc = cli.main(
        ["norms", "--config", str(cfg_path), "--node", "quasi_rot", "--q", "4", "--eps", "0.1", "--k-max", "1"]
    )
    assert rc == 0
    body = (outdir / "norms.csv").read_text()
    assert "node,k,estimate,grid,fd_step,excluded_fraction" in body


def test_describe_prints_stack(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    rc = cli.main(["describe", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "untwisted_h" in out
    assert "stage n=2" in out


def test_unknown_config_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(cli.ConfigError, match="bogus"):
        cli.load_config(str(path), {})


def test_unknown_config_field_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["params", "--config", str(path)]) == cli.EXIT_VALIDATION
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "must hold a JSON object"), ("{", "cannot read config"), (None, "cannot read config")],
    ids=["not-an-object", "malformed", "missing"],
)
def test_unreadable_config_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["params", "--config", str(path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and message in err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"eps_list": 0.125}, "eps_list must be tuple[float, ...], got 0.125"),
        ({"grid": "32"}, "grid must be int, got '32'"),
        ({"n_max": 2.5}, "n_max must be int, got 2.5"),
        ({"seed": True}, "seed must be int, got True"),
        ({"relax_eps": 1}, "relax_eps must be bool, got 1"),
        ({"sigma": "0.5"}, "sigma must be Optional[float]"),
        ({"kl_schedule": [[1, 2, 4], [1, 8]]}, "kl_schedule must be tuple[tuple[int, int, int]"),
        ({"families": [["int1", 4, 2.0]]}, "families must be"),
        ({"horizons": ["1", 2.0]}, "horizons must be"),
    ],
    ids=["eps-list-scalar", "grid-string", "n-max-float", "seed-bool", "relax-int", "sigma-string",
         "kl-short-step", "family-float", "horizon-float"],
)
def test_config_value_of_wrong_type_exit_code(tmp_path, forbid_build, capsys, override, message):
    cfg_path, outdir = write_config(tmp_path, **override)
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: config field ") and message in err
    assert not outdir.exists()


def test_config_values_keep_their_json_types(tmp_path):
    # an int stands for a float and in horizons; nothing is converted, so the
    # config hash stays the one of the file as written
    path, _ = write_config(tmp_path, horizons=[1, "q"], max_orbit_evals=1000000000, sigma=None)
    cfg = cli.load_config(str(path), {})
    assert cfg.horizons == (1, "q") and type(cfg.max_orbit_evals) is int and cfg.sigma is None


def test_params_chain_error_exit(tmp_path, capsys):
    # the three-step custom schedule has no stage 4 or 5
    cfg_path, _ = write_config(tmp_path)
    rc = cli.main(["params", "--config", str(cfg_path), "--n-max", "5"])
    assert rc == cli.EXIT_CONSTRUCTION
    assert capsys.readouterr().err.startswith("construction error: ")


@pytest.fixture
def forbid_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("systems built for an invalid config")

    monkeypatch.setattr(cli, "build_systems", no_build)


def test_run_coarse_grid_exits_before_building(tmp_path, forbid_build):
    cfg_path, _ = write_config(tmp_path, grid=16, eps_list=[0.125])
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION


def test_run_too_few_hamming_samples_exits_before_building(tmp_path, forbid_build, capsys):
    cfg_path, _ = write_config(tmp_path, hamming_samples=100, eps_list=[0.125])
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation failure: sample_size")


@pytest.mark.parametrize("override", [{"horizons": ["1", "0"]}, {"horizon_cap": 0}])
def test_run_horizon_below_one_exits_before_building(tmp_path, forbid_build, capsys, override):
    # a zero horizon would measure orbits and words of length 0
    cfg_path, _ = write_config(tmp_path, **override)
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation failure: horizons")


@pytest.mark.parametrize(
    "override, message",
    [
        ({"grid": 0}, "grid must be >= 1"),
        ({"grid": -4}, "grid must be >= 1"),
        ({"hamming_partition": 0}, "partition needs nx, ny >= 1"),
        ({"horizons": []}, "horizons must not be empty"),
        ({"families": [["int1", 2, 2]]}, "intermediate scales require r >= 4"),
        ({"t_grid": [0]}, "t_grid must be positive"),
        ({"eps_list": []}, "eps_list must not be empty"),
        ({"horizons": ["qq"]}, "unknown horizon 'qq': use q, q_next, lq or an integer"),
    ],
    ids=[
        "grid-zero", "grid-negative", "partition-zero", "no-horizons", "family-r2", "t-zero",
        "no-eps", "horizon-name",
    ],
)
def test_run_out_of_range_exits_before_building(tmp_path, forbid_build, capsys, override, message):
    cfg_path, outdir = write_config(tmp_path, **override)
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and message in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "command, override, flags",
    [
        ("run", {"n_min": 3, "n_max": 2}, []),
        ("run", {}, ["--n-max", "1"]),
        ("describe", {}, ["--n-max", "1"]),
    ],
    ids=["run-n-min-above-n-max", "run-n-max-1", "describe-n-max-1"],
)
def test_no_stage_exits_before_building(tmp_path, forbid_build, capsys, command, override, flags):
    # before, run wrote a header-only raw_counts.csv and describe printed
    # nothing, and both exited 0
    cfg_path, _ = write_config(tmp_path, **override)
    assert cli.main([command, "--config", str(cfg_path), *flags]) == cli.EXIT_VALIDATION
    err = "validation failure: no stage n with max(n_min, 1) <= n <= n_max\n"
    assert capsys.readouterr() == ("", err)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_run_budget_estimate_two_stages(tmp_path, capsys):
    # per stage (grid^2 + hamming samples) * largest horizon: stage 2 has
    # horizons 1, 8, 512 (q_next capped), stage 3 has horizons 1, 512, so
    # (400 + 2000) * (512 + 512) = 2457600; and per stage the witness pairs
    # at min(q_next, cap) = 512 times: 12 points at stage 2 and 768, cut to
    # 512, at stage 3, so (66 + 130816) * 512 = 67011584
    cfg_path, _ = write_config(
        tmp_path, n_max=3, horizon_cap=512, hamming_samples=2000, max_orbit_evals=1e6
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_BUDGET
    assert "estimated 6.95e+07 orbit evaluations" in capsys.readouterr().err


def test_run_budget_counts_witness_pair_times(tmp_path, capsys):
    # stage 3 alone at cap 64: the grid and the samples make (400 + 800) * 64
    # = 76800 orbit evaluations, under the limit, but the 512 witness points
    # make 130816 pairs * 64 times, over it
    cfg_path, outdir = write_config(
        tmp_path, n_min=3, n_max=3, horizon_cap=64, hamming_samples=800, max_orbit_evals=1e6
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "estimated 8.45e+06 orbit evaluations and witness pair-times > 1e+06" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "override",
    [{"regime": "foo"}, {"kl_schedule": []}, {"regime": "intermediate", "r": 3}, {"q1": 1}],
    ids=["regime-foo", "empty-schedule", "intermediate-r3", "q1-1"],
)
@pytest.mark.parametrize("command", ["params", "run", "describe"])
def test_unbuildable_profile_exits_construction(tmp_path, capsys, override, command):
    cfg_path, outdir = write_config(tmp_path, **override)
    assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONSTRUCTION
    assert capsys.readouterr().err.startswith("construction error: ")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "command, construction, seed",
    [("run", "untwisted", -1), ("run", "weak_mixing", -3), ("describe", "weak_mixing", -3)],
)
def test_negative_seed_exits_before_building(
    tmp_path, forbid_build, capsys, command, construction, seed
):
    cfg_path, outdir = write_config(tmp_path, construction=construction)
    argv = [command, "--config", str(cfg_path), "--seed", str(seed)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation failure: seed must be >= 0, got {seed}\n"
    assert not outdir.exists()


def test_run_two_eps_counts_match_greedy(tmp_path):
    from slowtorus import complexity as cx
    from slowtorus.experiments import build_systems

    cfg_path, outdir = write_config(tmp_path, eps_list=[0.125, 0.25], horizon_cap=16)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    text = (outdir / "raw_counts.csv").read_text()
    lines = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
    cfg = cli.load_config(str(cfg_path), {})
    sys2 = build_systems(cfg.construction, cfg.profile(), cfg.n_max, seed=cfg.seed).system(2)
    rows = {(int(h), float(e), kind): int(c) for _st, _q, h, e, kind, c in lines}
    assert [kind for *_, kind, _c in lines].count("hamming") == 1
    for m in (1, 8, 16):
        for eps in (0.125, 0.25):
            bc = cx.BowenConfig(n_time=m, eps=eps, grid=20)
            assert rows[m, eps, "separated"] == cx.max_separated(sys2, bc).count
            assert rows[m, eps, "cover"] == cx.min_cover(sys2, bc)


def test_run_caps_q_horizon(tmp_path):
    # on the README schedule stage 3 has q = 4096, far above the cap
    cfg_path, outdir = write_config(
        tmp_path,
        kl_schedule=[[1, 2, 4], [1, 64, 8], [1, 1, 64]],
        n_max=3,
        horizon_cap=256,
        hamming_samples=800,
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    text = (outdir / "raw_counts.csv").read_text()
    lines = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
    assert {int(st) for st, *_ in lines} == {2, 3}
    assert max(int(h) for _st, _q, h, *_ in lines) == 256


def test_run_scale_family_out_of_domain_exits_before_measuring(tmp_path, capsys, monkeypatch):
    # int1 with q1 = 1000 needs horizons of at least 1000, which the cap of
    # 64 rules out; the horizons are known only once the chain is built
    from slowtorus import complexity as cx

    def no_measure(*a, **k):
        raise AssertionError("stages measured for scale families that cannot be evaluated")

    monkeypatch.setattr(cx, "bowen_counts", no_measure)
    cfg_path, outdir = write_config(
        tmp_path, families=[["int1", 4, 1000]], n_max=3, horizon_cap=64
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation failure: scale family int1-r4-q1000 at horizon")
    assert not outdir.exists()


def test_run_readme_config_pins_tie_sensitive_counts(tmp_path):
    # The README run.  Its counts sit on exact ties: on the grid at horizon
    # 64, 6611 pairs are at Bowen distance exactly 1/8 and 1117 more within
    # 1e-14 of it, and the witness minimum is exactly eps = 1/8.  A one-ulp
    # change to the orbits would show here first.
    cfg_path, outdir = write_config(
        tmp_path, kl_schedule=[[1, 2, 4], [1, 64, 8], [1, 1, 64]], grid=32
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    rows = [ln.split(",") for ln in (outdir / "raw_counts.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert [(h, kind, int(c)) for _st, _q, h, _eps, kind, c in rows] == [
        ("1", "separated", 56), ("1", "cover", 56),
        ("8", "separated", 72), ("8", "cover", 72),
        ("4096", "separated", 504), ("4096", "cover", 504),
        ("4096", "hamming", 1070),
    ]
    summary = (outdir / "summary.txt").read_text()
    assert "witness separation pass (count=12, expected=12, min separation=0.125)" in summary


def test_describe_uniquely_ergodic_skips_stage_without_staircase(tmp_path, capsys):
    # at q = 4 and eps = 1/8 no staircase fits: that stage is the identity,
    # as in the untwisted chain, and the q = 64 stage is built
    cfg_path, _ = write_config(
        tmp_path,
        construction="uniquely_ergodic",
        kl_schedule=[[1, 1, 4], [1, 4, 8], [1, 64, 64]],
        n_max=3,
    )
    assert cli.main(["describe", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    stage2, stage3 = out.split("stage n=3")
    assert "q=4," in stage2 and "rotation(alpha=0/1)" in stage2
    assert "quasi_rot_tiled(q=64" in stage3 and "vertical_step_shear(q=64" in stage3


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from slowtorus import cli

tr = tracing.Tracer()
tracing.install(tr)
rc = tr.span("cli.run", cli.main, (["run", "--config", sys.argv[2]],))
names = [name for name, _ in tracing.LAYER_METRICS]
print(json.dumps({"rc": rc, "names": names, "metrics": tracing.layer_metrics(tr.spans, 1)}))
"""


def test_benchmark_tracer_reads_a_run(tmp_path):
    # The benchmark tracer wraps package functions by name and reads their
    # arguments (orbit_array's times, code_orbits' pts and n_time); a run
    # under it pins those names and signatures.  It patches modules, so it
    # runs in its own interpreter.  At q_next = 512 the orbit period is
    # w = 64, for the grid and for the 8 x 8 Hamming cells alike, so the
    # evaluations done stop at 64 times whatever the horizon cap.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no bytecode beside the tracer
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for cap in (64, 128):
        run_dir = tmp_path / f"cap{cap}"
        run_dir.mkdir()
        cfg_path, _ = write_config(run_dir, horizon_cap=cap, hamming_samples=800)
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_RUN, str(root / "slowbench"), str(cfg_path)],
            capture_output=True, text=True, env=env, cwd=run_dir, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["rc"] == 0
        m = out["metrics"]
        assert set(m) <= set(out["names"])
        # grid 20 and 800 coded samples, each over min(largest horizon, w) = 64 times
        assert (m["complexity.orbit_array_calls"], m["complexity.orbit_array_evals"]) == (1, 400 * 64)
        assert m["complexity.code_orbits_evals"] == 800 * 64
        assert m["complexity.greedy_centers_calls"] == 3  # horizons 1, q = 8 and the cap
        assert m["complexity.hamming_cover_calls"] == 1
        for name in ("complexity.witness_untwisted_s", "diffeo.orbit_batch_s",
                     "diffeo.orbit_images_s", "experiments.build_systems_s",
                     "params.build_chain_s", "reporting.bytes_written"):
            assert m[name] > 0, name
