"""End-to-end CLI behavior through cli.main(argv): outputs, exit codes,
config files, and file artifacts."""

import json
import math

import numpy as np
import pytest

from scarfcs import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eigen_table(capsys):
    code, out, err = run(capsys, "eigen", "--model", "conventional",
                         "--n", "0..3")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["n", "E_n"]
    assert len(lines) == 5
    # the printed ratio column carries the closed-form discrepancy
    ratios = [float(line.split()[4]) for line in lines[1:]]
    want = [math.sqrt((2 * n + 12.0) / (2 * n + 24.0)) for n in range(4)]
    assert ratios == pytest.approx(want, abs=1e-9)


def test_eigen_json_to_file(tmp_path, capsys):
    dest = tmp_path / "eigen.json"
    code, out, _ = run(capsys, "eigen", "--model", "rational",
                       "--alpha", "3", "--beta", "1.2", "--n", "0,2",
                       "--format", "json", "-o", str(dest))
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in dest.read_text().splitlines()]
    assert [r["n"] for r in rows] == [0, 2]
    assert rows[0]["energy"] == 9.0 and rows[1]["energy"] == 25.0
    assert rows[0]["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert rows[1]["residual"] < 1e-6


def test_eigen_level_parse_failure_is_exit_1(capsys):
    code, _, err = run(capsys, "eigen", "--n", "5..2")
    assert code == 1
    assert "empty level range" in err


def test_eigen_empty_level_list_is_exit_1(capsys):
    code, out, err = run(capsys, "eigen", "--n", ",")
    assert code == 1 and out == ""
    assert "no levels" in err


def test_eigen_bad_level_fails_before_any_table(capsys, jacobi_calls):
    code, out, err = run(capsys, "eigen", "--n", "3,-1")
    assert code == 2 and out == ""
    assert "non-negative" in err
    assert jacobi_calls == []


@pytest.mark.parametrize("model", ["conventional", "rational"])
def test_eigen_level_block_builds_one_table_per_grid(tmp_path, capsys,
                                                      jacobi_calls, model):
    from scarfcs import scarf

    scarf._norm_store.cache_clear()
    dest = tmp_path / "eigen.jsonl"
    code, _, _ = run(capsys, "eigen", "--model", model, "--n", "180..200",
                     "--format", "json", "-o", str(dest))
    assert code == 0
    rows = [json.loads(line) for line in dest.read_text().splitlines()]
    assert [r["n"] for r in rows] == list(range(180, 201))
    assert len(jacobi_calls) <= 2


def test_validate_single_criterion(capsys):
    code, out, _ = run(capsys, "validate", "--criterion", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS criterion 2 [shape-invariance]")
    assert lines[-1] == "1/1 criteria passed"


def test_validate_rejects_bad_criterion(capsys):
    code, _, err = run(capsys, "validate", "--criterion", "12")
    assert code == 2
    assert "criterion" in err


def test_stats_single_point_jsonl(capsys):
    code, out, _ = run(capsys, "stats", "--gcs", "2", "--alpha", "2",
                       "--z", "0.5")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["gcs"] == 2 and rec["sigma"] is None
    assert rec["mandel_q"] == pytest.approx(11.0 / 12.0, rel=1e-12)
    assert rec["mean_photon"] == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_stats_sweep_csv_round_trips(capsys):
    code, out, _ = run(capsys, "stats", "--gcs", "1", "--z-min", "0.2",
                       "--z-max", "1.0", "--z-points", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gcs,alpha,sigma,z,g2,mandel_q,mean_photon,metric_factor"
    assert len(lines) == 6
    zs = [float(line.split(",")[3]) for line in lines[1:]]
    assert zs == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0], abs=1e-15)
    # every Q in the sweep is sub-Poissonian for family 1
    assert all(float(line.split(",")[5]) < 0.0 for line in lines[1:])


def test_stats_sigma_default_applies_to_gcs4(capsys):
    code, out, _ = run(capsys, "stats", "--gcs", "4", "--alpha", "3",
                       "--z", "1.0")
    assert code == 0
    assert json.loads(out.strip())["sigma"] == -3.0


def test_stats_records_keep_their_byte_format(capsys):
    from scarfcs import coherent, observables, scarf

    r = observables.stats_report(coherent.GcsSpec(coherent.GcsKind.GCS4,
                                                  sigma=-3.0),
                                 scarf.PotentialParams(3.0, 1.0), [0.0, 2.5])
    code, out, _ = run(capsys, "stats", "--gcs", "4", "--alpha", "3",
                       "--z-min", "0", "--z-max", "2.5", "--z-points", "2")
    assert code == 0
    want = "".join(
        f'{{"gcs": 4, "alpha": 3.0, "sigma": -3.0, "z": {float(r.z[k])!r}, '
        f'"g2": {float(r.g2[k])!r}, "mandel_q": {float(r.mandel_q[k])!r}, '
        f'"mean_photon": {float(r.mean_photon[k])!r}, '
        f'"metric_factor": {float(r.metric_factor[k])!r}}}\n'
        for k in range(2))
    assert out == want
    code, out, _ = run(capsys, "stats", "--gcs", "4", "--alpha", "3",
                       "--z", "2.5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == (
        f"4,3.0,-3.0,2.5,{float(r.g2[1])!r},{float(r.mandel_q[1])!r},"
        f"{float(r.mean_photon[1])!r},{float(r.metric_factor[1])!r}")


@pytest.mark.parametrize("argv", [("--gcs", "3", "--z", "500"),
                                  ("--gcs", "4", "--z", "1000"),
                                  ("--gcs", "3", "--z", "1000")])
def test_stats_at_large_z_is_finite(capsys, argv):
    code, out, err = run(capsys, "stats", *argv)
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert all(math.isfinite(rec[key]) for key in
               ("g2", "mandel_q", "mean_photon", "metric_factor"))


@pytest.mark.parametrize("points", ["0", "-3"])
def test_stats_nonpositive_z_points_is_a_usage_error(capsys, points):
    code, out, err = run(capsys, "stats", "--z-points", points)
    assert code == 2 and out == ""
    assert "--z-points" in err


def test_stats_sweep_is_checked_before_any_output(tmp_path, capsys):
    # the last z leaves the GCS2 disk: nothing may be written
    code, out, err = run(capsys, "stats", "--gcs", "2", "--z-min", "0.5",
                         "--z-max", "1.1", "--z-points", "4")
    assert code == 2 and out == ""
    assert "GCS2" in err
    dest = tmp_path / "sweep.jsonl"
    code, out, _ = run(capsys, "stats", "--gcs", "1", "--z-min", "-1",
                       "--z-max", "1", "--z-points", "3", "-o", str(dest))
    assert code == 2 and out == ""
    assert not dest.exists()


def test_sigma_misuse_is_a_usage_error(capsys):
    code, _, err = run(capsys, "stats", "--gcs", "1", "--sigma", "1.0",
                       "--z", "0.5")
    assert code == 2
    assert "--sigma" in err


def test_distribution_sums_to_one(capsys):
    code, out, _ = run(capsys, "distribution", "--gcs", "1",
                       "--zeta-abs", "1.0", "--nmax", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p"
    ps = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(ps) == 31
    assert math.fsum(ps) == pytest.approx(1.0, abs=1e-12)


def test_autocorr_trace(capsys):
    code, out, _ = run(capsys, "autocorr", "--gcs", "1", "--t-points", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re,im,abs2"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1.0, abs=1e-12)
    assert float(last[0]) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert float(last[3]) == pytest.approx(1.0, abs=1e-10)  # revival


def test_carpet_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "carpet", "--x-points", "40",
                       "--t-points", "16")
    assert code == 0
    assert (tmp_path / "carpet.csv").exists()
    assert out.startswith("wrote carpet.csv (40x16, slice norms 1 +/-")


def test_carpet_pgm_reruns_are_byte_identical(tmp_path, capsys):
    args = ("carpet", "--model", "rational", "--format", "pgm",
            "--x-points", "40", "--t-points", "16")
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert run(capsys, *args, "-o", str(a))[0] == 0
    assert run(capsys, *args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"P5\n# ")


def test_carpet_empty_output_fails_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "carpet", "--x-points", "16",
                       "--t-points", "8", "-o", "")
    assert code == 1
    assert "destination path is empty" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("gcs = 2\nalpha = 2  # half-light well\nz = 0.5\n")
    code, out, _ = run(capsys, "stats", "--config", str(cfg))
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["gcs"] == 2 and rec["z"] == 0.5
    # an explicit flag beats the config value
    code, out, _ = run(capsys, "stats", "--config", str(cfg), "--z", "0.25")
    assert code == 0
    assert json.loads(out.strip())["z"] == 0.25


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta-abs = 1.0\n")  # stats has no zeta flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "zeta_abs" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_domain_failures_exit_2(capsys):
    code, _, err = run(capsys, "eigen", "--alpha", "0.5")
    assert code == 2
    assert "alpha" in err
    code, _, err = run(capsys, "carpet", "--margin", "0", "--x-points", "8",
                       "--t-points", "8")
    assert code == 2
