"""End-to-end command-line behavior against real output directories."""
import subprocess
import sys
from pathlib import Path

import pytest

from scsim import cli

FAST = ["--override", "engine.duration=900",
        "--override", "traffic.base_density=0.002",
        "--override", "traffic.daily_profile=off"]


# the summary.csv columns of one run, as the README gives them
SUMMARY_HEADER = (
    "seed,policy,offered,scs_served,mbs_served,normalized_offload,hit_rate,"
    "continuity_rate,outage_energy,overflow_energy,pushes,defers"
)


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_run_writes_three_files_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "res"
    assert run_cli(["run", "--out", out] + FAST) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.csv", "plot.svg", "summary.csv"
    ]
    assert "normalized offload" in capsys.readouterr().out


def test_metrics_header_is_exact(tmp_path):
    out = tmp_path / "res"
    run_cli(["run", "--out", out] + FAST)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == (
        "epoch_start_s,offered,scs_served,mbs_served,hit_rate,mean_power,"
        "mean_battery,outage_energy,overflow_energy,continuity_rate,pushes,defers"
    )
    assert len(lines) == 2  # one epoch for a 900 s run
    assert lines[1].split(",")[0] == "0"


def test_summary_header_and_roundtrip(tmp_path):
    out = tmp_path / "res"
    run_cli(["run", "--out", out] + FAST)
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "42" and fields[1] == "sustainable"
    offered, scs, mbs = int(fields[2]), int(fields[3]), int(fields[4])
    assert offered == scs + mbs


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["run", "--out", a] + FAST)
    run_cli(["run", "--out", b] + FAST)
    for name in ("metrics.csv", "summary.csv", "plot.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_override_beats_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[engine]\nseed = 5\nduration = 900\n[traffic]\ndaily_profile = off\n")
    out = tmp_path / "res"
    run_cli(["run", "--config", cfg, "--out", out, "--override", "engine.seed=6"])
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("6,")


def test_seeds_flag_batches_runs(tmp_path):
    out = tmp_path / "res"
    run_cli(["run", "--out", out, "--seeds", "3"] + FAST)
    summary = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in summary[1:]] == ["42", "43", "44"]
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 3  # three single-epoch runs


def test_sweep_cache_outputs_ordered_sizes(tmp_path):
    out = tmp_path / "res"
    args = ["sweep-cache", "--out", out,
            "--override", "engine.cache_sizes=0,31,1000",
            "--override", "energy.kind=constant",
            "--override", "station.split_ratio=1.0",
            "--override", "policy.backhaul_files_per_epoch=2000"] + FAST
    assert run_cli(args) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "cache_capacity,offload_mbps," + SUMMARY_HEADER
    sizes = [int(r.split(",")[0]) for r in rows[1:]]
    offloads = [float(r.split(",")[1]) for r in rows[1:]]
    assert sizes == [0, 31, 1000]
    assert offloads[0] == 0.0 and offloads[0] < offloads[1] < offloads[2]


def test_compare_energy_reports_ratio(tmp_path):
    out = tmp_path / "res"
    args = ["compare-energy", "--out", out,
            "--override", "energy.kind=constant"] + FAST
    assert run_cli(args) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == SUMMARY_HEADER + ",capacity_ratio"
    ratios = {r.split(",")[-1] for r in rows[1:]}
    policies = [r.split(",")[1] for r in rows[1:]]
    assert policies == ["sustainable", "greedy"]
    assert len(ratios) == 1
    assert float(ratios.pop()) == pytest.approx(1.0, abs=0.02)


def test_compare_energy_workers_do_not_change_bytes(tmp_path):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        args = ["compare-energy", "--out", out, "--seeds", "2",
                "--override", f"engine.workers={workers}"] + FAST
        assert run_cli(args) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("metrics.csv", "summary.csv", "plot.svg")})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]["summary.csv"].splitlines()) == 1 + 2 * 2


def test_sweep_cache_workers_do_not_change_bytes(tmp_path):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        args = ["sweep-cache", "--out", out, "--seeds", "2",
                "--override", "engine.cache_sizes=0,5,31",
                "--override", f"engine.workers={workers}"] + FAST
        assert run_cli(args) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("metrics.csv", "summary.csv", "plot.svg")})
    assert outputs[0] == outputs[1]
    seeds = [row.split(b",")[2] for row in outputs[0]["summary.csv"].splitlines()[1:]]
    assert seeds == [b"42"] * 3 + [b"43"] * 3

def test_plot_is_wellformed_svg(tmp_path):
    out = tmp_path / "res"
    run_cli(["run", "--out", out] + FAST)
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg


def test_unknown_override_key_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--out", tmp_path / "res",
                    "--override", "station.cache_capicity=5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cache_capicity" in err and "[station]" in err
    assert not (tmp_path / "res").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--config", tmp_path / "nope.cfg", "--out", tmp_path / "res"])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way")
    code = run_cli(["run", "--out", blocker] + FAST)
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_partial_outputs_removed_on_write_failure(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res"
    real_write = Path.write_text
    calls = {"n": 0}

    def flaky(self, content, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("disk full")
        return real_write(self, content, **kwargs)

    monkeypatch.setattr(Path, "write_text", flaky)
    code = run_cli(["run", "--out", out] + FAST)
    assert code == 3
    assert list(out.iterdir()) == []


def test_missing_out_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])
    assert exc.value.code == 2


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "res"
    proc = subprocess.run(
        [sys.executable, "-m", "scsim.cli", "run", "--out", str(out)]
        + [str(a) for a in FAST],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()
