"""CLI: subcommands, exit codes, output layout."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from ecopool import cli, harness
from ecopool.ecosystem import Strategy, load_pool, make_pool, save_pool
from ecopool.gridworld import generate_level, level_to_json
from ecopool.harness import ExperimentConfig, load_metrics

from test_acceptance import GRID, TINY_PPO
from test_harness import _fake_learn

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def fake_training(monkeypatch):
    """Swap real training for a fast one-agent-per-env stub."""
    monkeypatch.setattr(harness, "ecosystem_learn", _fake_learn())
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)


def _run_args(out, extra=()):
    return [
        "run",
        "--strategy",
        "basic",
        "--envs",
        "4",
        "--eval-every",
        "2",
        "--runs",
        "2",
        "--out",
        str(out),
        *extra,
    ]


# ---------------------------------------------------------------- run


def test_run_writes_expected_files(fake_training, tmp_path, capsys):
    out = tmp_path / "exp"
    assert cli.main(_run_args(out)) == 0
    for i in (0, 1):
        run_dir = out / f"run_{i:02d}"
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert (run_dir / "audit.jsonl").exists()
        assert (run_dir / "pool" / "pool.json").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "run.log").exists()
    stdout = capsys.readouterr().out
    assert "run 0:" in stdout and "run 1:" in stdout


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ppo", key, value)
        for key in ("lr", "epsilon", "value_coef", "entropy_coef")
        for value in (float("nan"), float("inf"))
    ]
    + [(None, "zeta_mean_over_pool", False), (None, "out_dir", None)],
)
def test_run_refuses_bad_config_before_writing(tmp_path, capsys, section, key, value):
    # NaN and Infinity reach the config as JSON literals; the two keys
    # are settings the config no longer has.
    data = json.loads((CONFIGS / "tiny.json").read_text())
    (data[section] if section else data)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "exp"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_run_requires_strategy_or_config(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path / "x")]) == 2
    assert "--config or --strategy" in capsys.readouterr().err


def test_strategy_override_recorded(fake_training, tmp_path):
    cfg = ExperimentConfig(
        strategy=Strategy.BASIC, n_train_envs=4, eval_every=2, n_eval_envs=2, n_runs=1
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    out = tmp_path / "exp"
    rc = cli.main(
        ["run", "--config", str(cfg_path), "--strategy", "forked", "--out", str(out)]
    )
    assert rc == 0
    meta = json.loads((out / "config.json").read_text())
    assert meta["strategy"] == "forked"
    pool = json.loads((out / "run_00" / "pool" / "pool.json").read_text())
    assert pool["strategy"] == "forked"


def test_overlapping_seed_ranges_exit_2(tmp_path, capsys):
    data = asdict(
        ExperimentConfig(strategy=Strategy.BASIC, n_train_envs=100, n_eval_envs=10)
    )
    data["eval_seed_base"] = 50
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "seed ranges overlap" in capsys.readouterr().err


def test_config_without_strategy_exit_2(tmp_path, capsys):
    data = asdict(ExperimentConfig(strategy=Strategy.BASIC))
    del data["strategy"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    rc = cli.main(
        ["run", "--config", str(cfg_path), "--strategy", "basic", "--out", str(out)]
    )
    assert rc == 2
    assert "'strategy'" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["show-env", "3", "--config", str(cfg_path)]) == 2
    assert "'strategy'" in capsys.readouterr().err


def test_grid_as_list_exit_2(tmp_path, capsys):
    data = asdict(ExperimentConfig(strategy=Strategy.BASIC))
    data["grid"] = [9, 9, 100]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'grid'" in capsys.readouterr().err
    assert not out.exists()


def test_minibatch_above_rollout_exit_2(tmp_path, capsys):
    data = json.loads((CONFIGS / "tiny.json").read_text())
    data["ppo"]["minibatch_size"] = 512  # rollout_steps is 256
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "minibatch_size" in err and "rollout_steps" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("width", 10, "width and height must be odd and >= 9, got 10x9"),
        ("max_steps", 0, "max_steps must be >= 1, got 0"),
    ],
)
def test_bad_grid_exit_2_before_any_output(tmp_path, capsys, key, value, problem):
    data = json.loads((CONFIGS / "tiny.json").read_text())
    data["grid"][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_2(tmp_path, capsys, command, jobs):
    out = tmp_path / "x"
    argv = [command, "--config", str(CONFIGS / "tiny.json"), "--jobs", jobs, "--out", str(out)]
    if command == "compare":
        argv += ["--strategy", "basic", "--strategy", "forked"]
    assert cli.main(argv) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, edit, key",
    [
        ("run", lambda data: data.update(n_runs="1"), "'n_runs'"),
        ("show-env", lambda data: data["grid"].update(width="9"), "grid.'width'"),
    ],
)
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, command, edit, key):
    data = json.loads((CONFIGS / "tiny.json").read_text())
    edit(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    if command == "run":
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    else:
        argv = ["show-env", "3", "--config", str(cfg_path)]
    assert cli.main(argv) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_are_validated(tmp_path, capsys):
    rc = cli.main(
        ["run", "--strategy", "basic", "--envs", "100", "--eval-every", "30",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "eval_every" in capsys.readouterr().err


def test_unknown_flag_exit_2(capsys):
    assert cli.main(["run", "--strategy", "basic", "--frobnicate"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_runtime_failure_exit_1(tmp_path, capsys, monkeypatch):
    def boom(pool, level, cfg, budget=300, optimize=True, audit=None):
        raise RuntimeError("midway crash")

    monkeypatch.setattr(harness, "ecosystem_learn", boom)
    out = tmp_path / "exp"
    assert cli.main(_run_args(out, extra=["--runs", "1"])) == 1
    assert "midway crash" in capsys.readouterr().err
    # the aborted run still leaves its header behind
    assert (out / "run_00" / "metrics.csv").read_text().startswith("envs_seen,")


def test_ecopool_out_env_sets_default_root(fake_training, tmp_path, monkeypatch):
    monkeypatch.setenv("ECOPOOL_OUT", str(tmp_path / "root"))
    rc = cli.main(
        ["run", "--strategy", "basic", "--envs", "2", "--eval-every", "1",
         "--runs", "1"]
    )
    assert rc == 0
    assert (tmp_path / "root" / "run-basic" / "aggregate.csv").exists()


# ---------------------------------------------------------------- show-env


def test_show_env_deterministic(capsys):
    assert cli.main(["show-env", "7"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["show-env", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "#" in first and '"seed": 7' in first


def test_show_env_json_round_trips(capsys):
    assert cli.main(["show-env", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == level_to_json(generate_level(7))


def test_show_env_grid_from_config(tmp_path, capsys):
    cfg = ExperimentConfig(
        strategy=Strategy.BASIC,
        grid=harness.GridConfig(width=13, height=11, max_steps=60),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli.main(["show-env", "3", "--config", str(cfg_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["width"], data["height"], data["max_steps"]) == (13, 11, 60)


def test_show_env_bad_seed_exit_2(capsys):
    assert cli.main(["show-env", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- compare


def test_compare_shared_schedule_and_rerun_identical(fake_training, tmp_path):
    args = [
        "compare",
        "--strategy", "basic",
        "--strategy", "random",
        "--envs", "4",
        "--eval-every", "2",
        "--runs", "1",
    ]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()

    def schedule(path):
        return [json.loads(line)["env"] for line in path.read_text().splitlines()]

    basic = schedule(out1 / "basic" / "run_00" / "audit.jsonl")
    random_ = schedule(out1 / "random" / "run_00" / "audit.jsonl")
    assert basic == random_ == [0, 1, 2, 3]
    assert len(list((out1 / "charts").glob("*.svg"))) == len(harness.METRICS)
    header = (out1 / "compare.csv").read_text().splitlines()[0]
    assert header.startswith("envs_seen,basic_zeta")


def test_compare_needs_two_strategies(tmp_path, capsys):
    rc = cli.main(
        ["compare", "--strategy", "basic", "--out", str(tmp_path / "c")]
    )
    assert rc == 2
    assert "at least 2" in capsys.readouterr().err


def test_compare_repeated_strategy_exit_2(tmp_path, capsys, monkeypatch):
    def no_runs(tasks, jobs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_run_tasks", no_runs)
    out = tmp_path / "c"
    rc = cli.main(
        ["compare", "--strategy", "basic", "--strategy", "forked",
         "--strategy", "basic", "--out", str(out)]
    )
    assert rc == 2
    assert "more than once: basic" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- inspect / export


def test_inspect_pool(fake_training, tmp_path, capsys):
    out = tmp_path / "exp"
    cli.main(_run_args(out, extra=["--runs", "1"]))
    capsys.readouterr()
    pool_dir = out / "run_00" / "pool"
    assert cli.main(["inspect-pool", str(pool_dir)]) == 0
    text = capsys.readouterr().out
    assert "strategy:  basic" in text
    assert "agents:    4" in text
    assert "agent 0: 1 solved [0]" in text
    assert cli.main(["inspect-pool", str(pool_dir), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [a["id"] for a in data["agents"]] == [0, 1, 2, 3]
    assert cli.main(["inspect-pool", str(tmp_path / "nope")]) == 2


def _add_agent(manifest, **entry):
    """Append an agent entry to a pool.json, with `next_id` above its id."""
    widths = [[147, 64, 64, 3], [147, 64, 64, 1]]
    agent = dict(dict(id=0, solved=[3], birth_env=3, widths=widths), **entry)
    manifest["agents"].append(agent)
    manifest["next_id"] = max(manifest["next_id"], agent["id"] + 1)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda m: m.update(version=2), "unsupported pool version 2"),
        (lambda m: m.update(version=1), "unsupported pool version 1"),
        (lambda m: m.update(main_widths=None), "has no main agent"),
        (lambda m: m.update(strategy="basic"), "has a main agent but is not forked"),
        (lambda m: m.pop("grid"), "missing pool.json key 'grid'"),
        (lambda m: m.update(threshold="0.8"), "pool.json key 'threshold': '0.8'"),
        (lambda m: m.update(next_id="x"), "pool.json key 'next_id': 'x'"),
        (lambda m: _add_agent(m, solved=["3"]), "pool.json key agents.'solved'"),
        (lambda m: m.update(threshold=5.0), "threshold must be in (0, 1], got 5.0"),
        (lambda m: m.update(threshold=float("nan")), "threshold must be in (0, 1], got nan"),
        (lambda m: m.update(forks_absorbed=-1), "forks_absorbed must be >= 0, got -1"),
        (
            lambda m: (_add_agent(m, id=2), _add_agent(m, id=2)),
            "two agents share an id: [2, 2]",
        ),
        (
            lambda m: (_add_agent(m, id=7), m.update(next_id=0)),
            "next_id 0 is not above agent id 7",
        ),
    ],
)
def test_inspect_pool_refuses_bad_manifest(tmp_path, capsys, edit, named):
    save_pool(make_pool(Strategy.FORKED), tmp_path)
    manifest = json.loads((tmp_path / "pool.json").read_text())
    edit(manifest)
    (tmp_path / "pool.json").write_text(json.dumps(manifest))
    for flags in ([], ["--json"]):
        assert cli.main(["inspect-pool", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""


def test_export_stdout_and_file(fake_training, tmp_path, capsys):
    out = tmp_path / "exp"
    cli.main(_run_args(out, extra=["--runs", "1"]))
    capsys.readouterr()
    run_dir = out / "run_00"

    assert cli.main(["export", str(run_dir)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["envs_seen"] for d in data] == [2, 4]

    assert cli.main(["export", str(run_dir), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("envs_seen,zeta,")

    target = tmp_path / "m.json"
    rc = cli.main(
        ["export", str(run_dir), "--format", "json", "--out", str(target)]
    )
    assert rc == 0
    records = load_metrics(run_dir / "metrics.csv")
    assert json.loads(target.read_text()) == [asdict(r) for r in records]

    assert cli.main(["export", str(tmp_path)]) == 2


def test_export_names_missing_column(fake_training, tmp_path, capsys):
    out = tmp_path / "exp"
    cli.main(_run_args(out, extra=["--runs", "1"]))
    capsys.readouterr()
    metrics = out / "run_00" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    assert cli.main(["export", str(out / "run_00")]) == 2
    captured = capsys.readouterr()
    assert "lacks metrics column failures" in captured.err
    assert captured.out == ""


def _with_cell(column, value):
    """A metrics row edit: `column` set to `value`, or dropped if None."""

    def edit(cells):
        if value is None:
            return cells[: harness.METRICS_COLUMNS.index(column)]
        return [value if c == column else cell for c, cell in zip(harness.METRICS_COLUMNS, cells)]

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(_with_cell("failures", None), "column failures holds None", id="missing"),
        pytest.param(_with_cell("cum_steps", "x"), "column cum_steps holds 'x'", id="text"),
        pytest.param(_with_cell("cum_steps", "3.0"), "column cum_steps holds '3.0'", id="float"),
    ],
)
def test_export_names_bad_value(fake_training, tmp_path, capsys, edit, named):
    out = tmp_path / "exp"
    cli.main(_run_args(out, extra=["--runs", "1"]))
    capsys.readouterr()
    metrics = out / "run_00" / "metrics.csv"
    header, first, *rest = metrics.read_text().splitlines()
    first = ",".join(edit(first.split(",")))
    metrics.write_text("\n".join([header, first, *rest]) + "\n")
    assert cli.main(["export", str(out / "run_00")]) == 2
    captured = capsys.readouterr()
    assert f"{metrics} line 2: metrics {named}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------- entry point


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ecopool", "show-env", "3", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == level_to_json(generate_level(3))


def test_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Criterion 1's small config, run once per BLAS thread count.
    cfg = ExperimentConfig(
        strategy=Strategy.BASIC,
        n_train_envs=10,
        eval_every=5,
        n_eval_envs=5,
        train_seed_base=0,
        eval_seed_base=1_000_000,
        n_runs=1,
        budget=200,
        ppo=TINY_PPO,
        grid=GRID,
    )
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas_{threads}"
        subprocess.run(
            [sys.executable, "-m", "ecopool", "run", "--config", str(cfg_path),
             "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        )
        run_dir = out / "run_00"
        files = ["metrics.csv", "audit.jsonl"] + sorted(
            str(f.relative_to(run_dir)) for f in run_dir.glob("pool/*.npy")
        )
        outputs.append({name: (run_dir / name).read_bytes() for name in files})
    assert len(outputs[0]) > 2
    assert outputs[0] == outputs[1]


def _tiny_digests(out, *flags):
    argv = ["run", "--config", str(CONFIGS / "tiny.json"), "--out", str(out), *flags]
    assert cli.main(argv) == 0
    run_dir = out / "run_00"
    digests = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "audit.jsonl")
    }
    main = load_pool(run_dir / "pool").main_agent
    if main is not None:
        digests["main agent float64"] = hashlib.sha256(main.flat.tobytes()).hexdigest()
    return digests


def test_tiny_config_output_hashes(tmp_path):
    # The bytes every bit-exact change must keep.  A change that moves the
    # numbers on purpose updates these hashes and says so in CHANGES.md.
    assert _tiny_digests(tmp_path / "tiny") == {
        "metrics.csv": "380b3d2eeae4c5cf498e877a12fbe3b94ba8b9c6a3dfed3f7ab07cfa16b44b65",
        "audit.jsonl": "2c417d7b6d27afc0769c00454e0a3c09b1c75c22c704a62899ef84be2ca39542",
    }


def test_tiny_config_forked_output_hashes(tmp_path):
    # The forked strategy: its running-mean main agent, and (with two
    # usable CPUs) the critic helper.
    assert _tiny_digests(tmp_path / "forked", "--strategy", "forked") == {
        "metrics.csv": "e51e288dedc22129a2f7b4cfa613f7cab43530a8a10775265e0d9366b2aae06f",
        "audit.jsonl": "fba07c02dfda1bbe330a3a90466b11118b1409c24d6f11b1245bd806a4993acb",
        "main agent float64": "126d0888045126d6ce8394063f676415c77cb173aa53076befad356f1d75d6e9",
    }
