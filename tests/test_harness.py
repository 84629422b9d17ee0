"""Experiment harness: adaptability index, runs, aggregation, export."""

import json
import math
import multiprocessing
import os
import re
import signal
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ecopool import ecosystem, harness, ppo
from ecopool.ecosystem import Agent, EnvOutcome, Strategy, make_pool, save_pool
from ecopool.gridworld import GridConfig, generate_level
from ecopool.harness import (
    AGGREGATE_COLUMNS,
    METRICS,
    METRICS_COLUMNS,
    AggregateRecord,
    ExperimentConfig,
    MetricsRecord,
    adaptability_index,
    aggregate_runs,
    compare_suite,
    config_from_json,
    export_aggregate,
    export_metrics,
    load_config,
    load_metrics,
    run_suite,
    run_to_dir,
    write_metric_charts,
)
from ecopool.policy import init_params
from ecopool.ppo import PpoConfig

FAST_CFG = PpoConfig(
    rollout_steps=256, minibatch_size=64, update_epochs=6, entropy_coef=0.02
)

GRID = GridConfig(width=9, height=9, max_steps=100)


def _tiny_params(seed):
    return init_params(seed, obs_dim=4, hidden=(4,))


def _pool_of(params_list, strategy=Strategy.BASIC):
    pool = make_pool(strategy, grid=GRID, seed=0)
    for i, params in enumerate(params_list):
        pool.agents.append(Agent(id=i, params=params, solved=[], birth_env=-1))
    pool.next_id = len(params_list)
    return pool


def _scripted_tests(rewards):
    """rewards[(params id, level seed)] -> reward; anything else 0."""

    def fake(params, level):
        return rewards.get((id(params), level.seed), 0.0)

    return fake


def _fake_learn(steps_per_env=7, tests_per_env=3, fail_envs=()):
    """Stand-in for ecosystem_learn: one new crediting agent per env."""

    def fake(pool, level, cfg, budget=300, optimize=True):
        failed = level.seed in fail_envs
        pool.tests_total += tests_per_env
        if failed:
            outcome = EnvOutcome(
                level_seed=level.seed,
                solved_by=None,
                created_new=True,
                training_steps_used=steps_per_env,
                epochs_used=budget,
                failed=True,
                tests_run=tests_per_env,
                credit_reward=None,
                events=[{"event": "failed", "env": level.seed, "agent": pool.next_id}],
            )
            pool.next_id += 1
            return pool, outcome
        agent = Agent(
            id=pool.next_id,
            params=_tiny_params(pool.next_id),
            solved=[level.seed],
            birth_env=level.seed,
        )
        pool.next_id += 1
        pool.agents.append(agent)
        outcome = EnvOutcome(
            level_seed=level.seed,
            solved_by=agent.id,
            created_new=True,
            training_steps_used=steps_per_env,
            epochs_used=2,
            failed=False,
            tests_run=tests_per_env,
            credit_reward=0.9,
            events=[{"event": "solved", "env": level.seed, "agent": agent.id, "reward": 0.9}],
        )
        return pool, outcome

    return fake


# ---------------------------------------------------------------- zeta


def test_zeta_example_mean_of_maxes():
    a, b = _tiny_params(0), _tiny_params(1)
    levels = [generate_level(s, GRID) for s in (100, 101, 102)]
    rewards = {
        (id(a), 100): 0.8,
        (id(a), 101): 0.5,
        (id(a), 102): 1.0,
        (id(b), 100): 0.2,
        (id(b), 101): 0.9,
        (id(b), 102): 0.3,
    }
    pool = _pool_of([a, b])
    real = ecosystem.test_agent
    try:
        harness.test_agent = _scripted_tests(rewards)
        zeta = adaptability_index(pool, levels)
    finally:
        harness.test_agent = real
    assert abs(zeta - 0.9) < 1e-12


def test_zeta_matches_bruteforce_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_agents = int(rng.integers(1, 6))
        n_levels = int(rng.integers(1, 8))
        params = [_tiny_params(i) for i in range(n_agents)]
        levels = [generate_level(300 + j, GRID) for j in range(n_levels)]
        table = rng.random((n_agents, n_levels))
        rewards = {
            (id(params[i]), levels[j].seed): float(table[i, j])
            for i in range(n_agents)
            for j in range(n_levels)
        }
        pool = _pool_of(params)
        monkeypatch.setattr(harness, "test_agent", _scripted_tests(rewards))

        expected_max = sum(max(table[:, j]) for j in range(n_levels)) / n_levels
        assert abs(adaptability_index(pool, levels) - expected_max) < 1e-12


def test_zeta_empty_pool_scores_zero():
    pool = _pool_of([])
    levels = [generate_level(s, GRID) for s in (100, 101)]
    assert adaptability_index(pool, levels) == 0.0


def test_zeta_no_levels_raises():
    with pytest.raises(ValueError):
        adaptability_index(_pool_of([]), [])


def test_zeta_is_read_only(tmp_path):
    pool = _pool_of([init_params(0), init_params(1)])
    levels = [generate_level(s, GRID) for s in (100, 101, 102)]
    save_pool(pool, tmp_path / "before")
    tests_before = pool.tests_total
    adaptability_index(pool, levels)
    save_pool(pool, tmp_path / "after")
    assert pool.tests_total == tests_before
    before = sorted((tmp_path / "before").iterdir())
    after = sorted((tmp_path / "after").iterdir())
    assert [p.name for p in before] == [p.name for p in after]
    for b, a in zip(before, after):
        assert b.read_bytes() == a.read_bytes()


# ---------------------------------------------------------------- config


def test_config_overlapping_ranges_rejected():
    with pytest.raises(ValueError, match="seed ranges overlap"):
        ExperimentConfig(
            strategy=Strategy.BASIC,
            n_train_envs=100,
            eval_every=50,
            n_eval_envs=10,
            train_seed_base=0,
            eval_seed_base=50,
        )


def test_config_adjacent_ranges_ok():
    ExperimentConfig(
        strategy=Strategy.BASIC,
        n_train_envs=100,
        eval_every=50,
        n_eval_envs=10,
        train_seed_base=0,
        eval_seed_base=100,
    ).validate()


def test_config_eval_every_must_divide():
    with pytest.raises(ValueError, match="eval_every"):
        ExperimentConfig(strategy=Strategy.BASIC, n_train_envs=100, eval_every=30)


@pytest.mark.parametrize("key", ["n_train_envs", "eval_every", "n_eval_envs", "n_runs", "budget"])
def test_config_positive_counts(key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(strategy=Strategy.BASIC, **{key: 0})


@pytest.mark.parametrize("key", ["train_seed_base", "eval_seed_base"])
def test_config_negative_seed_base_rejected(key):
    with pytest.raises(ValueError, match="seed bases must be non-negative"):
        ExperimentConfig(strategy=Strategy.BASIC, **{key: -1})


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        strategy=Strategy.FORKED,
        n_train_envs=50,
        eval_every=10,
        n_eval_envs=5,
        eval_seed_base=7777,
        n_runs=3,
        budget=120,
        ppo=FAST_CFG,
        grid=GridConfig(width=11, height=9, max_steps=80),
    )
    data = json.loads(json.dumps(asdict(cfg)))
    assert data["strategy"] == "forked"
    assert config_from_json(data) == cfg


def test_config_unknown_keys_named():
    base = asdict(ExperimentConfig(strategy=Strategy.BASIC))
    bad = dict(base, typo_key=1)
    with pytest.raises(ValueError, match="typo_key"):
        config_from_json(bad)
    bad = dict(base, ppo=dict(base["ppo"], learning=0.1))
    with pytest.raises(ValueError, match="ppo.'learning'"):
        config_from_json(bad)


def test_config_value_types_named():
    base = asdict(ExperimentConfig(strategy=Strategy.BASIC))
    # An int passes for a float.
    cfg = config_from_json(dict(base, threshold=1, ppo=dict(lr=1)))
    assert (cfg.threshold, cfg.ppo.lr) == (1, 1)
    for key, value in (
        ("n_runs", "1"), ("n_runs", 2.0), ("n_runs", True),
        ("threshold", "0.8"), ("optimize_pool", 1), ("strategy", 3),
    ):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from_json(dict(base, **{key: value}))
    with pytest.raises(ValueError, match="ppo.'update_epochs'"):
        config_from_json(dict(base, ppo=dict(update_epochs=None)))


def test_committed_configs_load_and_round_trip():
    # A committed config can neither keep a key the dataclasses lost nor
    # drift from them: every key is named, and no default is left implicit.
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert {p.name for p in paths} >= {"desk.json", "paper_scale.json", "tiny.json"}
    for path in paths:
        assert asdict(load_config(path)) == json.loads(path.read_text())


def test_load_config(tmp_path):
    cfg = ExperimentConfig(strategy=Strategy.RANDOM, n_train_envs=20, eval_every=10)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
    assert load_config(path) == cfg
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(broken)
    with pytest.raises(ValueError, match="cannot read config"):
        load_config(tmp_path / "missing.json")


# ---------------------------------------------------------------- runs


def _cadence_cfg(**overrides):
    kwargs = dict(
        strategy=Strategy.BASIC,
        n_train_envs=100,
        eval_every=50,
        n_eval_envs=4,
        train_seed_base=0,
        eval_seed_base=5000,
        n_runs=1,
        grid=GRID,
        ppo=FAST_CFG,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_run_record_cadence(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ecosystem_learn", _fake_learn())
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)
    records = run_to_dir(_cadence_cfg(), 0, tmp_path / "run").records
    assert len(records) == 2
    assert [r.envs_seen for r in records] == [50, 100]


def test_run_counter_conservation(tmp_path, monkeypatch):
    fail_envs = {3, 17, 61}
    monkeypatch.setattr(
        harness,
        "ecosystem_learn",
        _fake_learn(steps_per_env=7, tests_per_env=3, fail_envs=fail_envs),
    )
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)
    records = run_to_dir(_cadence_cfg(eval_every=25), 0, tmp_path / "run").records
    assert [r.envs_seen for r in records] == [25, 50, 75, 100]
    for r in records:
        assert r.cum_steps == 7 * r.envs_seen
        assert r.cum_tests == 3 * r.envs_seen
        assert r.failures == sum(1 for s in fail_envs if s < r.envs_seen)
        assert r.pool_size == r.envs_seen - r.failures
        assert r.zeta == 0.5
    for prev, cur in zip(records, records[1:]):
        assert cur.envs_seen > prev.envs_seen
        assert cur.cum_steps >= prev.cum_steps
        assert cur.cum_tests >= prev.cum_tests
        assert cur.failures >= prev.failures


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = _cadence_cfg(
        n_train_envs=4, eval_every=2, n_eval_envs=3, train_seed_base=200, budget=150
    )
    run_dir = tmp_path_factory.mktemp("tiny") / "run_00"
    result = run_to_dir(cfg, 0, run_dir)
    return cfg, result, run_dir


def test_real_run_shape(tiny_run):
    cfg, result, _ = tiny_run
    assert [r.envs_seen for r in result.records] == [2, 4]
    assert len(result.outcomes) == cfg.n_train_envs
    final = result.records[-1]
    assert final.pool_size == len(result.pool.agents)
    assert final.cum_steps == sum(o.training_steps_used for o in result.outcomes)
    assert final.cum_tests == result.pool.tests_total
    assert final.failures == sum(o.failed for o in result.outcomes)
    assert 0.0 <= final.zeta <= 1.0


def test_real_run_is_deterministic(tiny_run, tmp_path):
    cfg, result, _ = tiny_run
    again = run_to_dir(cfg, 0, tmp_path / "run").records
    assert again == result.records


def test_run_seed_changes_outcome(tiny_run, tmp_path):
    cfg, result, _ = tiny_run
    other = run_to_dir(cfg, 1, tmp_path / "run").records
    assert [r.envs_seen for r in other] == [r.envs_seen for r in result.records]
    assert other != result.records


def test_run_dir_contents(tiny_run):
    cfg, result, run_dir = tiny_run
    assert load_metrics(run_dir / "metrics.csv") == result.records
    events = [
        json.loads(line)
        for line in (run_dir / "audit.jsonl").read_text().splitlines()
    ]
    assert events == [e for o in result.outcomes for e in o.events]
    loaded = ecosystem.load_pool(run_dir / "pool")
    assert len(loaded.agents) == len(result.pool.agents)


def test_audit_respects_held_out_range(tiny_run):
    cfg, result, _ = tiny_run
    train = set(cfg.train_seeds())
    evals = set(cfg.eval_seeds())
    audited = {e["env"] for o in result.outcomes for e in o.events if "env" in e}
    assert audited
    assert audited <= train
    assert not (audited & evals)
    trained = {o.level_seed for o in result.outcomes}
    assert trained == train


def test_aborted_run_keeps_partial_results(tmp_path, monkeypatch):
    inner = _fake_learn()
    calls = []

    def exploding(pool, level, cfg, budget=300, optimize=True):
        if len(calls) == 3:
            raise RuntimeError("boom")
        calls.append(level.seed)
        return inner(pool, level, cfg, budget=budget, optimize=optimize)

    monkeypatch.setattr(harness, "ecosystem_learn", exploding)
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)
    cfg = _cadence_cfg(n_train_envs=6, eval_every=1, n_eval_envs=2)
    with pytest.raises(RuntimeError, match="boom"):
        run_to_dir(cfg, 0, tmp_path / "run")
    kept = load_metrics(tmp_path / "run" / "metrics.csv")
    assert [r.envs_seen for r in kept] == [1, 2, 3]
    audit_lines = (tmp_path / "run" / "audit.jsonl").read_text().splitlines()
    assert len(audit_lines) == 3


# ---------------------------------------------------------------- aggregation


def _rec(envs_seen, zeta, pool_size=1, cum_steps=10, cum_tests=5, failures=0):
    return MetricsRecord(envs_seen, zeta, pool_size, cum_steps, cum_tests, failures)


def test_aggregate_one_two_three_stderr_exact():
    runs = [[_rec(50, z)] for z in (1.0, 2.0, 3.0)]
    agg = aggregate_runs(runs)[0]
    assert agg.zeta_mean == 2.0
    assert agg.zeta_stderr == 1.0 / math.sqrt(3.0)


def test_aggregate_matches_spreadsheet_oracle():
    rng = np.random.default_rng(11)
    n_runs, n_checkpoints = 5, 4
    values = rng.random((n_runs, n_checkpoints)) * 10.0
    runs = [
        [_rec((j + 1) * 10, float(values[i, j])) for j in range(n_checkpoints)]
        for i in range(n_runs)
    ]
    for j, agg in enumerate(aggregate_runs(runs)):
        column = [float(values[i, j]) for i in range(n_runs)]
        assert abs(agg.zeta_mean - statistics.mean(column)) < 1e-12
        assert abs(agg.zeta_stderr - statistics.stdev(column) / math.sqrt(n_runs)) < 1e-12


def test_aggregate_identical_runs_zero_stderr():
    run = [_rec(10, 0.4), _rec(20, 0.7)]
    for agg in aggregate_runs([run, list(run), list(run)]):
        for metric in METRICS:
            assert getattr(agg, f"{metric}_stderr") == 0.0


def test_aggregate_single_run_zero_stderr():
    aggs = aggregate_runs([[_rec(10, 0.4)]])
    assert aggs[0].zeta_mean == 0.4
    assert aggs[0].zeta_stderr == 0.0


def test_aggregate_checkpoint_mismatch_rejected():
    with pytest.raises(ValueError, match="checkpoint"):
        aggregate_runs([[_rec(10, 0.4)], [_rec(20, 0.4)]])
    with pytest.raises(ValueError, match="checkpoint"):
        aggregate_runs([[_rec(10, 0.4)], [_rec(10, 0.4), _rec(20, 0.5)]])


# ---------------------------------------------------------------- export


def test_export_csv_round_trip(tmp_path):
    records = [
        _rec(50, 0.5773502691896258, 3, 123456, 789, 1),
        _rec(100, 0.9000000000000001, 4, 246912, 1578, 2),
    ]
    path = tmp_path / "metrics.csv"
    export_metrics(records, "csv", path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(METRICS_COLUMNS)
    assert "0.5773502691896258" in text
    assert "123456" in text and "123,456" not in text
    assert load_metrics(path) == records


def test_export_json_round_trip(tmp_path):
    records = [_rec(50, 1.0 / 3.0), _rec(100, 2.0 / 3.0)]
    path = tmp_path / "metrics.json"
    export_metrics(records, "json", path)
    assert json.loads(path.read_text()) == [asdict(r) for r in records]
    with pytest.raises(ValueError, match="lacks metrics column"):
        load_metrics(path)


def test_load_metrics_names_missing_columns(tmp_path):
    records = [_rec(50, 0.25)]
    path = tmp_path / "metrics.csv"
    export_metrics(records, "csv", path)
    text = path.read_text().replace("pool_size", "size").replace("failures", "fails")
    path.write_text(text)
    with pytest.raises(ValueError, match="lacks metrics column pool_size, failures"):
        load_metrics(path)
    # A JSON export is output only: read back as CSV, it lacks every column.
    path = tmp_path / "metrics.json"
    export_metrics(records, "json", path)
    assert json.loads(path.read_text()) == [asdict(r) for r in records]
    named = f"{path} lacks metrics column {', '.join(METRICS_COLUMNS)}"
    with pytest.raises(ValueError, match=re.escape(named)):
        load_metrics(path)


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_metrics([_rec(10, 0.5)], "xml", tmp_path / "x.xml")


def test_export_io_error_names_path(tmp_path):
    target = tmp_path / "no_such_dir" / "metrics.csv"
    with pytest.raises(OSError, match=re.escape(str(target))):
        export_metrics([_rec(10, 0.5)], "csv", target)


def test_export_aggregate_columns(tmp_path):
    aggs = aggregate_runs([[_rec(10, z)] for z in (1.0, 2.0, 3.0)])
    path = tmp_path / "aggregate.csv"
    export_aggregate(aggs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(AGGREGATE_COLUMNS)
    row = lines[1].split(",")
    assert row[0] == "10"
    assert float(row[AGGREGATE_COLUMNS.index("zeta_stderr")]) == 1.0 / math.sqrt(3.0)


# ---------------------------------------------------------------- suites


def test_run_suite_layout(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ecosystem_learn", _fake_learn())
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)
    cfg = _cadence_cfg(n_train_envs=6, eval_every=3, n_eval_envs=2, n_runs=2)
    runs = run_suite(cfg, tmp_path / "suite")
    assert len(runs) == 2
    for i in range(2):
        run_dir = tmp_path / "suite" / f"run_{i:02d}"
        assert load_metrics(run_dir / "metrics.csv") == runs[i]
        assert (run_dir / "audit.jsonl").exists()
        assert (run_dir / "pool" / "pool.json").exists()
    agg_lines = (tmp_path / "suite" / "aggregate.csv").read_text().splitlines()
    assert agg_lines[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(agg_lines) == 1 + 2


def test_compare_suite_layout(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ecosystem_learn", _fake_learn())
    monkeypatch.setattr(harness, "test_agent", lambda params, level: 0.5)
    cfg = _cadence_cfg(n_train_envs=4, eval_every=2, n_eval_envs=2, n_runs=2)
    strategies = [Strategy.BASIC, Strategy.FORKED]
    aggregates = compare_suite(cfg, strategies, tmp_path / "cmp")
    assert set(aggregates) == set(strategies)
    for strategy in strategies:
        assert (tmp_path / "cmp" / strategy.value / "aggregate.csv").exists()
    lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert lines[0] == (
        "envs_seen,basic_zeta,basic_pool_size,basic_cum_steps,"
        "forked_zeta,forked_pool_size,forked_cum_steps"
    )
    assert len(lines) == 1 + 2
    for metric in METRICS:
        svg = tmp_path / "cmp" / "charts" / f"{metric}.svg"
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")


def test_compare_suite_parallel_writes_same_bytes(tmp_path):
    cfg = _cadence_cfg(
        n_train_envs=2,
        eval_every=1,
        n_eval_envs=2,
        budget=3,
        ppo=PpoConfig(rollout_steps=64, minibatch_size=32, update_epochs=2),
    )
    strategies = [Strategy.BASIC, Strategy.FORKED]

    def written(jobs):
        out = tmp_path / f"jobs{jobs}"
        compare_suite(cfg, strategies, out, jobs=jobs)
        return {
            str(p.relative_to(out)): p.read_bytes()
            for pattern in ("*.csv", "*.jsonl")
            for p in out.rglob(pattern)
        }

    serial = written(1)
    assert sorted(serial) == [
        "basic/aggregate.csv",
        "basic/run_00/audit.jsonl",
        "basic/run_00/metrics.csv",
        "compare.csv",
        "forked/aggregate.csv",
        "forked/run_00/audit.jsonl",
        "forked/run_00/metrics.csv",
    ]
    assert written(2) == serial


SCRIPT_HEADER = """
import os, sys
from ecopool import harness, ppo
from ecopool.ecosystem import Strategy
from ecopool.ppo import PpoConfig

def tiny_cfg(n_runs):
    return harness.ExperimentConfig(
        strategy=Strategy.BASIC, n_train_envs=1, eval_every=1, n_eval_envs=1,
        n_runs=n_runs, budget=2,
        ppo=PpoConfig(rollout_steps=64, minibatch_size=32, update_epochs=1),
    )

def child_left():
    try:
        os.waitpid(-1, os.WNOHANG)  # reaps or finds any child left behind
        return True
    except ChildProcessError:
        return False
"""

UNGUARDED_SCRIPT = SCRIPT_HEADER + """
print("top level", flush=True)
out, jobs, n_runs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
update = ppo.ppo_update

def spying_update(*args, **kwargs):
    with open(os.path.join(out, "updates.txt"), "a") as fh:
        fh.write(f"{os.getpid()} {ppo._helper is not None}\\n")
    return update(*args, **kwargs)

ppo.ppo_update = spying_update
os.makedirs(out)
harness.run_suite(tiny_cfg(n_runs), out, jobs=jobs)
with open(os.path.join(out, "updates.txt")) as fh:
    pids, helper = zip(*(line.split() for line in fh))
workers = len(set(pids) - {str(os.getpid())})
print("updates", len(pids), "workers", workers, "helper", all(h == "True" for h in helper),
      "child_left", child_left())
"""

GUARDED_WRAPPER_SCRIPT = SCRIPT_HEADER + """
def main():
    harness.adaptability_index = lambda pool, eval_levels: 0.125
    runs = harness.run_suite(tiny_cfg(2), sys.argv[1], jobs=2)
    print(*(run[-1].zeta for run in runs))

if __name__ == "__main__":
    main()
"""

HELPER_AROUND_JOBS_SCRIPT = SCRIPT_HEADER + """
serial = harness.run_suite(tiny_cfg(2), os.path.join(sys.argv[1], "serial"))
with ppo.critic_helper():
    helper = ppo._helper is not None
    forked = harness.run_suite(tiny_cfg(2), os.path.join(sys.argv[1], "forked"), jobs=2)
print("same", forked == serial, "helper", helper, "child_left", child_left())
"""


def _run_script(tmp_path, text, *args):
    """The stdout lines of `text` run as a script, which must exit 0, in
    its own session; on a timeout the whole session is killed and the
    test fails."""
    script = tmp_path / "script.py"
    script.write_text(text)
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, str(script), *map(str, args)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("script timed out")
    assert proc.returncode == 0, stderr
    return stdout.splitlines()


@pytest.mark.parametrize("jobs", [1, 2])
def test_unguarded_script_runs_once_and_leaves_no_child(tmp_path, jobs):
    # No `if __name__ == "__main__"` guard: a helper or a worker that
    # imported the script again would print its top level twice, or fail.
    lines = _run_script(tmp_path, UNGUARDED_SCRIPT, tmp_path / "out", jobs, jobs)
    assert lines[0] == "top level" and len(lines) == 2
    updates, workers, helper, left = lines[1].split()[1::2]
    assert int(updates) >= jobs and left == "False"
    if jobs == 1:
        assert workers == "0"
        if ppo._usable_cpus() >= 2:
            assert helper == "True"
    else:  # the wrapper reached the forked workers, which update inline
        assert int(workers) >= 1 and helper == "False"


def test_wrapper_installed_in_main_reaches_the_workers(tmp_path):
    lines = _run_script(tmp_path, GUARDED_WRAPPER_SCRIPT, tmp_path / "out")
    assert lines == ["0.125 0.125"]


def test_workers_forked_inside_a_helper_block_update_inline(tmp_path):
    # Each worker inherits the block's helper; using it would share one
    # pipe between processes and hang.
    lines = _run_script(tmp_path, HELPER_AROUND_JOBS_SCRIPT, tmp_path / "out")
    same, helper, left = lines[0].split()[1::2]
    assert same == "True" and left == "False"
    if ppo._usable_cpus() >= 2:
        assert helper == "True"


def test_run_to_dir_trains_on_one_helper(tmp_path, helpers):
    # Two levels, each trained for its whole budget: per-level blocks
    # alone would fork two helpers.
    cfg = _cadence_cfg(n_train_envs=2, eval_every=1, n_eval_envs=1, budget=3)
    result = run_to_dir(cfg, 0, tmp_path / "run")
    assert [o.training_steps_used for o in result.outcomes] == [3 * FAST_CFG.rollout_steps] * 2
    assert len(helpers) == 1
    assert helpers[0].jobs >= 1
    assert helpers[0].proc.exitcode == 0
    assert multiprocessing.active_children() == []


def test_compare_suite_needs_two_strategies(tmp_path):
    cfg = _cadence_cfg()
    with pytest.raises(ValueError, match="2 strategies"):
        compare_suite(cfg, [Strategy.BASIC], tmp_path / "cmp")


def test_chart_writer_one_file_per_metric(tmp_path):
    aggs = aggregate_runs(
        [[_rec(10, 0.2, 1, 100, 5, 0), _rec(20, 0.6, 2, 250, 9, 1)]] * 2
    )
    # Two runs that agree at 10 and 30 and differ at 20 and 40 in zeta,
    # pool_size and cum_steps: a whisker where the stderr is above 0 only.
    differ = aggregate_runs([
        [_rec(10, 0.2, 1, 100), _rec(20, 0.6, 2, 250), _rec(30, 0.7), _rec(40, 0.8, 3, 400)],
        [_rec(10, 0.2, 1, 100), _rec(20, 0.4, 3, 260), _rec(30, 0.7), _rec(40, 0.9, 2, 420)],
    ])
    whiskers = 0
    for case, by_strategy in enumerate(
        ({"basic": aggs, "forked": aggs}, {"basic": aggs, "forked": differ})
    ):
        out = tmp_path / str(case)
        write_metric_charts(by_strategy, out)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(f"{m}.svg" for m in METRICS)
        for metric in METRICS:
            text = (out / f"{metric}.svg").read_text()
            assert "basic" in text and "forked" in text
            lines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', text)
            assert len(lines) == len(by_strategy)
            for (vertices, color), recs in zip(lines, by_strategy.values()):
                assert len(vertices.split()) == len(recs)
                drawn = text.count(f'stroke="{color}" stroke-width="1"/>')
                assert drawn == sum(getattr(r, f"{metric}_stderr") > 0 for r in recs)
                whiskers += drawn
    assert whiskers == 3 * 2  # zeta, pool_size and cum_steps at 20 and 40


def test_chart_of_one_checkpoint_widens_the_x_range(tmp_path):
    # A stream of eval_every levels has one checkpoint, so x0 == x1: the
    # x-range widens to one level either side and each line is one vertex
    # in the middle of the plot.
    basic = aggregate_runs([[_rec(7, 0.4, 2, 3584, 9, 0)], [_rec(7, 0.6, 3, 4096, 11, 1)]])
    forked = aggregate_runs([[_rec(7, 0.5, 4, 2048, 12, 0)]])
    write_metric_charts({"basic": basic, "forked": forked}, tmp_path)
    for metric in METRICS:
        text = (tmp_path / f"{metric}.svg").read_text()
        lines = re.findall(r'<polyline points="([^",]*),[^" ]*"', text)
        assert lines == ["345.0", "345.0"]
        ticks = re.findall(r'<text x="([^"]*)" y="372" font-size="11"[^>]*>([^<]*)</text>', text)
        assert ticks == [
            ("70.0", "6"), ("207.5", "6.5"), ("345.0", "7"), ("482.5", "7.5"), ("620.0", "8")
        ]
