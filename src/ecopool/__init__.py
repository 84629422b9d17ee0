"""Eco-system of specialist gridworld agents.

A pool of small PPO-trained policies is grown over a stream of procedurally
generated FourRooms levels.  New agents are initialized by a pluggable
strategy; the pool is pruned by solved-set dominance and re-sorted so
credit lands on the broadest specialist first.
"""

from .ecosystem import (
    Agent,
    Pool,
    Strategy,
    ecosystem_learn,
    load_pool,
    make_pool,
    optimize_pool,
    save_pool,
)
from .gridworld import (
    Action,
    Direction,
    EnvState,
    GridConfig,
    Level,
    generate_level,
    level_to_json,
    observe,
    parse_ascii,
    render_ascii,
    reset,
    step,
)
from .harness import (
    AggregateRecord,
    ExperimentConfig,
    MetricsRecord,
    adaptability_index,
    aggregate_runs,
    compare_suite,
    export_metrics,
    load_config,
    load_metrics,
    run_suite,
)
from .policy import PolicyParams, forward, init_params
from .ppo import PpoConfig, collect_rollout, compute_gae, learn_epoch, ppo_update, test_agent

__all__ = [
    "Action",
    "Agent",
    "AggregateRecord",
    "Direction",
    "EnvState",
    "ExperimentConfig",
    "GridConfig",
    "Level",
    "MetricsRecord",
    "PolicyParams",
    "Pool",
    "PpoConfig",
    "Strategy",
    "adaptability_index",
    "aggregate_runs",
    "collect_rollout",
    "compare_suite",
    "compute_gae",
    "ecosystem_learn",
    "export_metrics",
    "forward",
    "generate_level",
    "init_params",
    "learn_epoch",
    "level_to_json",
    "load_config",
    "load_metrics",
    "load_pool",
    "make_pool",
    "observe",
    "optimize_pool",
    "parse_ascii",
    "ppo_update",
    "render_ascii",
    "reset",
    "run_suite",
    "save_pool",
    "step",
    "test_agent",
]

__version__ = "0.1.0"
