"""The package's layers as the traced run sees them.

`LayerProbe.install` wraps each public function where its callers look
it up and counts, beside the spans, the units of work each layer did.
`LayerProbe.metrics` turns those counts into the per-layer metrics,
each given per traced round.
"""

from __future__ import annotations

from statistics import median

from ecopool import ecosystem, gridworld, harness, policy, ppo

from spans import Tracer

# Span names; each gives a `.calls` (count) and a `.s` (self time) metric.
SPANS = (
    "gridworld.step",
    "gridworld.observe",
    "gridworld.reset",
    "gridworld.generate_level",
    "policy.forward",
    "policy.grad_loss",
    "policy.Adam.step",
    "ppo.collect_rollout",
    "ppo.ppo_update",
    "ppo.test_agent",
    "ecosystem.find_best_agent",
    "ecosystem.train_until_solved",
    "ecosystem.optimize_pool",
    "ecosystem.ecosystem_learn",
    "ecosystem.save_pool",
    "harness.adaptability_index",
    "harness.outputs",
)


def episode_steps(reward: float, max_steps: int) -> int:
    """Steps a greedy episode took, read from its reward (0 pays for max_steps)."""
    return max_steps if reward == 0.0 else round((1.0 - reward) * max_steps / 0.9)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_or_zero(values) -> float:
    return median(values) if values else 0.0


class LayerProbe:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.test_ms: dict[bool, list[float]] = {True: [], False: []}
        self.test_steps = 0
        self.find_tests = 0
        self.find_hits = 0
        self.train_epochs = 0
        self.train_tests = 0
        self.train_steps = 0
        self.budget_failures = 0
        self.optimize_tests = 0
        self.absorbed = 0
        self.zeta_tests = 0
        self.zetas: list[float] = []

    def install(self) -> None:
        t = self.tracer
        t.install(gridworld, "observe", "gridworld.observe")
        t.install(ppo, "step", "gridworld.step")
        t.install(ppo, "reset", "gridworld.reset")
        t.install(ecosystem, "generate_level", "gridworld.generate_level")
        t.install(harness, "generate_level", "gridworld.generate_level")
        t.install(ppo, "forward", "policy.forward")
        t.install(ppo, "grad_loss", "policy.grad_loss")
        t.install(policy.Adam, "step", "policy.Adam.step")
        t.install(ppo, "collect_rollout", "ppo.collect_rollout")
        t.install(ppo, "ppo_update", "ppo.ppo_update")
        t.install(ecosystem, "test_agent", "ppo.test_agent", self._on_test)
        t.install(harness, "test_agent", "ppo.test_agent", self._on_test)
        t.install(ecosystem, "find_best_agent", "ecosystem.find_best_agent", self._on_find)
        t.install(ecosystem, "train_until_solved", "ecosystem.train_until_solved", self._on_train)
        t.install(ecosystem, "optimize_pool", "ecosystem.optimize_pool", self._on_optimize)
        t.install(harness, "ecosystem_learn", "ecosystem.ecosystem_learn")
        t.install(harness, "save_pool", "ecosystem.save_pool")
        t.install(harness, "adaptability_index", "harness.adaptability_index", self._on_zeta)
        # Beside the layers above, the harness's own time goes to writing the
        # run directory: metrics.csv and audit.jsonl as they stream, the
        # aggregate, compare.csv and the charts.
        for attr in ("compare_suite", "run_to_dir", "export_aggregate", "write_metric_charts"):
            t.install(harness, attr, "harness.outputs")

    def _on_test(self, params, level):
        def done(reward, duration):
            self.test_steps += episode_steps(reward, level.max_steps)
            self.test_ms[reward > 0.0].append(1000.0 * duration)

        return done

    def _on_find(self, pool, level):
        def done(found, duration):
            self.find_tests += found.tests_run
            self.find_hits += found.solver is not None

        return done

    def _on_train(self, agent, level, cfg, *args, **kwargs):
        def done(result, duration):
            self.train_epochs += result.epochs_used
            self.train_tests += result.tests_run
            self.train_steps += result.steps_used
            self.budget_failures += result.failed

        return done

    def _on_optimize(self, pool, new_agent, audit=None):
        tests, solved = pool.tests_total, len(new_agent.solved)

        def done(_, duration):
            self.optimize_tests += pool.tests_total - tests
            self.absorbed += len(new_agent.solved) - solved

        return done

    def _on_zeta(self, pool, eval_levels, mean_over_pool=False):
        def done(zeta, duration):
            self.zeta_tests += len(eval_levels) * len(pool.agents)
            self.zetas.append(zeta)

        return done

    def metrics(
        self, rounds: int, facts: dict, overhead_s: float, uncovered_s: float, reference
    ) -> dict[str, float]:
        """Per-layer metrics, each per traced round.

        `facts` holds the workload's sums over the traced rounds of
        pool_size, tests_total, save_bytes and outputs_bytes; `reference`
        is the summary of the checks.
        """
        t = self.tracer
        out: dict[str, float] = {}
        for span in SPANS:
            calls, self_s = t.total(span)
            out[f"{span}.calls"] = calls / rounds
            out[f"{span}.s"] = self_s / rounds
        tests = len(self.test_ms[True]) + len(self.test_ms[False])
        find_calls = t.total("ecosystem.find_best_agent")[0]
        out.update(
            {
                "ppo.test_agent.pass.ms_p50": _median_or_zero(self.test_ms[True]),
                "ppo.test_agent.fail.ms_p50": _median_or_zero(self.test_ms[False]),
                "ppo.test_agent.pass_ratio": _ratio(len(self.test_ms[True]), tests),
                "ppo.test_agent.episode_steps": _ratio(self.test_steps, tests),
                "ecosystem.find_best_agent.tests": self.find_tests / rounds,
                "ecosystem.train_until_solved.epochs": self.train_epochs / rounds,
                "ecosystem.train_until_solved.tests": self.train_tests / rounds,
                "ecosystem.optimize_pool.tests": self.optimize_tests / rounds,
                "ecosystem.optimize_pool.absorb_ratio": _ratio(self.absorbed, self.optimize_tests),
                "ecosystem.save_pool.bytes": facts["save_bytes"] / rounds,
                "ecosystem.train_steps": self.train_steps / rounds,
                "ecosystem.tests_total": facts["tests_total"] / rounds,
                "ecosystem.pool_size": facts["pool_size"] / rounds,
                "ecosystem.budget_failures": self.budget_failures / rounds,
                "ecosystem.scan_hit_ratio": _ratio(self.find_hits, find_calls),
                "harness.adaptability_index.tests": self.zeta_tests / rounds,
                "harness.zeta": _ratio(sum(self.zetas), len(self.zetas)),
                "harness.outputs.bytes": facts["outputs_bytes"] / rounds,
                "trace.overhead_s": overhead_s,
                "trace.uncovered_s": uncovered_s / rounds,
                "trace.spans": t.span_count / rounds,
                "reference.ties": reference.ties / reference.rounds,
                "reference.first_revisit_step": _ratio(
                    sum(reference.revisit_steps), len(reference.revisit_steps)
                ),
            }
        )
        return out
