"""
Growing an eco-system over a stream of levels
=============================================

Each new level is first offered to the existing pool (cheap greedy tests);
only if nobody solves it does a new agent get initialized and trained.
Solved environments are credited to agents, and agents whose entire
solved-set is covered by another are pruned.
"""

from ecopool import PpoConfig, Strategy, ecosystem_learn, generate_level, make_pool

cfg = PpoConfig(rollout_steps=256, minibatch_size=64, update_epochs=6,
                entropy_coef=0.02)

pool = make_pool(Strategy.BASIC, seed=0)
audit = []

for env_seed in range(5):
    level = generate_level(env_seed)
    pool, outcome = ecosystem_learn(pool, level, cfg, budget=200)
    audit += outcome.events
    if outcome.created_new:
        how = f"new agent {outcome.solved_by} trained for {outcome.epochs_used} epochs"
    elif outcome.failed:
        how = "FAILED within budget"
    else:
        how = f"agent {outcome.solved_by} already solved it (scan hit)"
    print(f"env {env_seed}: {how}  "
          f"(+{outcome.training_steps_used} steps, {outcome.tests_run} tests)")

print()
print(f"pool after 5 envs: {len(pool.agents)} agents, "
      f"{pool.tests_total} greedy tests issued")
for agent in pool.agents:
    print(f"  agent {agent.id}: solved {sorted(agent.solved)} "
          f"(born on env {agent.birth_env})")

# Each outcome's events record its credit with the reward that earned it,
# then any absorb and remove events; together they are the audit log.
print()
print("audit trail:")
for event in audit:
    print(" ", event)
