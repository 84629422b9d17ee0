"""Level generation, dynamics, observation encoding, and serialization."""

import json
from collections import deque

import numpy as np
import pytest

from ecopool import gridworld
from ecopool.gridworld import (
    EMPTY,
    GOAL,
    UNSEEN,
    WALL,
    Action,
    Direction,
    EnvState,
    GridConfig,
    generate_level,
    level_to_json,
    observe,
    parse_ascii,
    render_ascii,
    reset,
    step,
)


def _bfs_reachable(level) -> bool:
    seen = {level.start_pos}
    queue = deque([level.start_pos])
    while queue:
        x, y = queue.popleft()
        if (x, y) == level.goal_pos:
            return True
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            cell = (nx, ny)
            if 0 <= nx < level.width and 0 <= ny < level.height:
                if cell not in level.walls and cell not in seen:
                    seen.add(cell)
                    queue.append(cell)
    return False


def _observe_reference(state) -> np.ndarray:
    """Scalar-loop encoding: agent at center of the near edge, facing up."""
    level = state.level
    dx, dy = gridworld.DIR_VECTORS[state.agent_dir]
    rdx, rdy = gridworld.DIR_VECTORS[Direction((state.agent_dir + 1) % 4)]
    obs = np.zeros((7, 7, 3), dtype=np.uint8)
    for r in range(7):
        for c in range(7):
            fwd, lat = 6 - r, c - 3
            wx = state.agent_pos[0] + fwd * dx + lat * rdx
            wy = state.agent_pos[1] + fwd * dy + lat * rdy
            if not (0 <= wx < level.width and 0 <= wy < level.height):
                continue
            if (wx, wy) in level.walls:
                obs[r, c, 0] = WALL
            elif (wx, wy) == level.goal_pos:
                obs[r, c, 0] = GOAL
            else:
                obs[r, c, 0] = EMPTY
    return obs


class TestGenerateLevel:
    def test_same_seed_bitwise_equal(self):
        for seed in (0, 7, 123, 2**63):
            assert generate_level(seed) == generate_level(seed)

    def test_different_seeds_differ(self):
        for i in range(100):
            a = generate_level(2 * i)
            b = generate_level(2 * i + 1)
            assert (a.start_pos, a.goal_pos, a.gaps) != (
                b.start_pos,
                b.goal_pos,
                b.gaps,
            )

    def test_goal_reachable(self):
        for seed in range(200):
            assert _bfs_reachable(generate_level(seed)), f"seed {seed}"

    def test_structure_invariants(self):
        config = GridConfig(width=11, height=9, max_steps=50)
        for seed in range(50):
            level = generate_level(seed, config)
            w, h = level.width, level.height
            assert (w, h, level.max_steps) == (11, 9, 50)
            for x in range(w):
                assert (x, 0) in level.walls and (x, h - 1) in level.walls
            for y in range(h):
                assert (0, y) in level.walls and (w - 1, y) in level.walls
            assert len(level.gaps) == 4
            assert level.gaps == tuple(sorted(level.gaps))
            assert not set(level.gaps) & level.walls
            assert level.start_pos != level.goal_pos
            assert level.start_pos not in level.walls
            assert level.goal_pos not in level.walls
            # One vertical and one horizontal internal line: the gap cells
            # share one x (vertical pair) and one y (horizontal pair).
            xs = [g[0] for g in level.gaps]
            ys = [g[1] for g in level.gaps]
            assert max(xs.count(x) for x in xs) == 2
            assert max(ys.count(y) for y in ys) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_level(0, GridConfig(width=8, height=9))
        with pytest.raises(ValueError):
            generate_level(0, GridConfig(width=9, height=7))
        with pytest.raises(ValueError):
            generate_level(0, GridConfig(max_steps=0))
        with pytest.raises(ValueError):
            generate_level(-1)

    def test_seed_is_any_non_negative_integer(self):
        for seed in (2**64, 2**200):
            assert generate_level(seed) == generate_level(seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            generate_level(-1)


class TestDynamics:
    def test_reset(self):
        level = generate_level(7)
        state, obs = reset(level)
        assert state.agent_pos == level.start_pos
        assert state.agent_dir == level.start_dir
        assert state.steps_used == 0
        assert not state.done
        assert np.array_equal(obs, observe(state))
        again_state, again_obs = reset(level)
        assert again_state == state
        assert np.array_equal(again_obs, obs)

    def test_turns_rotate_in_place(self):
        state, _ = reset(generate_level(3))
        left, _, r, done = step(state, Action.TURN_LEFT)
        assert left.agent_dir == Direction((state.agent_dir - 1) % 4)
        assert left.agent_pos == state.agent_pos
        assert left.steps_used == 1 and r == 0.0 and not done
        right, _, _, _ = step(state, Action.TURN_RIGHT)
        assert right.agent_dir == Direction((state.agent_dir + 1) % 4)
        assert right.agent_pos == state.agent_pos

    def test_forward_blocked_by_wall(self):
        state = parse_ascii(
            "#########\n"
            "#^......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#......G#\n"
            "#########"
        )
        nxt, _, reward, done = step(state, Action.FORWARD)
        assert nxt.agent_pos == state.agent_pos
        assert nxt.steps_used == 1
        assert reward == 0.0 and not done

    def test_reward_on_goal(self):
        # Agent 4 cells west of the goal; 16 turns burn steps in place,
        # then 4 forward moves land on the goal at steps_used = 20.
        text = (
            "#########\n"
            "#>...G..#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#########"
        )
        state = parse_ascii(text, max_steps=100)
        for _ in range(16):
            state, _, reward, done = step(state, Action.TURN_LEFT)
            assert reward == 0.0 and not done
        for _ in range(3):
            state, _, reward, done = step(state, Action.FORWARD)
            assert reward == 0.0 and not done
        state, _, reward, done = step(state, Action.FORWARD)
        assert done and state.done
        assert state.steps_used == 20
        assert reward == 1.0 - 0.9 * (20 / 100)
        assert abs(reward - 0.82) < 1e-12

    def test_reward_goal_on_last_step(self):
        text = (
            "#########\n"
            "#>...G..#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#########"
        )
        state = parse_ascii(text, max_steps=20)
        for _ in range(16):
            state, _, _, _ = step(state, Action.TURN_LEFT)
        for _ in range(4):
            state, _, reward, done = step(state, Action.FORWARD)
        assert done and state.steps_used == 20
        assert reward == 1.0 - 0.9 * (20 / 20)
        assert abs(reward - 0.1) < 1e-12

    def test_timeout_reward_zero(self):
        state, _ = reset(generate_level(11, GridConfig(max_steps=5)))
        for i in range(5):
            state, _, reward, done = step(state, Action.TURN_LEFT)
        assert done and reward == 0.0 and state.steps_used == 5

    def test_step_done_state_raises(self):
        state, _ = reset(generate_level(11, GridConfig(max_steps=1)))
        state, _, _, done = step(state, Action.TURN_LEFT)
        assert done
        with pytest.raises(ValueError):
            step(state, Action.FORWARD)

    def test_step_unknown_action_raises(self):
        state, _ = reset(generate_level(11))
        with pytest.raises(ValueError, match="unknown action 3"):
            step(state, 3)

    def test_random_rollouts_respect_contract(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            level = generate_level(seed, GridConfig(max_steps=40))
            state, obs = reset(level)
            total_steps = 0
            while not state.done:
                action = Action(int(rng.integers(3)))
                state, obs, reward, done = step(state, action)
                total_steps += 1
                assert 0.0 <= reward <= 1.0
                assert reward == 0.0 or done
                assert state.agent_pos not in level.walls
            assert total_steps <= level.max_steps


class TestObserve:
    def test_matches_reference_on_random_walks(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            state, obs = reset(generate_level(seed))
            assert np.array_equal(obs, _observe_reference(state))
            for _ in range(15):
                if state.done:
                    break
                state, obs, _, _ = step(state, Action(int(rng.integers(3))))
                assert obs.shape == (7, 7, 3)
                assert obs.dtype == np.uint8
                assert np.all(obs[..., 1:] == 0)
                assert np.array_equal(obs, _observe_reference(state))

    def test_boundary_ahead(self):
        state = parse_ascii(
            "#########\n"
            "#.......#\n"
            "#...^...#\n"
            "#.......#\n"
            "#.......#\n"
            "#...G...#\n"
            "#.......#\n"
            "#.......#\n"
            "#########"
        )
        obs = observe(state)
        # Two full rows ahead lie past the map edge, the third is boundary.
        assert np.all(obs[:4, :, 0] == UNSEEN)
        assert np.all(obs[4, :, 0] == WALL)
        assert np.all(obs[5, :, 0] == EMPTY)
        assert np.all(obs[6, :, 0] == EMPTY)  # own cell shows its content

    def test_goal_two_cells_ahead(self):
        state = parse_ascii(
            "#########\n"
            "#.......#\n"
            "#.......#\n"
            "#...G...#\n"
            "#.......#\n"
            "#...^...#\n"
            "#.......#\n"
            "#.......#\n"
            "#########"
        )
        obs = observe(state)
        assert obs[4, 3, 0] == GOAL
        assert int(np.count_nonzero(obs[..., 0] == GOAL)) == 1

    def test_egocentric_rotation(self):
        # Facing east: a wall one cell south of the agent sits one cell to
        # its right, view row 6 column 4.
        state = parse_ascii(
            "#########\n"
            "#.......#\n"
            "#.>.....#\n"
            "#.#.....#\n"
            "#.......#\n"
            "#.......#\n"
            "#.......#\n"
            "#......G#\n"
            "#########"
        )
        obs = observe(state)
        assert obs[6, 4, 0] == WALL
        assert obs[6, 3, 0] == EMPTY

    def test_purity(self):
        state, _ = reset(generate_level(5))
        assert np.array_equal(observe(state), observe(state))


def _all_states(level):
    for y in range(level.height):
        for x in range(level.width):
            if (x, y) not in level.walls:
                for d in Direction:
                    yield EnvState(level, (x, y), d, steps_used=0, done=False)


# Non-square maps, 15 wide x 11 high and 11 x 15: a view that swapped x
# and y anywhere would still match on a square map.
WIDE_MAP = (
    "###############\n"
    "#>....#.......#\n"
    "#.....#...#...#\n"
    "#.....#.......#\n"
    "#.............#\n"
    "###.#####.#####\n"
    "#......#......#\n"
    "#..G...#......#\n"
    "#......#...#..#\n"
    "#.............#\n"
    "###############"
)
TALL_MAP = (
    "###########\n"
    "#....#....#\n"
    "#.v..#....#\n"
    "#.........#\n"
    "#....#....#\n"
    "#....#..#.#\n"
    "###.###.###\n"
    "#.........#\n"
    "#...#.....#\n"
    "#.........#\n"
    "####.######\n"
    "#.........#\n"
    "#......G..#\n"
    "#.#.......#\n"
    "###########"
)


class TestCachedViews:
    @pytest.mark.parametrize("size", [9, 19])
    def test_every_state_matches_reference(self, size):
        grid = GridConfig(width=size, height=size, max_steps=100)
        for seed in range(6):
            for state in _all_states(generate_level(seed, grid)):
                # Twice: the first call builds the view, the second reads it.
                assert np.array_equal(observe(state), _observe_reference(state))
                assert np.array_equal(observe(state), _observe_reference(state))

    @pytest.mark.parametrize(
        "text, shape", [(WIDE_MAP, (15, 11)), (TALL_MAP, (11, 15))], ids=["15x11", "11x15"]
    )
    def test_non_square_map_matches_reference(self, text, shape):
        level = parse_ascii(text).level
        assert (level.width, level.height) == shape
        for state in _all_states(level):
            assert np.array_equal(observe(state), _observe_reference(state))

    def test_views_are_read_only(self):
        state, obs = reset(generate_level(2))
        assert not obs.flags.writeable
        with pytest.raises(ValueError):
            obs[6, 3, 0] = GOAL
        assert np.array_equal(observe(state), _observe_reference(state))

    def test_regenerated_level_gets_same_views(self):
        grid = GridConfig(width=19, height=19, max_steps=300)
        first = list(_all_states(generate_level(4, grid)))
        views = [observe(state) for state in first]
        again = generate_level(4, grid)
        assert again is not first[0].level and again == first[0].level
        for state, view in zip(_all_states(again), views):
            assert observe(state) is view


def _rebuilt(data):
    """The generated level `data` was written from, rebuilt from its seed
    and grid: level JSON is output only."""
    return generate_level(data["seed"], GridConfig(data["width"], data["height"], data["max_steps"]))


class TestSerialization:
    def test_ascii_roundtrip(self):
        for seed in range(25):
            level = generate_level(seed)
            state, _ = reset(level)
            text = render_ascii(state)
            assert len(text.splitlines()) == level.height
            assert all(len(line) == level.width for line in text.splitlines())
            parsed = parse_ascii(text, seed=seed, max_steps=level.max_steps)
            assert parsed.level.walls == level.walls
            assert parsed.level.goal_pos == level.goal_pos
            assert parsed.agent_pos == state.agent_pos
            assert parsed.agent_dir == state.agent_dir
            assert render_ascii(parsed) == text

    def test_ascii_legend(self):
        walked, _ = reset(generate_level(5, GridConfig(width=9, height=21)))
        left, right, forward = Action.TURN_LEFT, Action.TURN_RIGHT, Action.FORWARD
        for action in (forward, left, forward, forward, right, forward):
            walked, *_ = step(walked, action)
        assert walked.agent_pos != walked.level.start_pos and not walked.done
        for state in (reset(generate_level(9))[0], walked):
            text = render_ascii(state)
            lines = text.splitlines()
            assert len(lines) == state.level.height
            assert all(len(line) == state.level.width for line in lines)
            assert text.count("#") == len(state.level.walls)
            assert text.count("G") == 1
            glyphs = [ch for ch in text if ch in "^>v<"]
            assert glyphs == [gridworld.AGENT_GLYPHS[state.agent_dir]]
            x, y = state.agent_pos
            assert lines[y][x] == glyphs[0]
        # The agent's glyph replaces the goal's when it stands there.
        on_goal, *_ = step(parse_ascii("#####\n#>G.#\n#####"), Action.FORWARD)
        assert render_ascii(on_goal) == "#####\n#.>.#\n#####"

    def test_json_roundtrip(self):
        for seed in range(50):
            level = generate_level(seed)
            data = level_to_json(level)
            assert data["walls"] == sorted(data["walls"])
            assert data["dir"] in ("N", "E", "S", "W")
            assert data["gaps"] == [list(g) for g in level.gaps] and len(data["gaps"]) == 4
            assert _rebuilt(data) == level

    def test_json_roundtrip_parsed_map(self):
        text = "#######\n#>.#..#\n#..#.G#\n#.....#\n#######"
        level = parse_ascii(text, seed=4, max_steps=30).level
        assert level.gaps == ()
        data = json.loads(json.dumps(level_to_json(level)))
        assert data["gaps"] == [] and data["walls"] == sorted(data["walls"])
        assert (data["seed"], data["max_steps"], data["start"]) == (4, 30, [1, 1])
        rebuilt = parse_ascii(text, seed=data["seed"], max_steps=data["max_steps"]).level
        assert rebuilt == level and level_to_json(rebuilt) == data

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", "empty ascii map"),
            ("\n\n", "empty ascii map"),
            ("#####\n#>.G#\n####\n", "ragged ascii map"),
            ("#####\n#>xG#\n#####", r"unknown glyph 'x' at \(2,1\)"),
            ("#####\n#..G#\n#####", "found 0 and 1"),
            ("#####\n#>..#\n#####", "found 1 and 0"),
            ("#####\n#><G#\n#####", "found 2 and 1"),
            ("#####\n#>GG#\n#####", "found 1 and 2"),
            # Unclosed, an agent walks off the map: TURN_LEFT, FORWARD,
            # FORWARD from here left `observe` nothing to slice.
            (".....\n.>..G\n.....", r"border is open at \(0, 0\)"),
            ("#####\n#>.G.\n#####", r"border is open at \(4, 1\)"),
            ("#####\n>..G#\n#####", r"border is open at \(0, 1\)"),
        ],
        ids=[
            "empty", "blank-lines", "ragged", "unknown-glyph", "no-agent", "no-goal",
            "two-agents", "two-goals", "no-border", "open-east", "agent-on-border",
        ],
    )
    def test_parse_ascii_refuses(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            parse_ascii(text)

    # At 0 reaching the goal divided by zero; below 0 it paid over 1 and
    # an episode never ran out of steps.
    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_parse_ascii_refuses_max_steps_below_one(self, max_steps):
        with pytest.raises(ValueError, match=f"max_steps must be >= 1, got {max_steps}"):
            parse_ascii("#####\n#>.G#\n#####", max_steps=max_steps)

    def test_json_roundtrip_other_dims(self):
        config = GridConfig(width=13, height=11, max_steps=64)
        for seed in range(20):
            level = generate_level(seed, config)
            data = level_to_json(level)
            assert (data["width"], data["height"], data["max_steps"]) == (13, 11, 64)
            assert _rebuilt(data) == level
