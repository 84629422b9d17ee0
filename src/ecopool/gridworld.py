"""Seeded procedural FourRooms gridworld.

A level is a rectangular grid whose outer boundary is walled and whose
interior is split into four rooms by one vertical and one horizontal wall
line.  Each of the four internal wall segments is pierced by exactly one
gap cell, so every room is reachable from every other.  Start pose and
goal cell are drawn uniformly over the free cells.

Everything here is a pure function of its arguments: the same seed and
config always produce bitwise-identical levels, and `step` never mutates
its inputs.  Each level field is drawn from its own RNG stream derived
from the level seed, so the generated layout does not depend on draw
order.

Coordinates are (x, y) with x growing right and y growing down; direction
N points toward smaller y.

Level JSON (`level_to_json`) is output only: a level is rebuilt from its
seed and grid by `generate_level`, or from its map by `parse_ascii`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

# Observation object codes (channel 0).  Channels 1 and 2 carry color and
# cell-state codes, both constant 0 in FourRooms.
UNSEEN = 0
EMPTY = 1
WALL = 2
GOAL = 3
_CODE_GLYPHS = {EMPTY: ".", WALL: "#", GOAL: "G"}  # render_ascii draws a level's codes

VIEW_SIZE = 7
OBS_SHAPE = (VIEW_SIZE, VIEW_SIZE, 3)

# RNG stream labels, one per generated level field.
_S_VWALL, _S_HWALL, _S_GAPS, _S_START, _S_DIR, _S_GOAL = range(6)


class Direction(IntEnum):
    N = 0
    E = 1
    S = 2
    W = 3


# (dx, dy) per direction; y grows downward so N is -y.
DIR_VECTORS = {
    Direction.N: (0, -1),
    Direction.E: (1, 0),
    Direction.S: (0, 1),
    Direction.W: (-1, 0),
}

AGENT_GLYPHS = {
    Direction.N: "^",
    Direction.E: ">",
    Direction.S: "v",
    Direction.W: "<",
}
_GLYPH_TO_DIR = {g: d for d, g in AGENT_GLYPHS.items()}


class Action(IntEnum):
    TURN_LEFT = 0
    TURN_RIGHT = 1
    FORWARD = 2


@dataclass(frozen=True)
class GridConfig:
    """Level dimensions and episode budget; ValueError unless the sides
    are odd and at least 9 and the budget is at least one step."""

    width: int = 9
    height: int = 9
    max_steps: int = 100

    def __post_init__(self):
        w, h = self.width, self.height
        if w < 9 or h < 9 or w % 2 == 0 or h % 2 == 0:
            raise ValueError(f"width and height must be odd and >= 9, got {w}x{h}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class Level:
    """Immutable FourRooms map.

    `walls` holds every wall cell (boundary and internal lines, gap cells
    carved out); `gaps` lists the four door cells sorted lexicographically.
    """

    seed: int
    width: int
    height: int
    walls: frozenset[tuple[int, int]]
    gaps: tuple[tuple[int, int], ...]
    start_pos: tuple[int, int]
    start_dir: Direction
    goal_pos: tuple[int, int]
    max_steps: int


@dataclass(frozen=True)
class EnvState:
    level: Level
    agent_pos: tuple[int, int]
    agent_dir: Direction
    steps_used: int
    done: bool


def _stream(seed: int, label: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(label,))
    return np.random.Generator(np.random.PCG64(ss))


def _grid_lines(w: int, h: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> set[tuple[int, int]]:
    """Every cell of the columns `xs` and the rows `ys` of a w x h grid."""
    return {(x, y) for x in range(w) for y in ys} | {(x, y) for x in xs for y in range(h)}


def generate_level(seed: int, config: GridConfig = GridConfig()) -> Level:
    """Build the FourRooms level for `seed`.

    Draw order (one independent RNG stream each): vertical wall x,
    horizontal wall y, the four gaps (top, bottom, left, right segment),
    start cell, start direction, goal cell.  The walls are the border
    and the two wall lines, less the four gaps.  The goal is redrawn
    from its stream until it differs from the start cell.

    `config` was checked when it was built.  Raises ValueError for a
    negative seed.
    """
    w, h = config.width, config.height
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    # Internal wall lines, kept off the boundary so all four rooms are
    # non-empty.
    vx = int(_stream(seed, _S_VWALL).integers(2, w - 2))
    hy = int(_stream(seed, _S_HWALL).integers(2, h - 2))

    # The four wall segments, excluding the crossing cell and boundary
    # junctions (the corners where wall lines meet).
    segments = [
        [(vx, y) for y in range(1, hy)],           # vertical, above crossing
        [(vx, y) for y in range(hy + 1, h - 1)],   # vertical, below crossing
        [(x, hy) for x in range(1, vx)],           # horizontal, left
        [(x, hy) for x in range(vx + 1, w - 1)],   # horizontal, right
    ]
    gap_rng = _stream(seed, _S_GAPS)
    gaps = [seg[int(gap_rng.integers(len(seg)))] for seg in segments]

    walls = frozenset(_grid_lines(w, h, (0, vx, w - 1), (0, hy, h - 1)).difference(gaps))

    free = [
        (x, y)
        for y in range(1, h - 1)
        for x in range(1, w - 1)
        if (x, y) not in walls
    ]
    start = free[int(_stream(seed, _S_START).integers(len(free)))]
    start_dir = Direction(int(_stream(seed, _S_DIR).integers(4)))

    goal_rng = _stream(seed, _S_GOAL)
    goal = start
    while goal == start:
        goal = free[int(goal_rng.integers(len(free)))]

    return Level(
        seed=seed,
        width=w,
        height=h,
        walls=walls,
        gaps=tuple(sorted(gaps)),
        start_pos=start,
        start_dir=start_dir,
        goal_pos=goal,
        max_steps=config.max_steps,
    )


def reset(level: Level) -> tuple[EnvState, np.ndarray]:
    state = EnvState(
        level=level,
        agent_pos=level.start_pos,
        agent_dir=level.start_dir,
        steps_used=0,
        done=False,
    )
    return state, observe(state)


def step(state: EnvState, action: Action) -> tuple[EnvState, np.ndarray, float, bool]:
    """Apply one action; returns (state, observation, reward, done).

    Reward is 1 - 0.9 * (steps_used / max_steps) on the step that reaches
    the goal, 0 otherwise; running out of steps terminates with reward 0.
    """
    if state.done:
        raise ValueError("cannot step a finished episode")

    level = state.level
    pos, direction = state.agent_pos, state.agent_dir
    if action == Action.TURN_LEFT:
        direction = Direction((direction - 1) % 4)
    elif action == Action.TURN_RIGHT:
        direction = Direction((direction + 1) % 4)
    elif action == Action.FORWARD:
        dx, dy = DIR_VECTORS[direction]
        target = (pos[0] + dx, pos[1] + dy)
        if target not in level.walls:
            pos = target
    else:
        raise ValueError(f"unknown action {action!r}")

    steps = state.steps_used + 1
    if pos == level.goal_pos:
        done = True
        reward = 1.0 - 0.9 * (steps / level.max_steps)
    elif steps == level.max_steps:
        done = True
        reward = 0.0
    else:
        done = False
        reward = 0.0

    new_state = EnvState(
        level=level, agent_pos=pos, agent_dir=direction, steps_used=steps, done=done
    )
    return new_state, observe(new_state), reward, done


_PAD = VIEW_SIZE - 1  # the farthest a view reaches from the agent's cell
_HALF = VIEW_SIZE // 2


@lru_cache(maxsize=256)
def _padded_codes(level: Level) -> np.ndarray:
    """Object codes of the static map inside a border of unseen cells
    `_PAD` wide; the cell (x, y) is at [y + _PAD, x + _PAD]."""
    grid = np.full((level.height + 2 * _PAD, level.width + 2 * _PAD), UNSEEN, dtype=np.uint8)
    grid[_PAD:-_PAD, _PAD:-_PAD] = EMPTY
    for x, y in level.walls:
        grid[y + _PAD, x + _PAD] = WALL
    gx, gy = level.goal_pos
    grid[gy + _PAD, gx + _PAD] = GOAL
    return grid


# Per direction: the (row, column) at which the view's window starts in
# the padded grid, relative to the agent's (y, x), and the turn that
# puts the window's far edge first and the agent's right last.
_WINDOWS = {
    Direction.N: (0, _HALF, lambda w: w),
    Direction.E: (_HALF, _PAD, lambda w: w.T[::-1]),
    Direction.S: (_PAD, _HALF, lambda w: w[::-1, ::-1]),
    Direction.W: (_HALF, 0, lambda w: w.T[:, ::-1]),
}


def observe(state: EnvState) -> np.ndarray:
    """Egocentric 7x7x3 view of the cells ahead of the agent.

    The agent sits at the center of the view's near edge, facing the far
    edge.  Cells outside the map are coded unseen; walls do not occlude
    (cells behind them are still reported).  The agent's own cell shows
    its underlying content.  A view depends only on the static level and
    the agent's pose, so each is built once and returned read-only.
    """
    return _view(state.level, state.agent_pos, state.agent_dir)


# About two 19x19 levels of views; callers use one level at a time.
@lru_cache(maxsize=2048)
def _view(level: Level, pos: tuple[int, int], direction: Direction) -> np.ndarray:
    x, y = pos
    row, col, turn = _WINDOWS[direction]
    window = _padded_codes(level)[y + row : y + row + VIEW_SIZE, x + col : x + col + VIEW_SIZE]
    obs = np.zeros(OBS_SHAPE, dtype=np.uint8)
    obs[..., 0] = turn(window)
    obs.flags.writeable = False
    return obs


def render_ascii(state: EnvState) -> str:
    """Map as text: '#' wall, '.' empty, 'G' goal, '^>v<' agent by direction."""
    codes = _padded_codes(state.level)[_PAD:-_PAD, _PAD:-_PAD].tolist()
    rows = [[_CODE_GLYPHS[code] for code in row] for row in codes]
    x, y = state.agent_pos
    rows[y][x] = AGENT_GLYPHS[state.agent_dir]
    return "\n".join(map("".join, rows))


def parse_ascii(text: str, *, seed: int = 0, max_steps: int = 100) -> EnvState:
    """Inverse of `render_ascii`, for building hand-crafted scenarios.

    The agent glyph becomes the level's start pose.  Gap cells cannot be
    recovered from glyphs alone, so the parsed level has an empty `gaps`
    tuple; four-rooms structure is not required of the input, but a wall
    border is, so that no step leaves the map, and `max_steps` obeys
    `GridConfig`'s rule.  ValueError names the first problem found.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty ascii map")
    height = len(lines)
    width = len(lines[0])
    if any(len(ln) != width for ln in lines):
        raise ValueError("ragged ascii map")

    walls, agents, goals = set(), [], []
    for y, line in enumerate(lines):
        for x, ch in enumerate(line):
            if ch == "#":
                walls.add((x, y))
            elif ch == "G":
                goals.append((x, y))
            elif ch in _GLYPH_TO_DIR:
                agents.append(((x, y), _GLYPH_TO_DIR[ch]))
            elif ch != ".":
                raise ValueError(f"unknown glyph {ch!r} at ({x},{y})")
    if len(agents) != 1 or len(goals) != 1:
        raise ValueError(f"map needs one agent and one goal, found {len(agents)} and {len(goals)}")
    holes = _grid_lines(width, height, (0, width - 1), (0, height - 1)) - walls
    if holes:
        raise ValueError(f"map border is open at {min(holes)}")
    ((agent, direction),), (goal,) = agents, goals

    level = Level(
        seed=seed,
        width=width,
        height=height,
        walls=frozenset(walls),
        gaps=(),
        start_pos=agent,
        start_dir=direction,
        goal_pos=goal,
        max_steps=max_steps,
    )
    return EnvState(
        level=level, agent_pos=agent, agent_dir=direction, steps_used=0, done=False
    )


def level_to_json(level: Level) -> dict:
    """Canonical JSON form, output only; walls sorted lexicographically."""
    return {
        "seed": level.seed,
        "width": level.width,
        "height": level.height,
        "max_steps": level.max_steps,
        "walls": [[x, y] for x, y in sorted(level.walls)],
        "gaps": [list(g) for g in level.gaps],
        "start": list(level.start_pos),
        "dir": level.start_dir.name,
        "goal": list(level.goal_pos),
    }
