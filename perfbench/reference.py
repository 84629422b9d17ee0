"""Reference greedy evaluator, independent of the package's own code path.

It steps its own copy of the FourRooms rules from a level's walls, goal
and start pose, builds the 7x7x3 egocentric view to the README's coding
(channel 0: 0 unseen, 1 empty, 2 wall, 3 goal, scaled by 1/3; channels
1 and 2 zero), and runs its own numpy forward pass over the stored actor
weights.  Nothing here calls `ppo.test_agent`, `gridworld.step`,
`gridworld.observe` or `policy.forward`.

A greedy episode is deterministic and its action depends only on the
agent's (position, direction), so once that pair repeats the episode
can only loop until `max_steps` and pays 0.  The evaluator stops there
and records the step of the first revisit.

Where the two highest action probabilities lie within `TIE_TOL` of each
other, last-bit differences between this forward pass and the package's
could pick different actions, so the episode is marked tied and callers
count it instead of comparing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIE_TOL = 1e-9
REWARD_TOL = 1e-12

_VIEW = 7
# (dx, dy) for N, E, S, W; y grows downward.
_DIRS = ((0, -1), (1, 0), (0, 1), (-1, 0))
# Row r of the view lies 6 - r cells ahead; column c lies c - 3 cells right.
_AHEAD = (_VIEW - 1) - np.arange(_VIEW)[:, None]
_RIGHT = np.arange(_VIEW)[None, :] - _VIEW // 2


def _view_offsets() -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for d, (fx, fy) in enumerate(_DIRS):
        rx, ry = _DIRS[(d + 1) % 4]
        out.append((_AHEAD * fx + _RIGHT * rx, _AHEAD * fy + _RIGHT * ry))
    return out


_OFFSETS = _view_offsets()


@dataclass(frozen=True)
class Episode:
    reward: float
    first_revisit: int | None  # steps taken before (pos, dir) first repeated
    tied: bool


def _padded_codes(level) -> np.ndarray:
    """Object codes of the map with a border of unseen cells as wide as the view."""
    pad = _VIEW - 1
    codes = np.zeros((level.height + 2 * pad, level.width + 2 * pad))
    codes[pad : pad + level.height, pad : pad + level.width] = 1.0
    for x, y in level.walls:
        codes[y + pad, x + pad] = 2.0
    gx, gy = level.goal_pos
    codes[gy + pad, gx + pad] = 3.0
    return codes


def greedy_episode(actor, level) -> Episode:
    """Play the greedy episode of `actor` (a list of (w, b)) on `level`."""
    codes = _padded_codes(level)
    pad = _VIEW - 1
    walls = level.walls
    goal = tuple(level.goal_pos)
    x, y = level.start_pos
    d = int(level.start_dir)
    seen = set()
    tied = False
    first_revisit = None
    obs = np.zeros(_VIEW * _VIEW * 3)
    for t in range(1, level.max_steps + 1):
        if (x, y, d) in seen:
            first_revisit = t - 1
            break
        seen.add((x, y, d))
        ox, oy = _OFFSETS[d]
        obs[0::3] = codes[y + pad + oy, x + pad + ox].ravel() / 3.0
        h = obs
        for w, b in actor[:-1]:
            h = np.tanh(h @ w + b)
        w, b = actor[-1]
        logits = h @ w + b
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        top2 = np.sort(probs)[-2:]
        if top2[1] - top2[0] <= TIE_TOL:
            tied = True
        action = int(np.argmax(probs))
        if action == 0:
            d = (d - 1) % 4
        elif action == 1:
            d = (d + 1) % 4
        else:
            fx, fy = _DIRS[d]
            if (x + fx, y + fy) not in walls:
                x, y = x + fx, y + fy
        if (x, y) == goal:
            return Episode(1.0 - 0.9 * t / level.max_steps, None, tied)
    return Episode(0.0, first_revisit, tied)


def is_reward_value(reward: float, max_steps: int) -> bool:
    """True for 0 and for 1 - 0.9*k/max_steps with integer k in [1, max_steps]."""
    if reward == 0.0:
        return True
    k = round((1.0 - reward) * max_steps / 0.9)
    return 1 <= k <= max_steps and abs(reward - (1.0 - 0.9 * k / max_steps)) <= REWARD_TOL


def same_reward(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REWARD_TOL
