"""Spans around the package's public functions, installed from outside.

Each wrapper replaces a function in the namespace its callers look it up
in (for example `ecopool.ppo.forward`, which `collect_rollout` and
`test_agent` call) and restores it on `uninstall`.  Spans are kept in
memory as flat arrays and written out once, at the end of a run.  A
span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.root_s = 0.0  # summed duration of spans opened with no span open
        self.origin = perf_counter()
        self._span_name = array("H")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span index, time of enclosed spans]
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def install(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace `owner.attr` by a spanned wrapper named `name`.

        `hook(*args, **kwargs)`, if given, runs before the call and returns
        a function that receives the result and the call's duration, or None.
        """
        original = owner.__dict__[attr]
        sid = self._name_id(name)
        stack = self._stack
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        self_s, calls = self.self_s, self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            done = hook(*args, **kwargs) if hook is not None else None
            index = len(starts)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                starts[index] = t0
                ends[index] = t1
                self_s[sid] += duration - frame[1]
                calls[sid] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
            if done is not None:
                done(result, duration)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; (0, 0.0) if never installed."""
        sid = self._ids.get(name)
        return (0, 0.0) if sid is None else (self.calls[sid], self.self_s[sid])

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def write(self, path) -> None:
        """One CSV line per span: name, start and end (s since the tracer began), parent."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self._span_start)):
                fh.write(
                    f"{i},{self.names[self._span_name[i]]},"
                    f"{self._span_start[i] - self.origin:.9f},"
                    f"{self._span_end[i] - self.origin:.9f},{self._span_parent[i]}\n"
                )
