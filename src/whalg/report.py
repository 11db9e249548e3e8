"""Deterministic verification reports shared by all checker suites."""

from __future__ import annotations

import time


class Check:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=None):
        self.name = name
        self.ok = ok
        self.detail = detail  # first counterexample, as a deterministic string

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class Report:
    """Per-check outcomes for one subject under one suite."""

    def __init__(self, subject, suite):
        self.subject = subject
        self.suite = suite
        self.checks = []
        self._t0 = time.monotonic()
        self.wall_time = 0.0

    def add(self, name, ok, detail=None):
        self.checks.append(Check(name, ok, detail))
        self.wall_time = time.monotonic() - self._t0
        return ok

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def __bool__(self):
        return self.ok

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def to_json(self):
        # machine-readable body is timestamp-free so outputs are byte-stable
        return {
            "subject": self.subject,
            "suite": self.suite,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }

    def render(self):
        lines = [f"[{self.suite}] {self.subject}"]
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  {mark} {c.name}" + (f": {c.detail}" if c.detail else ""))
        status = "PASS" if self.ok else "FAIL"
        lines.append(f"  => {status} ({len(self.checks)} checks, {self.wall_time:.2f}s)")
        return "\n".join(lines)
