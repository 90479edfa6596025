"""The oracle sweep's parent loop (``tools/check_oracles.py::sweep``),
driven by fake children: a child that dies fails the query it was
running, and a new child goes on after it. No Ray, no query runs."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_oracles", os.path.join(ROOT, "tools", "check_oracles.py"))
check_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_oracles)


class FakeChild:
    """Prints what ``check_oracles.child`` prints for ``names``; a query
    whose outcome is an int kills the child with that exit code."""

    def __init__(self, names, outcomes):
        self.lines, self.code = [], 0
        failures = 0
        for name in names:
            self.lines.append(f"RUN {name}\n")
            outcome = outcomes.get(name, "ok")
            if isinstance(outcome, int):
                self.code = outcome
                return
            if outcome == "fail":
                failures += 1
                self.lines.append(f"FAIL  {name}: mine=(1 rows) oracle=(2 rows)\n")
                self.lines.append("      only-mine(1): [('x',)]\n")
            else:
                self.lines.append(f"ok   {name}: mine=(1 rows)\n")
        self.lines.append(f"failures: {failures}\n")
        self.code = 1 if failures else 0

    @property
    def stdout(self):
        return iter(self.lines)

    def wait(self):
        return self.code


def _sweep(names, outcomes):
    started, printed = [], []

    def start(rest):
        started.append(list(rest))
        return FakeChild(rest, outcomes)

    failures = check_oracles.sweep(names, start, printed.append)
    return failures, started, printed


def test_a_clean_sweep_is_one_child():
    failures, started, printed = _sweep(["a", "b"], {})
    assert failures == 0 and started == [["a", "b"]]
    assert printed == ["ok   a: mine=(1 rows)", "ok   b: mine=(1 rows)"]


def test_a_dead_child_fails_its_query_and_the_sweep_goes_on():
    failures, started, printed = _sweep(
        ["a", "b", "c", "d", "e"], {"b": -6, "c": "fail", "e": 3})
    # b and e are never retried; c is a plain failure
    assert started == [["a", "b", "c", "d", "e"], ["c", "d", "e"]]
    assert failures == 3
    assert "FAIL  b: sweep process died (signal SIGABRT)" in printed
    assert printed[-1] == "FAIL  e: sweep process died (exit code 3)"
    assert printed.count("ok   d: mine=(1 rows)") == 1


def test_a_child_dead_before_its_first_query_stops_the_sweep():
    class Dead:
        stdout = iter(["a Ray startup error\n"])

        def wait(self):
            return -9

    started = []
    printed = []
    failures = check_oracles.sweep(["a", "b"], lambda rest: started.append(rest) or Dead(),
                                   printed.append)
    assert failures == 1 and len(started) == 1
    assert printed[-1] == "FAIL  sweep: process died before its first query (signal SIGKILL)"
