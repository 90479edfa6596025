"""The oracle sweep's parent loop (``tools/check_oracles.py::sweep``),
driven by fake children: a child that dies fails the query it was
running, the tail of its standard error is echoed, and a new child goes
on after it. No Ray, no query runs. A real child (``Child``) is waited
for until the processes it left behind have gone too."""

import importlib.util
import os
import sys
import tempfile
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_oracles", os.path.join(ROOT, "tools", "check_oracles.py"))
check_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_oracles)


class FakeChild:
    """Prints what ``check_oracles.child`` prints for ``names``, and a
    line of standard error per query; a query whose outcome is an int
    kills the child with that exit code."""

    def __init__(self, names, outcomes, stderr):
        self.lines, self.code = [], 0
        failures = 0
        for name in names:
            self.lines.append(f"RUN {name}\n")
            stderr.write(f"log {name}\n")
            outcome = outcomes.get(name, "ok")
            if isinstance(outcome, int):
                stderr.write("".join(f"trace {i}\n" for i in range(25)))
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

    def start(rest, stderr):
        started.append(list(rest))
        return FakeChild(rest, outcomes, stderr)

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
    # e's FAIL line, then the 20 lines of its stderr tail end the output
    assert printed[-21:-19] == ["FAIL  e: sweep process died (exit code 3)",
                                "      stderr: trace 5"]
    assert printed.count("ok   d: mine=(1 rows)") == 1


def test_a_dead_child_shows_the_tail_of_its_stderr(capsys):
    failures, started, printed = _sweep(["a", "b", "c"], {"b": -6})
    died = printed.index("FAIL  b: sweep process died (signal SIGABRT)")
    # the last 20 of its 27 lines: its log lines and the first 7 trace lines are cut
    assert printed[died + 1:died + 21] == [f"      stderr: trace {i}" for i in range(5, 25)]
    assert printed[died + 21:] == ["ok   c: mine=(1 rows)"]
    # a child that finishes passes its standard error through
    assert capsys.readouterr().err == "log c\n"


def test_a_dead_child_names_its_ray_session():
    """A child names its Ray session directory on standard error; when it
    dies the sweep echoes it, where its raylet and worker logs are."""
    class Named(FakeChild):
        def __init__(self, names, outcomes, stderr):
            stderr.write(check_oracles.SESSION + "/tmp/ray/session_2026\n")
            super().__init__(names, outcomes, stderr)

    printed = []
    failures = check_oracles.sweep(
        ["a", "b", "c"], lambda rest, stderr: Named(rest, {"b": -6}, stderr), printed.append)
    died = printed.index("FAIL  b: sweep process died (signal SIGABRT)")
    assert failures == 1
    assert printed[died + 1] == "      session: /tmp/ray/session_2026"
    assert printed[died + 2:died + 22] == [f"      stderr: trace {i}" for i in range(5, 25)]
    assert not any(p.startswith("      session") for p in printed[died + 22:])


def test_a_child_dead_before_its_first_query_stops_the_sweep():
    class Dead:
        stdout = iter(["a Ray startup error\n"])

        def wait(self):
            return -9

    def start(rest, stderr):
        started.append(rest)
        stderr.write("raylet failed to start\n")
        return Dead()

    started = []
    printed = []
    failures = check_oracles.sweep(["a", "b"], start, printed.append)
    assert failures == 1 and len(started) == 1
    assert printed[-2:] == ["FAIL  sweep: process died before its first query (signal SIGKILL)",
                            "      stderr: raylet failed to start"]


def test_only_result_lines_are_echoed(capsys):
    raylet = "(raylet) WARNING: 16 PYTHON worker processes have been started"

    class Chatty(FakeChild):
        def __init__(self, names, outcomes, stderr):
            super().__init__(names, outcomes, stderr)
            self.lines.insert(2, raylet + "\n")

    printed = []
    failures = check_oracles.sweep(["a", "b"], lambda rest, err: Chatty(rest, {"b": "fail"}, err),
                                   printed.append)
    assert failures == 1
    assert printed == ["ok   a: mine=(1 rows)", "FAIL  b: mine=(1 rows) oracle=(2 rows)",
                       "      only-mine(1): [('x',)]"]
    assert capsys.readouterr().err == raylet + "\nlog a\nlog b\n"


def _leaves_behind(seconds):
    """A child that starts a grandchild sleeping ``seconds`` in its own
    process group, prints its pid and exits at once."""
    return [sys.executable, "-c",
            "import subprocess, sys; p = subprocess.Popen([sys.executable, '-c', "
            f"'import time; time.sleep({seconds})'], stdout=subprocess.DEVNULL); "
            "print(p.pid, flush=True)"]


@pytest.mark.parametrize("sleeps,bound,killed", [(60, 1.0, True), (0.5, 30.0, False)])
def test_a_child_is_waited_for_with_what_it_left_behind(sleeps, bound, killed):
    with tempfile.TemporaryFile("w+") as err:
        child = check_oracles.Child(_leaves_behind(sleeps), err, bound=bound)
        grandchild = int(next(iter(child.stdout)))
        assert os.getpgid(grandchild) == child.proc.pid != os.getpgid(0)
        started = time.monotonic()
        assert child.wait() == 0
        waited = time.monotonic() - started
    assert child.killed is killed
    with pytest.raises(ProcessLookupError):
        os.killpg(child.proc.pid, 0)
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)
    assert waited >= (bound if killed else 0.2) and waited < 20


def test_a_child_left_running_is_killed_with_its_group():
    """A sweep that stops early (Ctrl-C reaches only the sweep) kills the
    group of the child it was running; a group already seen empty is not
    signalled again."""
    with tempfile.TemporaryFile("w+") as err:
        child = check_oracles.Child(_leaves_behind(60), err)
        grandchild = int(next(iter(child.stdout)))
        child.kill()
        child.proc.wait()
        assert check_oracles._group_gone(child.proc.pid, 10.0)
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)
    with tempfile.TemporaryFile("w+") as err:
        done = check_oracles.Child([sys.executable, "-c", "pass"], err)
        assert done.wait() == 0 and done.gone
        done.kill()
