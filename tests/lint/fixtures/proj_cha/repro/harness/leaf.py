"""Lint fixture: an automaton subclass only class-hierarchy analysis sees.

``LoggingLeaf`` extends ``MiddleMachine`` from another module; nothing in
this file names ``Automaton``, so linted alone the class is not an
automaton at all.
"""

from repro.harness.machines import MiddleMachine


class LoggingLeaf(MiddleMachine):
    name = "logging-leaf"

    def transition(self, state, pid, msg, d):
        print("step", pid)
        return state
