"""The asynchronous-system substrate (Section 2 of the paper).

This package is an executable rendition of the model of computation used by
Eisler, Hadzilacos and Toueg: asynchronous message-passing processes that take
atomic steps (receive one message, query a failure detector, change state,
send messages), crash failures described by failure patterns, environments as
sets of failure patterns, schedules, runs, admissibility, and the
mergeability machinery of Lemma 2.2.
"""

from repro.kernel.automaton import (
    Automaton,
    AutomatonProcess,
    AutomatonRuntime,
    CoroutineRuntime,
    DeliveredMessage,
    Observation,
    Process,
    ProcessContext,
)
from repro.kernel.environment import Environment
from repro.kernel.failures import FailurePattern
from repro.kernel.messages import (
    BlockingPolicy,
    DeliveryPolicy,
    FairRandomDelivery,
    Message,
    MessageBuffer,
    OldestFirstDelivery,
    PerSenderFifoDelivery,
)
from repro.kernel.runs import (
    PureRun,
    PureSystemSimulator,
    merge_runs,
    mergeable,
    validate_run,
)
from repro.kernel.scheduler import (
    RandomFairScheduler,
    RoundRobinScheduler,
    SchedulingPolicy,
    ScriptedScheduler,
)
from repro.kernel.steps import (
    Schedule,
    Step,
    causally_precedes,
    participants,
)
from repro.kernel.system import RunResult, StepRecord, System

__all__ = [
    "Automaton",
    "AutomatonProcess",
    "AutomatonRuntime",
    "BlockingPolicy",
    "CoroutineRuntime",
    "DeliveredMessage",
    "DeliveryPolicy",
    "Environment",
    "FailurePattern",
    "FairRandomDelivery",
    "Message",
    "MessageBuffer",
    "Observation",
    "OldestFirstDelivery",
    "PerSenderFifoDelivery",
    "Process",
    "ProcessContext",
    "PureRun",
    "PureSystemSimulator",
    "RandomFairScheduler",
    "RoundRobinScheduler",
    "RunResult",
    "Schedule",
    "SchedulingPolicy",
    "ScriptedScheduler",
    "Step",
    "StepRecord",
    "System",
    "causally_precedes",
    "merge_runs",
    "mergeable",
    "participants",
    "validate_run",
]
