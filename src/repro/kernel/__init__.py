"""The asynchronous-system substrate (Section 2 of the paper).

This package is an executable rendition of the model of computation used by
Eisler, Hadzilacos and Toueg: asynchronous message-passing processes that take
atomic steps (receive one message, query a failure detector, change state,
send messages), crash failures described by failure patterns, environments as
sets of failure patterns, schedules, runs, admissibility, and the
mergeability machinery of Lemma 2.2.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernel.automaton": (
        "Automaton AutomatonProcess AutomatonRuntime CoroutineRuntime "
        "DeliveredMessage Observation Process ProcessContext"
    ),
    "repro.kernel.environment": "Environment",
    "repro.kernel.failures": "FailurePattern",
    "repro.kernel.messages": (
        "BlockingPolicy DeliveryPolicy FairRandomDelivery Message "
        "MessageBuffer OldestFirstDelivery PerSenderFifoDelivery"
    ),
    "repro.kernel.runs": (
        "PureRun PureSystemSimulator merge_runs mergeable validate_run"
    ),
    "repro.kernel.scheduler": (
        "RandomFairScheduler RoundRobinScheduler SchedulingPolicy "
        "ScriptedScheduler"
    ),
    "repro.kernel.steps": "Schedule Step causally_precedes participants",
    "repro.kernel.system": "RunResult StepRecord System",
})
