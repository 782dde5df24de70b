"""The Wackamole state machine (Figure 2).

Three states with the paper's transition set:

* RUN --VIEW_CHANGE--> GATHER
* GATHER --REALLOCATION COMPLETE--> RUN
* GATHER --VIEW_CHANGE--> GATHER (cascading changes restart the gather)
* RUN --BALANCE TIMEOUT--> BALANCE (representative only)
* BALANCE --BALANCE COMPLETE--> RUN
* RUN --BALANCE_MSG--> RUN (apply Change_IPs)

BALANCE executes as an atomic procedure (§3.4): the representative
computes and broadcasts the new allocation without yielding, so no
event can interleave before it returns to RUN.
"""

RUN = "RUN"
GATHER = "GATHER"
BALANCE = "BALANCE"

STATES = (RUN, GATHER, BALANCE)

#: The legal transitions of Figure 2, as (from_state, event, to_state).
TRANSITIONS = frozenset(
    {
        (RUN, "VIEW_CHANGE", GATHER),
        (GATHER, "VIEW_CHANGE", GATHER),
        (GATHER, "REALLOCATION_COMPLETE", RUN),
        (RUN, "BALANCE_TIMEOUT", BALANCE),
        (BALANCE, "BALANCE_COMPLETE", RUN),
        (RUN, "BALANCE_MSG", RUN),
        (GATHER, "BALANCE_MSG", GATHER),
    }
)


class IllegalTransition(Exception):
    """A transition not present in Figure 2 was attempted."""


class StateMachine:
    """Explicit state holder that validates transitions against Figure 2."""

    def __init__(self, trace=None):
        self.state = RUN
        self.history = []
        self._trace = trace

    def fire(self, event):
        """Apply ``event``; returns the new state."""
        for from_state, transition_event, to_state in TRANSITIONS:
            if from_state == self.state and transition_event == event:
                self.history.append((self.state, event, to_state))
                self.state = to_state
                if self._trace is not None:
                    self._trace(event, to_state)
                return self.state
        raise IllegalTransition(
            "no transition for event {!r} from state {}".format(event, self.state)
        )

    def can_fire(self, event):
        """True when ``event`` is legal in the current state."""
        return any(
            from_state == self.state and transition_event == event
            for from_state, transition_event, _ in TRANSITIONS
        )
