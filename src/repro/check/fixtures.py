"""Daemon variants for campaigns, including deliberately planted bugs.

A fault-searching campaign that has never found a bug proves nothing —
it might simply be blind. The planted fixtures are known-broken daemon
variants the campaign *must* catch, shrink, and replay; they double as
regression tests for the check subsystem itself.
"""

from repro.core.daemon import WackamoleDaemon
from repro.core.state import RUN


class BrokenBalanceDaemon(WackamoleDaemon):
    """Planted bug: applying a BALANCE message never releases slots.

    The correct Change_IPs both acquires newly assigned addresses and
    releases surrendered ones (§3.4). This variant only acquires, so
    the first re-balance that *moves* a slot — typically right after a
    crashed or departed member rejoins with an empty allocation —
    leaves the old owner still bound: duplicate coverage, a Property 1
    violation the auditor must catch.
    """

    def _on_balance_msg(self, message):
        if self.machine.state != RUN:
            return
        if self.view is None or message.view_id != self.view.view_id:
            return
        self.machine.fire("BALANCE_MSG")
        self.table.adopt(message.allocation)
        for slot in self.table.owned_by(self.member_name):
            self.iface.acquire(slot)
        self.balances_applied += 1


FIXTURES = {
    "standard": WackamoleDaemon,
    "broken-balance": BrokenBalanceDaemon,
}


def daemon_class(name):
    """Resolve a fixture name to a daemon class."""
    try:
        return FIXTURES[name]
    except KeyError:
        raise ValueError(
            "unknown fixture {!r}; known: {}".format(name, sorted(FIXTURES))
        ) from None
