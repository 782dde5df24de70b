"""Client pools: the aggregate demand unit of the flow engine.

One :class:`FlowPool` stands for ``users`` clients all targeting the
same virtual address at ``rate`` requests per second each. The pool
never materialises individual requests — it is a *rate counter* the
engine advances once per tick — so a million users cost the same per
tick as ten. Fractional demand carries over between ticks (the
``carry`` accumulator), which keeps long-run offered totals exact:
over T seconds a pool offers ``floor``-accurate ``users * rate * T``
requests regardless of the tick size.
"""

import math

from repro.net.addresses import IPAddress

#: Loss-attribution reasons a resolution can produce (docs/TRAFFIC.md).
LOSS_REASONS = (
    "no_owner",      # the VIP is bound on no live, up interface anywhere
    "stale_arp",     # the client-side ARP binding points away from the live owner
    "dead_host",     # traffic lands on a crashed host / downed interface
    "partitioned",   # the owner is in another partition group
    "no_route",      # the owner answers but fails the pool's service gate
    "degraded",      # served at reduced goodput (burst loss, slowdown)
)


class FlowPool:
    """Aggregate clients: ``users`` × ``rate`` req/s against one VIP."""

    __slots__ = (
        "name",
        "vip",
        "users",
        "rate",
        "require",
        "resolver",
        "carry",
        "offered",
        "served",
        "lost",
        "lost_by_reason",
    )

    def __init__(self, name, vip, users, rate=1.0, require=None, resolver=None):
        if users < 0 or not float(users).is_integer():
            raise ValueError("users must be a whole number >= 0, got {}".format(users))
        if not 0.0 <= rate < math.inf:
            raise ValueError("rate must be finite and >= 0, got {}".format(rate))
        self.name = name
        self.vip = IPAddress(vip)
        self.users = int(users)
        self.rate = float(rate)
        # Optional service gate: ``require(owner_host) -> bool``; a pool
        # whose resolved owner fails the gate loses its tick as
        # ``no_route`` (the virtual-router pools use this to demand a
        # usable route behind the gateway VIP, not just a bound address).
        self.require = require
        # Optional per-pool resolver override; pools without one use the
        # engine's default (webcluster pools share the engine resolver,
        # the router scenario gives each internal LAN its own viewpoint).
        self.resolver = resolver
        self.carry = 0.0
        self.offered = 0
        self.served = 0
        self.lost = 0
        self.lost_by_reason = {}

    # ------------------------------------------------------------------

    def reset_counters(self):
        """Zero the request totals (the carry accumulator survives)."""
        self.offered = 0
        self.served = 0
        self.lost = 0
        self.lost_by_reason = {}

    def to_dict(self):
        """JSON-stable totals (sorted reasons, integers only)."""
        return {
            "name": self.name,
            "vip": str(self.vip),
            "users": self.users,
            "rate": self.rate,
            "offered": self.offered,
            "served": self.served,
            "lost": self.lost,
            "lost_by_reason": {
                reason: self.lost_by_reason[reason]
                for reason in sorted(self.lost_by_reason)
            },
        }

    def __repr__(self):
        return "FlowPool({}, {} users @ {}/s -> {}, served {}/{})".format(
            self.name, self.users, self.rate, self.vip, self.served, self.offered
        )
