"""Wackamole: N-way IP fail-over (the paper's primary contribution).

The package implements the three components of Figure 1:

* the **state synchronization algorithm** (Algorithms 1–3: RUN /
  GATHER / BALANCE) in :mod:`repro.core.daemon`, with its deterministic
  procedures in :mod:`repro.core.conflict`, :mod:`repro.core.reallocate`
  and :mod:`repro.core.balance`;
* the **IP address control mechanism** in :mod:`repro.core.iface`
  (acquire/release on simulated NICs) and :mod:`repro.core.notify`
  (ARP spoofing, including §5.2's shared-cache targeted notification);
* the connection to the **group communication system** through the
  plain Spread client API.

Plus the practical considerations of §3.4/§4.2: maturity bootstrap,
load re-balancing with a representative, indivisible VIP groups for
router fail-over, the admin control channel, and the reconnect cycle
after losing the local GCS daemon.
"""

from repro.core.audit import CoverageAuditor, CoverageViolation
from repro.core.balance import compute_balanced_allocation
from repro.core.config import VipGroup, WackamoleConfig
from repro.core.conflict import resolve_claim
from repro.core.control import AdminConsole, AdminControl
from repro.core.daemon import WackamoleDaemon
from repro.core.iface import InterfaceManager
from repro.core.messages import BalanceMsg, MatureMsg, StateMsg
from repro.core.notify import ArpNotifier
from repro.core.reallocate import reallocate_ips
from repro.core.state import BALANCE, GATHER, RUN
from repro.core.table import AllocationTable

__all__ = [
    "AdminConsole",
    "AdminControl",
    "AllocationTable",
    "ArpNotifier",
    "BALANCE",
    "BalanceMsg",
    "CoverageAuditor",
    "CoverageViolation",
    "GATHER",
    "InterfaceManager",
    "MatureMsg",
    "RUN",
    "StateMsg",
    "VipGroup",
    "WackamoleConfig",
    "WackamoleDaemon",
    "compute_balanced_allocation",
    "reallocate_ips",
    "resolve_claim",
]
