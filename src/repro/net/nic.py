"""Network interface cards.

A NIC belongs to one host, attaches to one LAN segment, and holds a
*mutable set of bound IP addresses*: the primary (stationary) address
plus any virtual addresses currently acquired by a fail-over protocol.
Binding and unbinding stand in for the platform-specific interface
management code of the real Wackamole.
"""

from repro.net.addresses import IPAddress, MACAddress
from repro.net.arp import ArpService
from repro.net.packet import ARP_ETHERTYPE, IP_ETHERTYPE

#: First locally-administered MAC handed out in every simulation.
MAC_BASE = 0x020000000001


def allocate_mac(sim):
    """Hand out a fresh locally-administered MAC address.

    The counter is per-simulation (``Simulation.sequence``), so MAC
    assignment is a pure function of NIC creation order within one
    simulated world: two fresh Simulations allocate identical
    sequences, regardless of what else ran in the process before.
    """
    return MACAddress(MAC_BASE + sim.sequence("net.mac"))


class Nic:
    """One interface: MAC identity, bound IPs, and an up/down state."""

    def __init__(self, host, lan, primary_ip, name=None, mac=None):
        self.host = host
        self.lan = lan
        self.mac = mac if mac is not None else allocate_mac(host.sim)
        self.name = name or "{}.{}".format(host.name, lan.name)
        self.primary_ip = IPAddress(primary_ip) if primary_ip is not None else None
        self._bound = {}  # address value -> IPAddress, in binding order
        if self.primary_ip is not None:
            if self.primary_ip not in lan.subnet:
                raise ValueError(
                    "{} not in subnet {} of LAN {}".format(primary_ip, lan.subnet, lan.name)
                )
            self.bind_ip(self.primary_ip)
        self.up = True
        metrics = host.sim.metrics
        self._m_rx = metrics.counter("net.nic_rx_frames", node=self.name)
        self._m_tx = metrics.counter("net.nic_tx_frames", node=self.name)
        self._m_dropped = metrics.counter("net.nic_dropped_frames", node=self.name)
        lan.attach(self)

    @property
    def bound_ips(self):
        """Frozen view of every IP currently bound to this interface."""
        return frozenset(self._bound.values())

    @property
    def bound_values(self):
        """The bound addresses as 32-bit integers, in binding order."""
        return tuple(self._bound)

    @property
    def virtual_ips(self):
        """Bound IPs other than the primary (the fail-over managed set)."""
        primary = self.primary_ip
        return frozenset(ip for ip in self._bound.values() if ip != primary)

    def bind_ip(self, address):
        """Acquire ``address`` on this interface (idempotent)."""
        address = IPAddress(address)
        if address not in self.lan.subnet:
            raise ValueError(
                "cannot bind {}: outside subnet {}".format(address, self.lan.subnet)
            )
        if address._value not in self._bound:
            self.lan.sim.coverage_changing()
            self.lan.changes += 1
            self._bound[address._value] = address
            self.lan.binders(address._value).append(self)

    def unbind_ip(self, address):
        """Release ``address``; the primary address cannot be released."""
        address = IPAddress(address)
        if address == self.primary_ip:
            raise ValueError("cannot unbind the primary address {}".format(address))
        if address._value in self._bound:
            self.lan.sim.coverage_changing()
            self.lan.changes += 1
            del self._bound[address._value]
            self.lan.binders(address._value).remove(self)

    def owns_ip(self, address):
        """True when ``address`` is currently bound here."""
        if type(address) is not IPAddress:
            address = IPAddress(address)
        return address._value in self._bound

    def set_up(self, up):
        """Administratively raise or lower the interface."""
        self.lan.sim.coverage_changing()
        self.lan.changes += 1
        self.up = bool(up)

    def reset(self):
        """Reboot semantics: drop every virtual address, come back up."""
        for address in self.virtual_ips:
            self.unbind_ip(address)
        self.lan.changes += 1
        self.up = True

    def transmit(self, frame):
        """Send a frame onto the LAN; silently dropped if the NIC is down."""
        if not self.up:
            self._m_dropped.inc()
            return
        self._m_tx.inc()
        self.lan.transmit(frame, self)

    def deliver(self, frame):
        """Called by the LAN when a frame arrives for this NIC."""
        ethertype = frame.ethertype
        host = self.host
        # ARP and IP: the one-recipient case of the per-frame receive
        # routines, which make the up/alive checks and count the frame
        # themselves. (``receive_ip`` is a static method of Host,
        # reached through the instance: host.py imports this module.)
        if ethertype == IP_ETHERTYPE:
            host.receive_ip(frame.payload, (self,))
        elif ethertype == ARP_ETHERTYPE:
            ArpService.receive(frame.payload, (self,))
        elif not self.up or not host.alive:
            self._m_dropped.inc()
        else:
            self._m_rx.inc()
            host.handle_frame(self, frame)

    def __repr__(self):
        return "Nic({}, mac={}, ips={}, {})".format(
            self.name,
            self.mac,
            sorted(str(ip) for ip in self._bound.values()),
            "up" if self.up else "down",
        )
