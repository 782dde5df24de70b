"""The address plane against a plain-``set`` model.

``Nic`` keeps its bound addresses keyed by 32-bit value and ``Lan``
keeps, per address, the list of its interfaces that bind it
(``Lan.binders``), which ``ArpService.receive`` reads instead of asking
every recipient. Both are representations: whatever sequence of binds,
unbinds, resets, link flaps, crashes, reboots and late second NICs a
run performs — with addresses given as text, as integers or as
``IPAddress`` — every public read must equal what a model holding one
``set`` of dotted quads per interface gives, and the per-LAN lists must
equal the ones re-derived from the interfaces, after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPAddress
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation

N_HOSTS = 3
SUBNET = "10.0.0.0/24"  # both segments: one address can be bound on each
PRIMARIES = [["10.0.0.{}".format(1 + h), "10.0.0.{}".format(11 + h)] for h in range(N_HOSTS)]
POOL = ["10.0.0.{}".format(last) for last in (50, 51, 52, 53)] + [
    ip for pair in PRIMARIES for ip in pair
]
FORMS = {
    "str": str,
    "int": lambda text: IPAddress(text).value,
    "ip": IPAddress,
    "int-built": lambda text: IPAddress(IPAddress(text).value),
}


class World:
    """Three hosts on ``lan0``; a second NIC on ``lan1`` may come later."""

    def __init__(self):
        self.sim = Simulation(seed=1)
        self.lans = [Lan(self.sim, "lan0", SUBNET), Lan(self.sim, "lan1", SUBNET)]
        self.hosts = []
        self.model = {}  # nic -> set of dotted quads
        for index in range(N_HOSTS):
            host = Host(self.sim, "h{}".format(index))
            self.hosts.append(host)
            self.attach(index, 0)

    def attach(self, host_index, slot):
        primary = PRIMARIES[host_index][slot]
        nic = self.hosts[host_index].add_nic(self.lans[slot], primary)
        self.model[nic] = {primary}

    def apply(self, step):
        kind, host_index, slot, address, form, flag = step
        host = self.hosts[host_index]
        if kind == "attach":
            if len(host.nics) == 1:
                self.attach(host_index, 1)
            return
        if kind == "crash":
            host.crash()
            return
        if kind == "recover":
            host.recover()
            for nic in host.nics:
                self.model[nic] = {str(nic.primary_ip)}
            return
        nic = host.nics[slot % len(host.nics)]
        if kind == "bind":
            nic.bind_ip(FORMS[form](address))
            self.model[nic].add(address)
        elif kind == "unbind":
            if address == str(nic.primary_ip):
                try:
                    nic.unbind_ip(FORMS[form](address))
                except ValueError:
                    return
                raise AssertionError("the primary address was released")
            nic.unbind_ip(FORMS[form](address))
            self.model[nic].discard(address)
        elif kind == "reset":
            nic.reset()
            self.model[nic] = {str(nic.primary_ip)}
        elif kind == "set_up":
            nic.set_up(flag)

    def check(self):
        for host in self.hosts:
            for nic in host.nics:
                bound = self.model[nic]
                assert nic.bound_ips == frozenset(IPAddress(ip) for ip in bound)
                assert type(nic.bound_ips) is frozenset
                assert sorted(nic.bound_values) == sorted(IPAddress(ip).value for ip in bound)
                assert {str(ip) for ip in nic.virtual_ips} == bound - {str(nic.primary_ip)}
                for ip in POOL:
                    for convert in FORMS.values():
                        assert nic.owns_ip(convert(ip)) == (ip in bound)
            local = set().union(*(self.model[nic] for nic in host.nics if nic.up))
            assert host.local_ips() == {IPAddress(ip) for ip in local}
            for ip in POOL:
                for convert in FORMS.values():
                    assert host.owns_ip(convert(ip)) == (ip in local)
        # The kept lists, re-derived: per LAN and address, exactly the
        # interfaces built on that LAN whose own bound set holds it.
        for lan in self.lans:
            nics = [nic for host in self.hosts for nic in host.nics if nic.lan is lan]
            for ip in POOL:
                listed = lan.binders(IPAddress(ip).value)
                assert sorted(nic.name for nic in listed) == sorted(
                    nic.name for nic in nics if ip in self.model[nic]
                )
            assert set(lan._binders) <= {IPAddress(ip).value for ip in POOL}


steps = st.tuples(
    st.sampled_from(
        ["bind", "bind", "bind", "unbind", "unbind", "reset", "set_up", "crash", "recover", "attach"]
    ),
    st.integers(0, N_HOSTS - 1),
    st.integers(0, 1),
    st.sampled_from(POOL),
    st.sampled_from(sorted(FORMS)),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=40))
def test_every_read_equals_the_set_model_after_every_step(program):
    world = World()
    world.check()
    for step in program:
        world.apply(step)
        world.check()


def test_binding_twice_lists_the_interface_once_and_reset_delists_it():
    world = World()
    nic = world.hosts[0].nics[0]
    value = IPAddress("10.0.0.50").value
    nic.bind_ip("10.0.0.50")
    nic.bind_ip(value)
    assert world.lans[0].binders(value) == [nic]
    held = world.lans[0].binders(value)
    nic.reset()
    # The same list, emptied in place: a reader holding it sees the change.
    assert held == [] and world.lans[0].binders(value) is held
    assert nic.bound_ips == {nic.primary_ip}
