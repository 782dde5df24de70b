"""Unit tests for IP/MAC address and subnet value types."""

import copy
import pickle

import pytest

from repro.net.addresses import BROADCAST_MAC, IPAddress, MACAddress, Subnet


class TestIPAddress:
    def test_parse_and_format_roundtrip(self):
        assert str(IPAddress("192.168.0.1")) == "192.168.0.1"

    def test_from_int(self):
        assert str(IPAddress(0xC0A80001)) == "192.168.0.1"

    def test_value_property(self):
        assert IPAddress("0.0.0.255").value == 255

    def test_copy_constructor(self):
        original = IPAddress("10.0.0.1")
        assert IPAddress(original) == original

    def test_equality_with_string(self):
        assert IPAddress("10.0.0.1") == "10.0.0.1"

    def test_hashable_as_dict_key(self):
        table = {IPAddress("10.0.0.1"): "a"}
        assert table[IPAddress("10.0.0.1")] == "a"

    def test_ordering(self):
        assert IPAddress("10.0.0.1") < IPAddress("10.0.0.2")
        assert IPAddress("9.255.255.255") < "10.0.0.0"

    def test_addition_offsets(self):
        assert IPAddress("10.0.0.1") + 5 == IPAddress("10.0.0.6")

    @pytest.mark.parametrize("bad", ["10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            IPAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            IPAddress(2**32)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            IPAddress(1.5)


class TestMACAddress:
    def test_parse_and_format_roundtrip(self):
        assert str(MACAddress("02:00:00:00:00:0a")) == "02:00:00:00:00:0a"

    def test_broadcast_detection(self):
        assert BROADCAST_MAC.is_broadcast
        assert not MACAddress(1).is_broadcast

    def test_equality_and_hash(self):
        assert MACAddress(7) == MACAddress(7)
        assert len({MACAddress(7), MACAddress(7)}) == 1

    def test_string_equality(self):
        assert MACAddress("ff:ff:ff:ff:ff:ff") == BROADCAST_MAC

    def test_ordering(self):
        assert MACAddress(1) < MACAddress(2)

    @pytest.mark.parametrize("bad", ["ff:ff", "zz:00:00:00:00:00"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            MACAddress(bad)


class TestSubnet:
    def test_membership(self):
        subnet = Subnet("192.168.1.0/24")
        assert IPAddress("192.168.1.200") in subnet
        assert IPAddress("192.168.2.1") not in subnet

    def test_network_is_masked(self):
        assert Subnet("192.168.1.77/24").network == IPAddress("192.168.1.0")

    def test_broadcast_address(self):
        assert Subnet("10.0.0.0/24").broadcast_address == IPAddress("10.0.0.255")

    def test_broadcast_address_odd_prefix(self):
        assert Subnet("10.0.0.0/30").broadcast_address == IPAddress("10.0.0.3")

    def test_host_indexing(self):
        assert Subnet("10.0.0.0/24").host(5) == IPAddress("10.0.0.5")

    def test_host_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0/30").host(9)

    def test_requires_prefix(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0")

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0/40")

    def test_equality_and_hash(self):
        assert Subnet("10.0.0.0/24") == Subnet("10.0.0.99/24")
        assert len({Subnet("10.0.0.0/24"), Subnet("10.0.0.1/24")}) == 1

    def test_copy_constructor(self):
        base = Subnet("10.0.0.0/16")
        assert Subnet(base) == base

    def test_str(self):
        assert str(Subnet("10.0.0.0/16")) == "10.0.0.0/16"


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize(
    "value",
    [IPAddress("10.1.2.3"), MACAddress("02:00:00:00:00:2a"), Subnet("10.32.0.0/16")],
    ids=["IPAddress", "MACAddress", "Subnet"],
)
def test_copy_and_pickle_round_trip_to_an_equal_value(value, how):
    # Was: TypeError, ``__new__`` called with no address.
    copied = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda item: pickle.loads(pickle.dumps(item)),
    }[how](value)
    assert type(copied) is type(value)
    assert copied == value
    assert hash(copied) == hash(value)
