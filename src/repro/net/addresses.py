"""IP and MAC address value types.

Small immutable wrappers around integers: hashable, comparable, cheap
to copy, with the usual dotted-quad / colon-hex string forms. A
:class:`Subnet` provides membership tests and the broadcast address
used by the protocols' LAN broadcasts.
"""


class IPAddress:
    """An IPv4 address; immutable and usable as a dict key."""

    __slots__ = ("_value",)

    def __new__(cls, address):
        # Converting an address that is already an IPAddress is a hot
        # no-op on the packet path; being immutable, the instance can
        # be returned as-is instead of allocating a copy.
        if type(address) is cls:
            return address
        return super().__new__(cls)

    def __init__(self, address):
        if isinstance(address, IPAddress):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise ValueError("IPv4 integer out of range: {}".format(address))
            self._value = address
        elif isinstance(address, str):
            self._value = self._parse(address)
        else:
            raise TypeError("cannot build IPAddress from {!r}".format(address))

    @staticmethod
    def _parse(text):
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError("malformed IPv4 address: {!r}".format(text))
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError("malformed IPv4 address: {!r}".format(text))
            value = (value << 8) | octet
        return value

    @property
    def value(self):
        """The address as a 32-bit integer."""
        return self._value

    def __add__(self, offset):
        return IPAddress(self._value + int(offset))

    def __eq__(self, other):
        if isinstance(other, IPAddress):
            return self._value == other._value
        if isinstance(other, str):
            return self._value == IPAddress(other)._value
        return NotImplemented

    def __lt__(self, other):
        return self._value < IPAddress(other)._value

    def __le__(self, other):
        return self._value <= IPAddress(other)._value

    def __reduce__(self):
        # ``__new__`` takes the address, so copy and pickle rebuild from it.
        return IPAddress, (self._value,)

    def __hash__(self):
        # The frame path does not come here: the ARP caches and the NICs'
        # bound addresses are keyed by ``_value``. No tuple wrapper, so no
        # allocation per hash. Offsetting by a constant keeps IPAddress keys
        # from colliding bucket-for-bucket with raw integers of the same value.
        return hash(self._value ^ 0x49500000)

    def __str__(self):
        v = self._value
        return "{}.{}.{}.{}".format((v >> 24) & 255, (v >> 16) & 255, (v >> 8) & 255, v & 255)

    def __repr__(self):
        return "IPAddress('{}')".format(self)


class MACAddress:
    """An Ethernet MAC address; immutable and usable as a dict key."""

    __slots__ = ("_value",)

    def __new__(cls, address):
        # Same identity fast path as IPAddress: immutable, so a
        # MACAddress-to-MACAddress conversion allocates nothing.
        if type(address) is cls:
            return address
        return super().__new__(cls)

    def __init__(self, address):
        if isinstance(address, MACAddress):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFFFFFF:
                raise ValueError("MAC integer out of range: {}".format(address))
            self._value = address
        elif isinstance(address, str):
            parts = address.split(":")
            if len(parts) != 6:
                raise ValueError("malformed MAC address: {!r}".format(address))
            value = 0
            for part in parts:
                octet = int(part, 16)
                if not 0 <= octet <= 255:
                    raise ValueError("malformed MAC address: {!r}".format(address))
                value = (value << 8) | octet
            self._value = value
        else:
            raise TypeError("cannot build MACAddress from {!r}".format(address))

    @property
    def value(self):
        """The address as a 48-bit integer."""
        return self._value

    @property
    def is_broadcast(self):
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == 0xFFFFFFFFFFFF

    def __eq__(self, other):
        if isinstance(other, MACAddress):
            return self._value == other._value
        if isinstance(other, str):
            return self._value == MACAddress(other)._value
        return NotImplemented

    def __lt__(self, other):
        return self._value < MACAddress(other)._value

    def __reduce__(self):
        return MACAddress, (self._value,)

    def __hash__(self):
        return hash(self._value ^ 0x4D410000)

    def __str__(self):
        octets = [(self._value >> shift) & 255 for shift in (40, 32, 24, 16, 8, 0)]
        return ":".join("{:02x}".format(o) for o in octets)

    def __repr__(self):
        return "MACAddress('{}')".format(self)


BROADCAST_MAC = MACAddress(0xFFFFFFFFFFFF)


class Subnet:
    """An IPv4 subnet in CIDR form, e.g. ``Subnet('192.168.0.0/24')``."""

    __slots__ = ("network", "prefix", "_mask", "broadcast_address")

    def __init__(self, cidr):
        if isinstance(cidr, Subnet):
            self.network = cidr.network
            self.prefix = cidr.prefix
            self._mask = cidr._mask
            self.broadcast_address = cidr.broadcast_address
            return
        base, _, prefix_text = cidr.partition("/")
        if not prefix_text:
            raise ValueError("subnet needs a /prefix: {!r}".format(cidr))
        prefix = int(prefix_text)
        if not 0 <= prefix <= 32:
            raise ValueError("bad prefix length: {}".format(prefix))
        self.prefix = prefix
        self._mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0
        self.network = IPAddress(IPAddress(base).value & self._mask)
        #: The all-ones host address of this subnet. A plain attribute,
        #: computed once: it sits on the per-packet send and receive
        #: paths, where a property call per reading is measurable.
        self.broadcast_address = IPAddress(
            self.network.value | (~self._mask & 0xFFFFFFFF)
        )

    def __contains__(self, address):
        if type(address) is not IPAddress:
            address = IPAddress(address)
        return (address._value & self._mask) == self.network._value

    def host(self, index):
        """The ``index``-th host address within the subnet."""
        address = IPAddress(self.network.value + index)
        if address not in self:
            raise ValueError("host index {} outside {}".format(index, self))
        return address

    def __eq__(self, other):
        if isinstance(other, Subnet):
            return self.network == other.network and self.prefix == other.prefix
        return NotImplemented

    def __hash__(self):
        return hash(("Subnet", self.network, self.prefix))

    def __str__(self):
        return "{}/{}".format(self.network, self.prefix)

    def __repr__(self):
        return "Subnet('{}')".format(self)
