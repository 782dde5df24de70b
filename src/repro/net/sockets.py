"""UDP socket endpoints.

A socket is bound to a port (and optionally one local IP). The handler
receives the payload plus full addressing information — servers in the
paper's experiment reply *from the virtual IP they were addressed at*,
so the destination address is part of the delivery.
"""

from repro.net.addresses import IPAddress


class UdpSocket:
    """One bound UDP endpoint on a host.

    ``realtime`` marks the owning process as running with real-time
    scheduling priority (§6's production recommendation): its
    deliveries bypass the host's load-induced scheduling delay.
    """

    __slots__ = ("host", "port", "handler", "bind_ip", "realtime", "closed",
                 "received", "sent")

    def __init__(self, host, port, handler, bind_ip=None, realtime=False):
        self.host = host
        self.port = int(port)
        self.handler = handler
        self.bind_ip = IPAddress(bind_ip) if bind_ip is not None else None
        self.realtime = bool(realtime)
        self.closed = False
        self.received = 0
        self.sent = 0

    def deliver(self, payload, src_ip, src_port, dst_ip):
        """Hand a deferred datagram to the application handler.

        The target of a slowed or loaded host's delayed delivery
        (:meth:`Host.receive_ip` calls the handler itself otherwise);
        the socket may have closed while the datagram waited.
        """
        if self.closed:
            return
        self.received += 1
        self.handler(payload, (src_ip, src_port), (dst_ip, self.port))

    def sendto(self, payload, dst_ip, dst_port, src_ip=None):
        """Send a datagram; source IP defaults to the outbound NIC's primary."""
        if self.closed:
            raise RuntimeError("socket on port {} is closed".format(self.port))
        self.sent += 1
        self.host.send_udp(
            payload,
            dst_ip,
            dst_port,
            src_port=self.port,
            src_ip=src_ip if src_ip is not None else self.bind_ip,
        )

    def close(self):
        """Unbind; pending deliveries are dropped."""
        self.closed = True
        self.host.release_socket(self)

    def __repr__(self):
        bind = str(self.bind_ip) if self.bind_ip else "*"
        return "UdpSocket({}:{} on {})".format(bind, self.port, self.host.name)
