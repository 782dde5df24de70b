"""Client sessions: the API an application sees.

Mirrors the Spread client library: connect to the local daemon, join
named groups, multicast with agreed delivery, and receive both regular
messages and group membership views through callbacks. Wackamole is a
client of this API and nothing more — it never touches daemon
internals, exactly as in the paper's architecture (Figure 1).
"""


class SpreadConnectionError(Exception):
    """Raised when connecting to (or using) a dead daemon session."""


class SpreadClient:
    """One application connection to a local Spread-like daemon.

    Callbacks (assign plain callables):

    * ``on_message(SpreadMessage)`` — an agreed-ordered group message;
    * ``on_group_view(GroupView)`` — a membership notification;
    * ``on_disconnect()`` — the daemon died or kicked the session.
    """

    def __init__(self, daemon, name):
        self.daemon = daemon
        self.name = name
        self.private_name = "{}@{}".format(name, daemon.daemon_id)
        self.connected = True
        self.on_message = None
        self.on_group_view = None
        self.on_disconnect = None
        self.messages_received = 0
        self.views_received = 0

    # ------------------------------------------------------------------
    # operations

    def join(self, group):
        """Join a process group; a membership view will follow."""
        self._require_connected()
        self.daemon.client_join(self, group)

    def leave(self, group):
        """Gracefully leave a group (lightweight — no daemon reconfiguration)."""
        self._require_connected()
        self.daemon.client_leave(self, group, cause="leave")

    def multicast(self, group, payload):
        """Send ``payload`` to ``group`` with agreed (totally ordered) delivery."""
        self._require_connected()
        self.daemon.client_multicast(self, group, payload)

    def disconnect(self):
        """Gracefully close the session, leaving all groups."""
        if self.connected:
            self.daemon.client_disconnected(self, cause="leave")

    def kill(self):
        """Abrupt application death; the daemon notices the broken session."""
        if self.connected:
            self.daemon.client_disconnected(self, cause="disconnect")

    # ------------------------------------------------------------------
    # delivery (called by the daemon)

    def _deliver_message(self, message):
        if not self.connected:
            return
        self.messages_received += 1
        if self.on_message is not None:
            self.on_message(message)

    def _deliver_group_view(self, view):
        if not self.connected:
            return
        self.views_received += 1
        if self.on_group_view is not None:
            self.on_group_view(view)

    def _handle_disconnect(self):
        if not self.connected:
            return
        self.connected = False
        if self.on_disconnect is not None:
            self.on_disconnect()

    def _require_connected(self):
        if not self.connected:
            raise SpreadConnectionError(
                "client {} is not connected".format(self.private_name)
            )

    def __repr__(self):
        return "SpreadClient({}, {})".format(
            self.private_name, "connected" if self.connected else "disconnected"
        )
