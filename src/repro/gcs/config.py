"""GCS timing configuration — the knobs of the paper's Table 1.

Two presets reproduce the two experimental setups of §6:

* :meth:`SpreadConfig.default` — fault detection 5 s, distributed
  heartbeat 2 s, discovery 7 s. Failure notification therefore takes
  between 10 s and 12 s (detection in [fd - hb, fd] plus discovery).
* :meth:`SpreadConfig.tuned` — 1 s / 0.4 s / 1.4 s, for a notification
  window of 2 s to 2.4 s.

The remaining parameters are protocol internals (resend intervals,
client IPC latency) that the paper folds into the "minor overhead of
Spread's group membership procedure".
"""

from repro.stabilization import lookup


class SpreadConfig:
    """Timeouts and ports for a cluster of Spread-like daemons.

    ``profile`` is the hardening row the daemons run (a name of
    :data:`repro.stabilization.PROFILES` or a row): the failure detector
    reads its K-miss count, the daemon its audit interval.
    """

    def __init__(
        self,
        fault_detection_timeout=5.0,
        heartbeat_timeout=2.0,
        discovery_timeout=7.0,
        join_interval=0.05,
        form_timeout=1.0,
        install_timeout=1.0,
        resubmit_interval=0.2,
        gap_nack_delay=0.05,
        client_ipc_latency=0.0001,
        port=4803,
        profile="paper",
    ):
        if heartbeat_timeout >= fault_detection_timeout:
            raise ValueError(
                "heartbeat timeout ({}) must be below fault detection timeout ({})".format(
                    heartbeat_timeout, fault_detection_timeout
                )
            )
        self.fault_detection_timeout = float(fault_detection_timeout)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.discovery_timeout = float(discovery_timeout)
        self.join_interval = float(join_interval)
        self.form_timeout = float(form_timeout)
        self.install_timeout = float(install_timeout)
        self.resubmit_interval = float(resubmit_interval)
        self.gap_nack_delay = float(gap_nack_delay)
        self.client_ipc_latency = float(client_ipc_latency)
        self.port = int(port)
        self.profile = lookup(profile)

    @classmethod
    def default(cls):
        """Table 1, 'Default Spread' column: 5 / 2 / 7 seconds."""
        return cls(
            fault_detection_timeout=5.0, heartbeat_timeout=2.0, discovery_timeout=7.0
        )

    @classmethod
    def tuned(cls):
        """Table 1, 'Tuned Spread' column: 1 / 0.4 / 1.4 seconds."""
        return cls(
            fault_detection_timeout=1.0, heartbeat_timeout=0.4, discovery_timeout=1.4
        )

    @classmethod
    def fast(cls, **overrides):
        """Aggressively small timeouts (Table 1 ratios preserved).

        What the check campaigns and the test suite run, so protocol
        rounds take milliseconds of simulated time.
        """
        settings = {
            "fault_detection_timeout": 0.5,
            "heartbeat_timeout": 0.2,
            "discovery_timeout": 0.5,
            "join_interval": 0.02,
            "form_timeout": 0.3,
            "install_timeout": 0.3,
        }
        settings.update(overrides)
        return cls(**settings)

    def detection_window(self):
        """(min, max) delay from failure to start of reconfiguration.

        With K-miss suspicion (the profile's ``suspicion_misses`` > 1)
        each extra miss adds one heartbeat interval to both bounds.
        """
        extension = (self.profile.suspicion_misses - 1) * self.heartbeat_timeout
        return (
            self.fault_detection_timeout - self.heartbeat_timeout + extension,
            self.fault_detection_timeout + extension,
        )

    def notification_window(self):
        """(min, max) delay from failure to membership notification.

        This is the paper's derived 10–12 s (default) / 2–2.4 s (tuned)
        range: detection plus the discovery phase, ignoring the minor
        overhead of the membership exchange itself.
        """
        lo, hi = self.detection_window()
        return (lo + self.discovery_timeout, hi + self.discovery_timeout)

    def describe(self):
        """Dict of the three Table 1 timeouts, in seconds."""
        return {
            "fault_detection_timeout": self.fault_detection_timeout,
            "heartbeat_timeout": self.heartbeat_timeout,
            "discovery_timeout": self.discovery_timeout,
        }

    def __repr__(self):
        return "SpreadConfig(fd={}, hb={}, disc={})".format(
            self.fault_detection_timeout, self.heartbeat_timeout, self.discovery_timeout
        )
