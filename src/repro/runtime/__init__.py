"""Deployment runtime: the protocols on real sockets and clocks.

The simulators (:mod:`repro.sim`) study the protocols; this package *runs*
them — loopback UDP datagrams, wall-clock gossip timers and every socket on
one selector loop, the binary wire frames — the repository's laptop-scale
analogue of the paper's Sec. 5.2 testbed measurements.
"""

from .udp import LocalDeployment, UdpProcessHost

__all__ = ["LocalDeployment", "UdpProcessHost"]
