"""Deployment runtime: the protocols on real sockets, threads and clocks.

The simulators (:mod:`repro.sim`) study the protocols; this package *runs*
them — loopback UDP datagrams, per-process receive and timer threads, the
binary wire frames — the repository's laptop-scale analogue of the paper's
Sec. 5.2 testbed measurements.
"""

from .udp import LocalDeployment, UdpProcessHost

__all__ = ["LocalDeployment", "UdpProcessHost"]
