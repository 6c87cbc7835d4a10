"""3G/4G mobile network simulator.

The paper's dataset is produced by passive probes on the Gn and S5/S8
interfaces of a 3G/4G packet core (Fig. 1): the probes inspect GTP-C to
geo-reference users (via the User Location Information carried in PDP
Contexts and EPS Bearers) and GTP-U to account per-flow traffic, which
DPI then maps to services.  This package implements that whole substrate:

- :mod:`repro.network.elements` — RAN and core network elements
  (NodeB/RNC/SGSN/GGSN on the 3G side, eNodeB/MME/S-GW/P-GW on 4G);
- :mod:`repro.network.topology` — deployment of the elements over a
  :class:`~repro.geo.country.Country`;
- :mod:`repro.network.gtp` — columnar GTP-C/GTP-U batches (with the ULI
  as columns), flow feature codes, TEIDs;
- :mod:`repro.network.session` — PDP context / EPS bearer lifecycle of
  whole batches of sessions;
- :mod:`repro.network.handover` — routing/tracking-area updates that
  refresh the ULI when users move;
- :mod:`repro.network.probes` — the passive probes emitting the record
  batches the dataset pipeline consumes.

Every session, handover-spanning ones included, takes this one
columnar path: the generator attaches a chunk of sessions, reports
their flows, moves the sessions whose subscriber changes commune
before their last flow, reports those last flows, and detaches the
chunk.
"""

from repro.network.elements import (
    BaseStation,
    CoreNode,
    CoreNodeRole,
    RoutingArea,
)
from repro.network.gtp import FlowDescriptor
from repro.network.handover import HandoverManager
from repro.network.probes import CoreProbe, ProbeRecord
from repro.network.session import SessionManager
from repro.network.topology import NetworkTopology, build_topology

__all__ = [
    "BaseStation",
    "CoreNode",
    "CoreNodeRole",
    "RoutingArea",
    "NetworkTopology",
    "build_topology",
    "FlowDescriptor",
    "SessionManager",
    "HandoverManager",
    "CoreProbe",
    "ProbeRecord",
]
