"""Lookup vocabulary shared by Chord, Verme and the DHT layers.

The paper's Fig. 5 compares two routing styles (§7.1.2):

* **recursive** — the request is forwarded hop by hop and the reply
  retraces the path in reverse (the only style Verme permits);
* **transitive** — the forward path is recursive but the final node
  answers the initiator directly (rejected by Verme because the request
  would have to carry the initiator's address).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # state -> rules -> lookup: annotations only
    from .state import NodeInfo


class LookupStyle(enum.Enum):
    """How a lookup traverses the overlay (see module docstring)."""

    RECURSIVE = "recursive"
    TRANSITIVE = "transitive"


class LookupPurpose(enum.Enum):
    """Why a lookup is being issued; Verme's responsible node verifies
    the initiator's legitimacy differently per purpose (§4.5)."""

    JOIN = "join"
    FINGER = "finger"
    DHT = "dht"


@dataclass(slots=True)
class LookupResult:
    """Outcome of one lookup as seen by the initiator.

    Slotted: one instance per completed lookup, allocated on the hot
    completion path of every workload and maintenance lookup.
    """

    key: int
    success: bool
    entries: List[NodeInfo] = field(default_factory=list)
    latency_s: float = 0.0
    hops: int = 0
    retries: int = 0
    error: Optional[str] = None
    app_payload: object = None  # piggybacked DHT data (Secure-VerDi)

    @property
    def responsible(self) -> Optional[NodeInfo]:
        return self.entries[0] if self.entries else None
