"""Chord and Verme routing rules, each stated once for both live engines.

Pure functions over ints and *entries* — pairs of a node id ``e[0]`` and
a reference ``e[1]``: a :class:`~repro.chord.state.NodeInfo` in the
object engine, a ``(node_id, row)`` tuple in :mod:`repro.chord.columnar`.
References are only compared or looked up in ``exclude`` sets; finger
tables are ``{k: entry}`` dicts, purposes :class:`LookupPurpose`.  As in the
ASM description of Chord (Marinković et al.), each rule is a guard plus
an update; the engines keep the state (and any cache of it).  ``shift``
is ``None`` for Chord, else Verme's ``section_bits`` (``id >> shift`` is
the section, ``& tmask`` on that the type, §4.3); ``mask`` is
``2**bits - 1``.  The oracles these rules are tested against
(:mod:`repro.invariants`, the static overlay's scalar forms) deliberately
do not import this module.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .lookup import LookupPurpose

#: Routing decisions ``(done, owner_self, next_entry)``; the three
#: fieldwise-constant ones are shared, since callers only read them.
OWNER_SELF = (True, True, None)
OWNER_SUCC = (True, False, None)
NO_ROUTE = (False, False, None)

_key0 = itemgetter(0)


def route_candidates(own: int, finger_entries, succs, mask: int):
    """The closest-preceding scan's candidates, as ``(keys, infos)``:
    finger then successor entries (none for ``own``) sorted farthest
    first from ``own``, stably, so fingers win ties; ``keys`` are the
    negated distances, ascending for ``bisect_right``.  Engines cache
    the pair, keyed by their tables' version counters."""
    cands = []
    for e in finger_entries:
        dc = (e[0] - own) & mask
        if dc:  # dc == 0 (an entry for self) can never route
            cands.append((-dc, e))
    for e in succs:
        dc = (e[0] - own) & mask
        if dc:
            cands.append((-dc, e))
    cands.sort(key=_key0)
    return [c[0] for c in cands], [c[1] for c in cands]


def route_next(own, key, succs, preds, cand_keys, cand_infos, exclude, mask, shift):
    """One routing decision at node ``own`` for ``key``.

    Returns ``(done, owner_self, next_entry)``: ``done`` with whether
    ``own`` (else its first successor) owns the key, or the next hop
    (``None``: no route), never one whose reference is in ``exclude``.
    ``cand_keys`` / ``cand_infos`` are the tables' :func:`route_candidates`.

    * The key lies in ``(own, succ]``: the successor owns it — in Verme
      only if it shares the key's section, else ``own`` does (the §4.4
      corner rule).
    * The key lies in ``(pred, own]``: ``own`` owns it — in Verme only
      if it shares the key's section; otherwise the key sits in the gap
      before ``own``'s section, so the request is handed back to the
      predecessor (if it is not excluded; else the scan below decides).
    * Otherwise the closest preceding candidate: the farthest entry
      strictly inside ``(own, key)`` (a key equal to ``own`` means the
      whole ring); the first successor as a last resort.

    The :mod:`repro.ids.idspace` interval tests are inlined (one call per
    routed message).
    """
    if not succs:
        return OWNER_SELF
    succ = succs[0]
    succ_id = succ[0]
    if own == succ_id or 0 < (key - own) & mask <= (succ_id - own) & mask:
        if shift is None or (succ_id >> shift) == (key >> shift):
            return OWNER_SUCC
        return OWNER_SELF
    if preds:
        pred = preds[0]
        pid = pred[0]
        if pid == own or 0 < (key - pid) & mask <= (own - pid) & mask:
            if shift is None or (own >> shift) == (key >> shift):
                return OWNER_SELF
            if pred[1] not in exclude:
                return (False, False, pred)
    dk = (key - own) & mask if key != own else mask + 1
    # First candidate with distance < dk  <=>  first key > -dk.
    i = bisect_right(cand_keys, -dk)
    if exclude:
        for j in range(i, len(cand_infos)):
            e = cand_infos[j]
            if e[1] not in exclude:
                return (False, False, e)
    elif i < len(cand_infos):
        return (False, False, cand_infos[i])
    if succ[1] not in exclude:
        return (False, False, succ)
    return NO_ROUTE


def merge_neighbors(cur, candidates, own: int, mask: int, limit: int, clockwise: bool):
    """Fold ``candidates`` into the neighbour list ``cur``: one entry per
    id (a candidate replaces a held entry: a fresher incarnation), never
    ``own``, nearest first — clockwise for successors, else
    counter-clockwise — cut to ``limit``.  ``None`` when that equals
    ``cur``, so a steady-state merge leaves version counters alone."""
    by_id = {e[0]: e for e in cur}
    for e in candidates:
        if e[0] != own:
            by_id[e[0]] = e
    if clockwise:
        new = sorted(by_id.values(), key=lambda e: (e[0] - own) & mask)[:limit]
    else:
        new = sorted(by_id.values(), key=lambda e: (own - e[0]) & mask)[:limit]
    return None if new == cur else new


def remove_ref(entries, ref):
    """``entries`` without those reached through ``ref``, or ``None``
    when there are none to remove."""
    kept = [e for e in entries if e[1] != ref]
    return kept if len(kept) != len(entries) else None


def remove_finger_ref(fingers: dict, ref):
    """:func:`remove_ref` for a ``{k: entry}`` finger table (order kept)."""
    kept = {k: e for k, e in fingers.items() if e[1] != ref}
    return kept if len(kept) != len(fingers) else None


def rejoin_contact(finger_refs, cached_refs, turn: int):
    """Whom a stranded node (no successor, no predecessor) re-joins
    through: its finger refs, then its cached refs not yet listed, taken
    round-robin by ``turn``; ``None`` when it knows nobody."""
    contacts = list(finger_refs)
    for ref in cached_refs:
        if ref not in contacts:
            contacts.append(ref)
    return contacts[turn % len(contacts)] if contacts else None


def stabilize_candidates(own: int, succ, succ_succs, succ_pred, mask: int) -> list:
    """What a stabilize reply offers the successor list: the successor,
    its successor list, and its predecessor iff that lies in the open
    interval ``(own, succ)`` (the whole ring minus ``own`` when
    ``succ`` is ``own``)."""
    candidates = [succ]
    candidates.extend(succ_succs)
    if succ_pred is not None:
        x = succ_pred[0]
        b = succ[0]
        if (x != own) if own == b else 0 < (x - own) & mask < (b - own) & mask:
            candidates.append(succ_pred)
    return candidates


def first_maintained_finger(own: int, succ_id: int, mask: int) -> int:
    """The lowest finger number a node maintains: finger ``k`` is
    covered by the successor list while ``2**k`` does not exceed the
    distance to the first successor, i.e. for ``k < span.bit_length()``."""
    return ((succ_id - own) & mask).bit_length()


def finger_entry_allowed(own: int, eid: int, shift, tmask: int) -> bool:
    """May node ``eid`` be stored as a finger of ``own``?  Never ``own``;
    in Verme never a node of ``own``'s type in a foreign section, which a
    displaced target can resolve to in sparse rings: it would hand a worm
    a cross-island link (the containment refusal, §4.3)."""
    if eid == own:
        return False
    if shift is None:
        return True
    es = eid >> shift
    os_ = own >> shift
    return es == os_ or (es & tmask) != (os_ & tmask)


def entries_for_key(own_entry, key: int, owner_self: bool, succs, preds, limit: int, shift):
    """The entries a lookup terminating at ``own_entry`` returns.

    Chord (``shift`` None): the owner and its successors — ``own_entry``
    first when it owns the key — cut to ``limit``.  Verme DHT lookups
    (``shift`` given): the in-section replica group (§5.2) — the owner
    and the neighbours of the key's section on the owner's side (its
    predecessors when ``own_entry`` owns the key, else ``own_entry``'s
    successors), or the bare owner when the key's section is empty.
    """
    if shift is None:
        if owner_self:
            entries = [own_entry]
            entries.extend(succs)
            return entries[:limit]
        return succs[:limit]
    section = key >> shift
    if owner_self:
        if (own_entry[0] >> shift) != section:
            return [own_entry]  # degenerate: the key's section is empty
        group = [own_entry]
        group.extend(p for p in preds if (p[0] >> shift) == section)
    else:  # route_next only answers so when succs[0] is in the section
        group = [s for s in succs if (s[0] >> shift) == section]
    return group[:limit]


def purpose_error(purpose, cert_id: int, key: int, is_finger_target, verify_dht, *args):
    """§4.5: the refusal (or ``None``) of a Verme lookup by certified id
    ``cert_id``.  A join must look up ``cert_id``, a finger lookup one of
    its targets (``is_finger_target(cert_id, key)``); a DHT lookup is
    ``verify_dht(*args)``'s to vet, if the layer installed one."""
    if purpose is LookupPurpose.JOIN:
        return None if cert_id == key else "join lookup for a foreign id"
    if purpose is LookupPurpose.FINGER:
        if is_finger_target(cert_id, key):
            return None
        return "key is not a finger target of the certified id"
    return None if verify_dht is None else verify_dht(*args)
