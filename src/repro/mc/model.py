"""Guarded-action transition model of the two-mode protocol.

Each action mirrors one *atomic* operation of
:class:`~repro.protocol.stenstrom.StenstromProtocol` -- a processor
reference (`read`/`write`), an explicit eviction, a mode switch -- or a
fault-recovery transition from PR 3's recovery layer: degradation to
memory-direct service, and the partial delivery / per-destination
re-send / budget-exhaustion lifecycle of a distributed-write update
multicast.  Each §2.2 step (items 1-7 plus the documented deviations)
is defined once on each side, under the same name where the concrete
protocol has one, so the differential fuzzer (:mod:`repro.mc.diff`)
can demand *lockstep equality* between the two, not mere similarity:

=================================  ===============================
concrete (``StenstromProtocol``)   model
=================================  ===============================
``_read`` / ``_read_body``         ``_apply_read``
``_write`` / ``_write_body``       ``_apply_write``
``evict`` / ``_evict_body``        ``_apply_evict``
``set_mode`` / ``_set_mode_body``  ``_apply_set_mode``
``_exclusive_load`` (2a, 4a)       ``_exclusive_load``
``_serve_read_at_owner`` (2b)      ``_serve_read_at_owner``
``_perform_owner_write`` (3a-c)    ``_perform_owner_write``
``_acquire_ownership`` (3d/4/5b)   ``_acquire_ownership``
``_ensure_owner``                  ``_ensure_owner``
``_replace_unowned`` (5c)          ``_replace_unowned``
``_degrade_block``                 ``_degrade``
``_with_recovery``                 ``degrade``, ``write_partial``,
                                   ``redeliver``, ``drop_round``
=================================  ===============================

All functions are pure: they take an :class:`~repro.mc.state.MCState`
and return a new one plus an observation dict (currently the freshness
of the value a read observed -- the model's analogue of the simulator's
shadow-memory check).

Two multicasts besides the write update (OWNER_UPDATE, INVALIDATE) can
also exhaust their re-send budgets in the concrete protocol; their
recovery collapses to exactly the ``degrade`` action here, so the model
covers them without separate in-flight machinery.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.mc.state import (
    COPY,
    OWNER,
    PLACEHOLDER,
    BlockState,
    Copy,
    Inflight,
    MCState,
    empty_block,
)


class ModelConfig(NamedTuple):
    """Parameters of one model instance.

    ``default_dw`` selects the mode blocks enter on first load (the
    protocol's ``default_mode``); ``max_retries`` is the multicast
    re-send budget (exhaustion degrades the block); ``faults`` enables
    the fault actions; ``evicts`` / ``set_modes`` gate the corresponding
    reference-level actions (useful for slicing the state space).
    """

    n_nodes: int
    n_blocks: int
    default_dw: bool = False
    max_retries: int = 1
    faults: bool = True
    evicts: bool = True
    set_modes: bool = True


def initial_state(cfg: ModelConfig) -> MCState:
    """The machine after reset: every block unowned, memory fresh."""
    return MCState(
        blocks=tuple(empty_block(cfg.n_nodes) for _ in range(cfg.n_blocks)),
        inflight=None,
    )


# ---------------------------------------------------------------------------
# Small helpers over immutable states
# ---------------------------------------------------------------------------


def _set_copy(
    copies: tuple[Copy | None, ...], node: int, copy: Copy | None
) -> tuple[Copy | None, ...]:
    return copies[:node] + (copy,) + copies[node + 1 :]


def _with_block(state: MCState, block: int, bs: BlockState) -> MCState:
    blocks = state.blocks[:block] + (bs,) + state.blocks[block + 1 :]
    return MCState(blocks=blocks, inflight=state.inflight)


def _add_present(present: tuple[int, ...], node: int) -> tuple[int, ...]:
    if node in present:
        return present
    return tuple(sorted(present + (node,)))


def _drop_present(present: tuple[int, ...], node: int) -> tuple[int, ...]:
    return tuple(n for n in present if n != node)


def _valid(copy: Copy | None) -> bool:
    return copy is not None and copy.kind != PLACEHOLDER


# ---------------------------------------------------------------------------
# Effect helpers (transcriptions of the concrete protocol's paths)
# ---------------------------------------------------------------------------


def _exclusive_load(
    cfg: ModelConfig, bs: BlockState, node: int
) -> BlockState:
    """2(a)/4(a): no cached copy anywhere; load from memory, own it."""
    copy = Copy(OWNER, ptr=node, fresh=bs.mem_fresh, modified=False)
    return bs._replace(
        owner=node,
        dw=cfg.default_dw,
        present=(node,),
        copies=_set_copy(bs.copies, node, copy),
    )


def _serve_read_at_owner(
    bs: BlockState, node: int
) -> tuple[BlockState, bool]:
    """2(b): the owner serves a remote read miss per its mode.

    Returns the new block state and the freshness of the value the
    requester observed (the owner's copy in either mode).
    """
    owner = bs.owner
    assert owner is not None
    owner_copy = bs.copies[owner]
    assert owner_copy is not None
    present = _add_present(bs.present, node)
    if bs.dw:
        # 2(b)i: a whole copy ships; the requester becomes UnOwned.
        copy = Copy(COPY, ptr=owner, fresh=owner_copy.fresh, modified=False)
    else:
        # 2(b)ii: only the datum travels; the requester keeps an
        # invalid placeholder naming the owner.
        copy = Copy(PLACEHOLDER, ptr=owner, fresh=False, modified=False)
    return (
        bs._replace(present=present, copies=_set_copy(bs.copies, node, copy)),
        owner_copy.fresh,
    )


def _acquire_ownership(
    cfg: ModelConfig, bs: BlockState, node: int
) -> BlockState:
    """3(d), 4(a)/(b), the 5(b) hand-off and the ``set_mode`` prologue.

    One rule decides what moves: in DW mode a requester holding a valid
    copy receives only the state field (its copy has every write); in
    every other case the owner's data moves too, and in GR mode the
    placeholders repoint at ``node`` and the old owner keeps one.
    """
    old = bs.owner
    if old is None:
        # 4(a): no cached copy anywhere.
        return _exclusive_load(cfg, bs, node)
    assert old != node
    old_copy = bs.copies[old]
    assert old_copy is not None
    node_copy = bs.copies[node]
    if bs.dw and _valid(node_copy):
        fresh = node_copy.fresh
    else:
        fresh = old_copy.fresh
    present = _add_present(bs.present, node)
    copies = bs.copies
    if bs.dw:
        copies = _set_copy(copies, old, Copy(COPY, node, old_copy.fresh, False))
    else:
        for member in present:
            if member in (old, node):
                continue
            member_copy = copies[member]
            if member_copy is not None:
                copies = _set_copy(
                    copies, member, member_copy._replace(ptr=node)
                )
        copies = _set_copy(copies, old, Copy(PLACEHOLDER, node, False, False))
    copies = _set_copy(
        copies, node, Copy(OWNER, node, fresh, old_copy.modified)
    )
    return bs._replace(owner=node, present=present, copies=copies)


def _perform_owner_write(
    bs: BlockState, node: int, missed: tuple[int, ...] = ()
) -> BlockState:
    """3(a)/3(b)/3(c): write at the owning cache, distributing if DW.

    ``missed`` (fault action only) names the distributed-write
    destinations the update multicast failed to reach: their copies go
    stale instead of fresh.
    """
    assert bs.owner == node
    copies = _set_copy(
        bs.copies, node, Copy(OWNER, ptr=node, fresh=True, modified=True)
    )
    if bs.dw:
        for other in bs.present:
            if other == node:
                continue
            other_copy = copies[other]
            assert other_copy is not None and other_copy.kind == COPY
            copies = _set_copy(
                copies, other, other_copy._replace(fresh=other not in missed)
            )
    return bs._replace(copies=copies, mem_fresh=False)


def _ensure_owner(cfg: ModelConfig, bs: BlockState, node: int) -> BlockState:
    """Make ``node`` the owner (the ``set_mode`` prologue; ``write``'s too)."""
    if _valid(bs.copies[node]) and bs.owner == node:
        return bs
    return _acquire_ownership(cfg, bs, node)


def _replace_unowned(bs: BlockState, node: int) -> BlockState:
    """5(c): clear our present flag at the owner; drop the entry."""
    present = _drop_present(bs.present, node)
    return bs._replace(
        present=present, copies=_set_copy(bs.copies, node, None)
    )


def _degrade(bs: BlockState, n_nodes: int) -> BlockState:
    """Dead-route / exhausted-budget retreat: memory-direct forever.

    Writes back the freshest copy (the owner's, when modified), purges
    every entry and the ownership record, and marks the block degraded.
    """
    mem_fresh = bs.mem_fresh
    if bs.owner is not None:
        owner_copy = bs.copies[bs.owner]
        if owner_copy is not None and owner_copy.modified:
            mem_fresh = owner_copy.fresh
    return BlockState(
        owner=None,
        dw=False,
        present=(),
        copies=(None,) * n_nodes,
        mem_fresh=mem_fresh,
        degraded=True,
    )


# ---------------------------------------------------------------------------
# Action enumeration
# ---------------------------------------------------------------------------


def enabled_actions(cfg: ModelConfig, state: MCState) -> list[tuple]:
    """Every action enabled in ``state``, in deterministic order.

    While an update multicast is in flight the reference has not
    completed, so only the recovery-layer actions are enabled
    (re-delivery to one missed destination, or another fully lost
    round); this is the model-level image of the atomic-reference
    discipline.
    """
    inflight = state.inflight
    if inflight is not None:
        actions: list[tuple] = [
            ("redeliver", inflight.block, dest) for dest in inflight.missed
        ]
        actions.append(("drop_round", inflight.block))
        return actions

    actions = []
    for block, bs in enumerate(state.blocks):
        for node in range(cfg.n_nodes):
            actions.append(("read", node, block))
            actions.append(("write", node, block))
        if cfg.evicts:
            for node in range(cfg.n_nodes):
                if bs.copies[node] is not None:
                    actions.append(("evict", node, block))
        if cfg.set_modes and not bs.degraded:
            for node in range(cfg.n_nodes):
                actions.append(("set_mode", node, block, True))
                actions.append(("set_mode", node, block, False))
        if cfg.faults and not bs.degraded:
            actions.append(("degrade", block))
            if (
                bs.owner is not None
                and bs.dw
                and len(bs.present) > 1
            ):
                owner = bs.owner
                others = [n for n in bs.present if n != owner]
                # Every non-empty subset of the update's destinations
                # can be the missed set of a partial delivery.
                for mask in range(1, 1 << len(others)):
                    missed = tuple(
                        others[i]
                        for i in range(len(others))
                        if mask >> i & 1
                    )
                    actions.append(("write_partial", owner, block, missed))
    return actions


# ---------------------------------------------------------------------------
# Action application
# ---------------------------------------------------------------------------


def apply(cfg: ModelConfig, state: MCState, action: tuple) -> tuple[MCState, dict]:
    """Apply ``action`` to ``state``; returns ``(new_state, observation)``.

    The observation dict reports what a checker cares about beyond the
    state itself: ``read_fresh`` (did a read observe the most recent
    write?) and ``degraded`` (did this action degrade a block?).
    """
    name = action[0]
    if name == "read":
        return _apply_read(cfg, state, action[1], action[2])
    if name == "write":
        return _apply_write(cfg, state, action[1], action[2])
    if name == "evict":
        return _apply_evict(cfg, state, action[1], action[2])
    if name == "set_mode":
        return _apply_set_mode(cfg, state, action[1], action[2], action[3])
    if name == "degrade":
        bs = state.blocks[action[1]]
        new = _with_block(state, action[1], _degrade(bs, cfg.n_nodes))
        return new, {"degraded": action[1]}
    if name == "write_partial":
        return _apply_write_partial(cfg, state, action[1], action[2], action[3])
    if name == "redeliver":
        return _apply_redeliver(state, action[2])
    if name == "drop_round":
        return _apply_drop_round(cfg, state)
    raise ValueError(f"unknown model action {action!r}")


def _apply_read(
    cfg: ModelConfig, state: MCState, node: int, block: int
) -> tuple[MCState, dict]:
    assert state.inflight is None
    bs = state.blocks[block]
    if bs.degraded:
        return state, {"read_fresh": bs.mem_fresh}
    copy = bs.copies[node]
    if _valid(copy):
        # Item 1: read hit, no messages, no state change.
        return state, {"read_fresh": copy.fresh}
    if bs.owner is None:
        # 2(a), reached directly or through the placeholder chain's
        # NAK fallback: exclusive load from memory.
        new_bs = _exclusive_load(cfg, bs, node)
        return _with_block(state, block, new_bs), {"read_fresh": bs.mem_fresh}
    # 2(b), via the home module or the OWNER-field bypass: the owner
    # serves the miss per its mode.
    new_bs, fresh = _serve_read_at_owner(bs, node)
    return _with_block(state, block, new_bs), {"read_fresh": fresh}


def _apply_write(
    cfg: ModelConfig, state: MCState, node: int, block: int
) -> tuple[MCState, dict]:
    assert state.inflight is None
    bs = state.blocks[block]
    if bs.degraded:
        # Memory-direct: the write lands in memory, which is therefore
        # the (new) most recent value.
        return _with_block(state, block, bs._replace(mem_fresh=True)), {}
    # A write hit on an UnOwned copy (3d) or a write miss (4) moves
    # ownership exactly as the ``set_mode`` prologue does.
    bs = _perform_owner_write(_ensure_owner(cfg, bs, node), node)
    return _with_block(state, block, bs), {}


def _apply_evict(
    cfg: ModelConfig, state: MCState, node: int, block: int
) -> tuple[MCState, dict]:
    assert state.inflight is None
    bs = state.blocks[block]
    copy = bs.copies[node]
    assert copy is not None
    if not _valid(copy) or bs.owner != node:
        # 5(c): placeholders and UnOwned copies just clear their flag.
        return _with_block(state, block, _replace_unowned(bs, node)), {}
    if bs.present == (node,):
        # 5(a): exclusive owner -- write back if modified, then the
        # block store forgets the block.
        mem_fresh = copy.fresh if copy.modified else bs.mem_fresh
        new_bs = bs._replace(
            owner=None,
            dw=False,
            present=(),
            copies=_set_copy(bs.copies, node, None),
            mem_fresh=mem_fresh,
        )
        return _with_block(state, block, new_bs), {}
    # 5(b): hand ownership to the lowest-numbered present candidate
    # (the concrete protocol offers in sorted order and every vector
    # member holds an entry at quiescent points), then retire as 5(c).
    candidate = min(n for n in bs.present if n != node)
    bs = _acquire_ownership(cfg, bs, candidate)
    bs = _replace_unowned(bs, node)
    return _with_block(state, block, bs), {}


def _apply_set_mode(
    cfg: ModelConfig, state: MCState, node: int, block: int, to_dw: bool
) -> tuple[MCState, dict]:
    assert state.inflight is None
    bs = state.blocks[block]
    if bs.degraded:
        # A degraded block has no owner and no modes; must not re-cache.
        return state, {}
    bs = _ensure_owner(cfg, bs, node)
    if to_dw and not bs.dw:
        # Item 6: the placeholders the vector tracked hold no copies,
        # so the vector resets to the owner alone.
        bs = bs._replace(dw=True, present=(node,))
    elif not to_dw and bs.dw:
        # Item 7: invalidate every copy; each becomes a placeholder
        # naming the owner; the vector now records exactly those.
        copies = bs.copies
        for other in bs.present:
            if other == node:
                continue
            copies = _set_copy(
                copies, other, Copy(PLACEHOLDER, node, False, False)
            )
        bs = bs._replace(dw=False, copies=copies)
    return _with_block(state, block, bs), {}


def _apply_write_partial(
    cfg: ModelConfig,
    state: MCState,
    node: int,
    block: int,
    missed: tuple[int, ...],
) -> tuple[MCState, dict]:
    assert state.inflight is None
    bs = state.blocks[block]
    assert bs.owner == node and bs.dw and missed
    bs = _perform_owner_write(bs, node, missed=missed)
    new_state = _with_block(state, block, bs)
    # The initial delivery round failed for ``missed``; the concrete
    # recovery layer has counted one round and will re-send -- unless
    # the budget is already spent.
    if 1 > cfg.max_retries:
        final = _with_block(
            new_state, block, _degrade(new_state.blocks[block], cfg.n_nodes)
        )
        return final, {"degraded": block, "retry_exhausted": missed}
    return (
        MCState(
            blocks=new_state.blocks,
            inflight=Inflight(
                block=block, writer=node, missed=tuple(sorted(missed)), rounds=1
            ),
        ),
        {},
    )


def _apply_redeliver(state: MCState, dest: int) -> tuple[MCState, dict]:
    inflight = state.inflight
    assert inflight is not None and dest in inflight.missed
    bs = state.blocks[inflight.block]
    copy = bs.copies[dest]
    assert copy is not None and copy.kind == COPY
    bs = bs._replace(
        copies=_set_copy(bs.copies, dest, copy._replace(fresh=True))
    )
    missed = tuple(d for d in inflight.missed if d != dest)
    new_state = _with_block(state, inflight.block, bs)
    if missed:
        return (
            MCState(
                blocks=new_state.blocks,
                inflight=inflight._replace(missed=missed),
            ),
            {},
        )
    # Every copy reached: the reference completes.
    return MCState(blocks=new_state.blocks, inflight=None), {}


def _apply_drop_round(
    cfg: ModelConfig, state: MCState
) -> tuple[MCState, dict]:
    inflight = state.inflight
    assert inflight is not None
    rounds = inflight.rounds + 1
    if rounds > cfg.max_retries:
        # Budget exhausted mid-update: the partially delivered write
        # cannot be aborted, so the block degrades (and the freshest
        # copy -- the writer's -- reaches memory first).
        bs = _degrade(state.blocks[inflight.block], cfg.n_nodes)
        new_state = _with_block(state, inflight.block, bs)
        return (
            MCState(blocks=new_state.blocks, inflight=None),
            {"degraded": inflight.block, "retry_exhausted": inflight.missed},
        )
    return (
        MCState(
            blocks=state.blocks, inflight=inflight._replace(rounds=rounds)
        ),
        {},
    )
