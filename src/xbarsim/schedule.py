"""Instruction scheduling: MVM coalescing and global reverse-post-order
linearization. Lowering the schedule to instructions, including loop
mode's looped fragment, is the compiler's.

Coalescing runs on the graph before linearization. It first fuses sub-MVMs
that are tiles of the same logical MVM on one core, then walks the graph
in reverse post-order fusing each remaining MVM with the first eligible
candidates (same core, distinct MVMUs, no dependence path between the
groups), updating dependence information after every fusion. A fused group
lowers to a single MVM instruction whose mask carries one bit per member.

Linearization produces one reverse post-order over the entire graph and
projects it onto each core/tile sequence. Linearizing the whole graph at
once keeps every per-actor order embedded in one global order, so blocking
cross-core communication cannot form a cycle.

Both passes work on one dependence graph, `_DepGraph`. Linearization
builds a fresh one and contracts each coalesced group into its lowest
tnode id: a scheduling unit is named by its lowest member, and the
orders break ties toward the lowest name.
"""

from collections import deque
from dataclasses import dataclass

UNSCHEDULED = ("input", "const")


@dataclass
class LinearSchedule:
    units: list                # global order; each unit is its ascending
                               # tnode ids, >1 only for coalesced MVMs
    coalesce_groups: int = 0
    maxlive: int = 0


class ScheduleError(Exception):
    pass


def _rpo_order(ids, preds, succs):
    """Reverse post-order linearization: depth-first from each sink through
    its operands, emitting an operation only after everything it consumes
    (the reverse of the visit order). Produced values are consumed as soon
    as their consumer's remaining operands allow, which keeps few values
    live at a time. Sinks and operands are taken in ascending id, so the
    order is deterministic with ties broken toward the lowest node id.
    ids are all the nodes of the graph that preds and succs describe."""
    sinks = [i for i in sorted(ids) if not succs[i]]
    seen = set()
    order = []
    for sink in sinks:      # no node's operand, so no earlier walk saw it
        seen.add(sink)
        stack = [(sink, iter(sorted(preds[sink])))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(sorted(preds[child]))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    if len(order) != len(ids):
        raise ScheduleError("dependence cycle in scheduling input")
    pos = {n: i for i, n in enumerate(order)}
    for n in ids:
        for p in preds[n]:
            if pos[p] > pos[n]:
                raise ScheduleError("dependence cycle in scheduling input")
    return order


def _kahn_fifo(ids, preds, succs):
    """Breadth-first topological order: the naive baseline that produces
    values eagerly before consuming them."""
    indeg = {i: len(preds[i]) for i in ids}
    q = deque(i for i in sorted(ids) if indeg[i] == 0)
    order = []
    while q:
        n = q.popleft()
        order.append(n)
        for s in sorted(succs[n]):
            indeg[s] -= 1
            if indeg[s] == 0:
                q.append(s)
    if len(order) != len(ids):
        raise ScheduleError("dependence cycle in scheduling input")
    return order


def max_live(order, preds, succs):
    """Peak number of unit outputs live between steps of an order of all
    units: a value is born when produced, dies when its last consumer runs."""
    last_use = {}
    for i, u in enumerate(order):
        for p in preds[u]:
            last_use[p] = i
    live = 0
    peak = 0
    for i, u in enumerate(order):
        live -= sum(1 for p in preds[u] if last_use.get(p) == i)
        if succs[u]:
            live += 1
        peak = max(peak, live)
    return peak


# ---------------------------------------------------------------------------
# MVM coalescing
# ---------------------------------------------------------------------------

def _core_of(tg, tid):
    return tg.tnodes[tid].place


def _mvmu_of(tg, tid):
    return tg.matrix_tiles[tg.tnodes[tid].matrix].mvmu[2]


class _DepGraph:
    """Mutable dependence graph over schedulable tnodes (inputs and consts
    are memory-resident and carry no edges); fusion contracts the fused
    node into the group leader."""

    def __init__(self, tg):
        self.preds = {n.id: set() for n in tg.tnodes
                      if n.kind not in UNSCHEDULED}
        self.succs = {i: set() for i in self.preds}
        for i, preds in self.preds.items():
            for p in tg.tnodes[i].inputs:
                if p in self.preds and p != i:
                    preds.add(p)
                    self.succs[p].add(i)

    def reaches(self, a, b):
        if a == b:
            return True
        stack = [a]
        seen = {a}
        while stack:
            x = stack.pop()
            for s in self.succs[x]:
                if s == b:
                    return True
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    def contract(self, lead, other):
        for p in self.preds.pop(other):
            self.succs[p].discard(other)
            if p != lead:
                self.preds[lead].add(p)
                self.succs[p].add(lead)
        for s in self.succs.pop(other):
            self.preds[s].discard(other)
            if s != lead:
                self.succs[lead].add(s)
                self.preds[s].add(lead)


def coalesce_mvms(tg, machine):
    """Fusion groups of independent MVM tnodes (each a list of tnode ids).

    Pass 1 groups tiles of the same logical MVM (and window) that landed on
    one core; pass 2 walks the graph in reverse post-order and fuses each
    remaining MVM with the first eligible candidates in traversal order.
    """
    m_per_core = machine.mvmus_per_core
    dg = _DepGraph(tg)
    group_of = {}
    groups = []

    def members(t):
        return group_of.get(t, [t])

    def mvmus(t):
        return {_mvmu_of(tg, x) for x in members(t)}

    def fuse(lead, other):
        g = group_of.get(lead)
        if g is None:
            g = [lead]
            groups.append(g)
            group_of[lead] = g
        g.append(other)
        group_of[other] = g
        dg.contract(lead, other)

    def eligible(lead, cand):
        return (len(members(lead)) < m_per_core
                and cand not in group_of
                and _core_of(tg, cand) == _core_of(tg, lead)
                and _mvmu_of(tg, cand) not in mvmus(lead)
                and not dg.reaches(lead, cand)
                and not dg.reaches(cand, lead))

    # pass 1: tiles of the same large MVM operation
    by_key = {}
    for n in tg.tnodes:
        if n.kind == "mvm":
            by_key.setdefault((n.orig, n.win, n.place), []).append(n.id)
    for key in sorted(by_key, key=lambda k: by_key[k][0]):
        lead, *rest = by_key[key]
        for cand in rest:
            if eligible(lead, cand):
                fuse(lead, cand)

    # pass 2: reverse post-order over the contracted graph
    order = _rpo_order(list(dg.preds), dg.preds, dg.succs)
    mvm_order = [t for t in order if tg.tnodes[t].kind == "mvm"]
    for lead in mvm_order:
        if lead in group_of and group_of[lead][0] != lead:
            continue   # absorbed into an earlier group
        for cand in mvm_order:
            if len(members(lead)) >= m_per_core:
                break
            if eligible(lead, cand):
                fuse(lead, cand)
    return [g for g in groups if len(g) > 1]


def check_groups_independent(tg, groups):
    """Dependence oracle: no member of a group may reach another member,
    share a core boundary, or share an MVMU. It walks a fresh dependence
    graph, which no coalescing contraction has touched."""
    reaches = _DepGraph(tg).reaches
    for g in groups:
        for i, a in enumerate(g):
            for b in g[i + 1:]:
                if reaches(a, b) or reaches(b, a):
                    return False
                if _core_of(tg, a) != _core_of(tg, b):
                    return False
                if _mvmu_of(tg, a) == _mvmu_of(tg, b):
                    return False
    return True


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------

def linearize(tg, groups=None, naive=False):
    """Global linearization -> LinearSchedule with per-actor projections.
    Each coalesced group is contracted into its lowest member, which names
    the group's unit."""
    dg = _DepGraph(tg)
    members = {i: [i] for i in dg.preds}
    for g in groups or ():
        lead = min(g)
        members[lead] = sorted(g)
        for t in g:
            if t != lead:
                dg.contract(lead, t)
                del members[t]
    ids = sorted(members)
    order = _kahn_fifo(ids, dg.preds, dg.succs) if naive \
        else _rpo_order(ids, dg.preds, dg.succs)
    sched = LinearSchedule(units=[members[i] for i in order])
    sched.coalesce_groups = sum(1 for m in members.values() if len(m) > 1)
    sched.maxlive = max_live(order, dg.preds, dg.succs)
    return sched

