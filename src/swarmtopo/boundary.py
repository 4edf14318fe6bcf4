"""Boundary recognition: density estimation, threshold classification,
component formation over 2-hop linkage, distance floods, Voronoi flags,
token loops, and the alpha sweep.

Every distributed operation here has a centralized twin (prefix
``central_``) used as an executable oracle; the two must agree exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import geometry
from .netgraph import DegreeHistogram, UnitDiskGraph, csr_rows, hop_bfs
from .simkernel import Kind, RoundKernel, RunResult, first_hits, run_protocol

# message kinds (disjoint from the convergetree range)
K_BND = Kind("bnd", 10)                                 # boundary membership announcement
K_MC = Kind("mc", 11, ("root",))                        # member candidate flood
K_MF = Kind("mf", 12, ("root", "origin"))               # relay forward of the best candidate
K_JOIN = Kind("join", 13, ("root", "parent", "via"))    # member join notice, naming its relay
K_JAGG = Kind("jagg", 14, (), ("member", "parent"))     # a relay's aggregate of the joins naming it
K_NEAR = Kind("near", 15, ("dest",))                    # near node registering at a member
K_UP = Kind("up", 16, ("size", "near"))                 # component convergecast
K_UPF = Kind("upf", 17, ("child", "size", "near"))      # relayed convergecast entry
K_DIST = Kind("dist", 19, ("root",), ("anchor_q",))     # distance wave; the nearest's anchor only
K_TQ = Kind("tq", 20, ("comp", "seq"), ("nbr",))        # token pass query, the holder's neighbours
K_TQF = Kind("tqf", 21, ("comp", "seq", "holder"), ("nbr",))                 # relayed query
K_TR = Kind("tr", 22, ("comp", "seq", "score", "isroot", "excl", "via"))     # candidate reply
K_TRF = Kind("trf", 23, ("cand", "comp", "seq", "score", "isroot", "excl"))  # relayed reply
K_TC = Kind("tc", 24, ("comp", "seq", "succ", "via", "steps"))  # pass choice, passes left to close
K_TCF = Kind("tcf", 25, ("holder", "comp", "seq", "succ", "via", "steps"))   # relayed choice
K_TB = Kind("tb", 28, ("comp", "seq", "dest", "via"))   # backtrack request to previous holder
K_TBF = Kind("tbf", 29, ("comp", "seq", "dest"))        # relayed backtrack request
K_TRB = Kind("trb", 30, ("comp", "seq"))                # rollback: un-exclude seq's candidates
K_TRBF = Kind("trbf", 31, ("comp", "seq"))              # relayed rollback

FRAC_SCALE = 1 << 16  # fractional distances travel as 16-bit fixed point
SWEEP_PIECE = 1 << 20  # edges the alpha sweep merges per `connected_components` call
_UNSET = np.iinfo(np.int64).max  # a scatter-min slot before its first value


class DegenerateHistogram(ValueError):
    """Histogram unusable for density estimation."""


class NodeClass(enum.IntEnum):
    INTERIOR = 0
    NEAR_BOUNDARY = 1
    BOUNDARY = 2


@dataclass(frozen=True)
class DensityEstimate:
    mu_est: int
    delta: int
    mu_analytic: float | None = None


@dataclass(frozen=True)
class BoundaryComponent:
    component_id: int          # the root's node ID
    members: tuple[int, ...]
    size: int
    near_set_size: int         # |members ∪ neighbors-of-members|

    def ratio(self) -> float:
        return self.near_set_size / self.size


@dataclass(frozen=True)
class TokenLoop:
    component_id: int
    members: tuple[int, ...]   # closed: first == last == component root
    walk: tuple[int, ...]      # members with 2-hop relays spliced in


@dataclass(frozen=True)
class AlphaSweep:
    grid: tuple[float, ...]
    component_counts: tuple[int, ...]
    boundary_counts: tuple[int, ...]  # nodes of degree <= the threshold at each alpha
    plateau: tuple[float, float, int] | None  # (alpha_lo, alpha_hi, count)
    alpha_star: float | None


def default_alpha() -> float:
    """Fallback threshold factor, just above the 3/4 bound that covers
    corner angles between pi/2 and 3pi/2."""
    return 0.77


def threshold_units(alpha: float, mu_est: int) -> int:
    """Integer degree threshold equivalent to |N(v)| <= alpha * mu_est."""
    return int(math.floor(alpha * mu_est))


# --------------------------------------------------------------------------
# density estimation
# --------------------------------------------------------------------------

def _bin_representatives(delta: int, bins: int) -> np.ndarray:
    """Rounded midpoint of each bin's integer degree range.

    Bin b holds the integer degrees d with d*bins//delta == b, so its
    representative is the midpoint of [ceil(b*delta/bins), hi] where hi is
    the largest degree mapping to b; the exact-range midpoint makes a
    single-degree census estimate that degree exactly.
    """
    b = np.arange(bins)
    lo = np.ceil(b * delta / bins - 1e-12)
    hi = np.ceil((b + 1) * delta / bins - 1e-12) - 1
    hi[-1] = delta
    return np.floor((lo + hi) / 2 + 0.5)


def estimate_mu(hist: DegreeHistogram, mu_analytic: float | None = None) -> DensityEstimate:
    """Modal neighborhood size, restricted to bins above delta/2.

    The degree census overlays an interior peak near the unconstrained mean
    with a boundary ramp reaching down to half of it; the upper-half
    restriction keeps the mode on the interior peak.  Ties go to the higher
    bin; the representative degree is the midpoint of the bin's integer
    degree range, rounded.
    """
    if hist.delta < 4:
        raise DegenerateHistogram(f"max degree {hist.delta} < 4")
    reps = _bin_representatives(hist.delta, hist.bin_count)
    eligible = reps > hist.delta / 2
    if not (np.asarray(hist.counts)[eligible] > 0).any():
        raise DegenerateHistogram("all histogram mass at or below delta/2")
    cand = np.where(eligible, hist.counts, -1)
    best = len(cand) - 1 - int(np.argmax(cand[::-1]))
    return DensityEstimate(mu_est=int(reps[best]), delta=hist.delta,
                           mu_analytic=mu_analytic)


# --------------------------------------------------------------------------
# classification: B(alpha) plus near-boundary announcement
# --------------------------------------------------------------------------

class _ClassifyRounds(RoundKernel):
    """Nodes of degree <= threshold announce themselves in round 0 (an
    isolated one too, to nobody); non-boundary hearers become NEAR, piece
    by piece as the announcements are delivered."""

    def __init__(self, g: UnitDiskGraph, threshold: int):
        super().__init__(g)
        self.cls = np.zeros(self.size, dtype=np.int8)
        self.bnd = self.ids[self.degree(self.ids) <= threshold]

    def step(self, rnd: int) -> list:
        if rnd == 0:
            self.cls[self.bnd] = NodeClass.BOUNDARY
            return [(K_BND, self.bnd)]

        def hear(v):
            # NEAR_BOUNDARY lies between INTERIOR and BOUNDARY
            self.cls[v] = np.maximum(self.cls[v], NodeClass.NEAR_BOUNDARY)
            return v[:0]

        self.deliveries(self.bnd, keep=hear)
        return []


def classify(g: UnitDiskGraph, threshold: int,
             trace=None) -> tuple[np.ndarray, RunResult]:
    """Distributed B(alpha) rule: BOUNDARY iff degree <= threshold, one
    announcement per boundary node, hearers become NEAR_BOUNDARY."""
    kernel = _ClassifyRounds(g, threshold)
    res = run_protocol(kernel, trace=trace)
    return kernel.cls, res


def central_classify(g: UnitDiskGraph, threshold: int) -> np.ndarray:
    """Centralized twin of classify()."""
    deg = g.degrees()
    classes = np.zeros(g.max_id + 1, dtype=np.int8)
    bnd = np.zeros(g.max_id + 1, dtype=bool)
    bnd[g.ids] = deg[g.ids] <= threshold  # unused IDs are no nodes, not BOUNDARY
    classes[bnd] = int(NodeClass.BOUNDARY)
    bidx = np.flatnonzero(bnd)
    near = np.zeros(g.max_id + 1, dtype=bool)
    for v in bidx:
        near[g.neighbors(v)] = True
    near &= ~bnd
    classes[near] = int(NodeClass.NEAR_BOUNDARY)
    return classes


# --------------------------------------------------------------------------
# component formation (2-hop linkage, max-ID roots)
# --------------------------------------------------------------------------

class _CompFloodRounds(RoundKernel):
    """Members flood the max member ID of their 2-hop-linked component.

    Non-members relay: they re-broadcast the best candidate heard directly
    from a member whenever it improves, which realizes exactly the
    hop-distance-2 linkage without letting floods travel further.

    A node starts from what classify's K_BND told it: its largest member
    neighbour and how many it has.  A member below that neighbour takes it
    as root and parent and announces it in round 0 (K_MC); a relay starts
    from it and forwards it in round 0 only if it has two member
    neighbours or more (the one member it would tell already knows).
    Later a member takes the largest root it hears, through K_MC or K_MF,
    if it beats its own, with the root's origin as parent and, through
    K_MF, the relay as `via`; a relay reads only K_MC and forwards a better
    root with its origin.  Ties go to the smallest sender (`first_hits`).
    A relay keeps the best root it forwarded in its `root` slot;
    `_flood_components` clears it after the run.  Every round is settled
    over its `deliveries` alone, so the only ID-indexed state is `fields`.
    """

    def __init__(self, g: UnitDiskGraph, member: np.ndarray):
        super().__init__(g)
        self.member = member
        self.fields = np.zeros((3, self.size), dtype=np.int64)
        self.root, self.parent, self.via = self.fields
        ids = self.ids
        m = ids[member[ids]]
        self.root[m] = m

        def hear(v, r):
            # every node's largest member neighbour goes straight into its
            # root row (a member keeps its own ID if larger); a relay counts
            # its member neighbours in its `via` slot, which a relay never uses
            np.maximum.at(self.root, v, r)
            np.add.at(self.via, v[~member[v]], 1)
            return v[:0]  # and keeps none

        self.deliveries(m, m, keep=hear)
        mem = member[ids]
        up = mem & (self.root[ids] > ids)
        send = ids[up | (~mem & (self.via[ids] > 1))]
        self.via[ids[~mem]] = 0
        self.parent[ids[up]] = self.root[ids[up]]
        top = self.root[send]
        # the round's (sender, root, origin); a member is its own origin
        self.out = send, top, np.where(member[send], send, top)

    def step(self, rnd: int) -> list:
        if rnd:
            self.out = self._settle(*self.out)
        s = self.out[0]
        mc = self.member[s]
        return [(K_MC, s[mc]), (K_MF, s[~mc])]

    def _settle(self, s, r, o) -> tuple:
        member, root = self.member, self.root

        def beats(v, r, o, via):
            # a root above v's own, a relay's only from members (via 0),
            # lands in the root row; pieces run in sender order, so one
            # that an earlier piece's equal root beat is not kept
            up = np.flatnonzero((r > root[v]) & ((via == 0) | member[v]))
            np.maximum.at(root, v[up], r[up])
            return up

        v, r, o, via = self.deliveries(s, r, o, np.where(member[s], 0, s), keep=beats)
        # the first sender of the largest root wins; the parent row, lent
        # to `first_hits`, is rewritten at a member and unused at a relay
        i = np.flatnonzero(r == root[v])
        i = i[first_hits(v[i], self.parent)]
        i = i[np.argsort(v[i])]
        v, r, o, via = v[i], r[i], o[i], via[i]
        mem = member[v]
        self.parent[v] = np.where(mem, o, 0)
        self.via[v[mem]] = via[mem]
        return v, r, np.where(mem, v, o)

    def state_name(self, v: int) -> str:
        return f"compflood(member={bool(self.member[v])})"


def _flood_components(g: UnitDiskGraph, member: np.ndarray, max_rounds: int = 100_000,
                      trace=None) -> tuple[np.ndarray, RunResult]:
    """The component flood: per-ID root, parent and via as the rows of one
    array, and the run."""
    kernel = _CompFloodRounds(g, member)
    res = run_protocol(kernel, max_rounds, trace)
    kernel.root[g.ids[~member[g.ids]]] = 0  # a relay's forwarded root names no component
    return kernel.fields, res


class _CompOrgRounds(RoundKernel):
    """Join and size/near-count convergecast for every component at once,
    from the flood's per-ID `root`, `parent` and `via`.  Only members and
    the relays they name as `via` forward anything.

    Rounds 0-1 have fixed timing.  Round 0: members announce (root, parent,
    via) (JOIN).  Round 1: every `via` relays the (member, parent) of the
    JOINs that name it, once (JAGG), so a member hears of every child: the
    child's parent is its neighbour or, exactly when it is not, its `via`'s.
    In the same round every non-member that heard a JOIN registers (NEAR)
    at its smallest member neighbour: under 2-hop linkage no closed
    neighbourhood holds members of two components, so one NEAR per node
    counts each near set, and every member that hears a relay's JAGG
    already holds the root of the members it names.
    From round 2 a member reports its subtree's size and near count to its
    parent (UP) once every child has; the child's `via` relays the report
    (UPF), so the parent hears it once.  Neither names a root or a relay:
    the parent and the relay know from the child's JOIN (or its JAGG entry)
    that the child names them, and the parent's root is the child's.  The
    kernel keeps an UP by the child's `parent` and `via` rows, which that
    JOIN announced.  A root sends no report: once its children have
    reported it holds its component's size (`sub_size`) and the count of
    non-members in its near set (`sub_near`), and the run ends when the
    last root has them.  Members wait on a timer through rounds 0-1 and
    then until they report.
    """

    def __init__(self, g: UnitDiskGraph, member: np.ndarray, root: np.ndarray,
                 parent: np.ndarray, via: np.ndarray):
        super().__init__(g)
        self.member, self.root, self.parent, self.via = member, root, parent, via
        self.members = self.ids[member[self.ids]]
        m = self.members
        self.kids = np.bincount(parent[m], minlength=self.size)  # a root's parent is 0
        relayed = m[via[m] != 0]  # members whose parent is no neighbour
        self.named = np.bincount(via[relayed], minlength=self.size)  # JOINs naming a relay
        self.pending = np.zeros(self.size, dtype=np.int64)  # from round 2: kids unheard
        self.near_reg = np.zeros(self.size, dtype=np.int64)
        self.sub_size = np.ones(self.size, dtype=np.int64)   # own + reported subtrees
        self.sub_near = np.zeros(self.size, dtype=np.int64)
        self.sent_up = np.zeros(self.size, dtype=bool)
        # the last round's UP senders and UPF (relay, child) pairs
        empty = np.empty(0, dtype=np.int64)
        self.up, self.upf = empty, (empty, empty)

    def step(self, rnd: int) -> list:
        m = self.members
        if rnd == 0:
            self.wake = m
            return [(K_JOIN, m)]
        if rnd == 1:
            relays = np.flatnonzero(self.named)
            # each non-member's first (smallest) member neighbour counts its
            # NEAR in round 2; pieces run in sender order, so a non-member
            # an earlier piece settled is not kept again.  A non-member's
            # `sub_near` slot is free scratch
            heard = np.zeros(self.size, dtype=bool)

            def first_member(v, s):
                i = np.flatnonzero(~self.member[v] & ~heard[v])
                i = i[first_hits(v[i], self.sub_near)]
                heard[v[i]] = True
                return i

            v, s = self.deliveries(m, m, keep=first_member)
            np.add.at(self.near_reg, s, 1)
            return [(K_JAGG, relays, self.named[relays]), (K_NEAR, np.sort(v))]
        if rnd == 2:
            self.pending[m] = self.kids[m]
        self.upf = self._settle_up()
        ready = m[~self.sent_up[m] & (self.pending[m] == 0)]
        self.sent_up[ready] = True
        self.sub_near[ready] += self.near_reg[ready]
        self.up = ready[self.root[ready] != ready]
        self.wake = m[~self.sent_up[m]]
        return [(K_UP, self.up), (K_UPF, self.upf[0])]

    def _settle_up(self) -> tuple:
        """Parents take reports, heard from the child (UP) or from its relay
        (UPF); returns the (relay, child) pairs that forward.  A relay never
        hears itself, so only an UP delivery reaches a child's `via`."""
        via, parent = self.via, self.parent
        v, c = self.deliveries(np.concatenate([self.up, self.upf[0]]),
                               np.concatenate([self.up, self.upf[1]]),
                               keep=lambda v, c: (v == parent[c]) | (v == via[c]))
        relay = v == via[c]
        took = c[~relay]
        par = parent[took]
        np.add.at(self.sub_size, par, self.sub_size[took])
        np.add.at(self.sub_near, par, self.sub_near[took])
        np.subtract.at(self.pending, par, 1)
        return v[relay], c[relay]

    def state_name(self, v: int) -> str:
        return (f"comporg(member={bool(self.member[v])},pending={self.pending[v]},"
                f"up={bool(self.sent_up[v])})")


@dataclass
class ComponentsResult:
    components: list[BoundaryComponent]
    comp_of: np.ndarray            # ID -> component_id (0 for non-members)
    results: list[RunResult]       # the flood's run, then the organisation's


def form_components(g: UnitDiskGraph, classes: np.ndarray,
                    max_rounds: int = 100_000, trace=None) -> ComponentsResult:
    """Group BOUNDARY nodes into components under hop-distance <= 2 linkage.

    Per-component max-ID roots assign their own ID (the flood
    `_CompFloodRounds`); sizes and near counts are convergecast to the root
    (the round kernel `_CompOrgRounds`), so after the flood only members
    and the relays they name forward anything, and only roots learn the
    totals.
    """
    member = classes == int(NodeClass.BOUNDARY)
    fields, flood = _flood_components(g, member, max_rounds, trace)
    org = _CompOrgRounds(g, member, *fields)
    res = run_protocol(org, max_rounds, trace)

    mem = org.members
    comp_of = np.zeros(g.max_id + 1, dtype=np.int64)
    comp_of[mem] = org.root[mem]
    roots, count = np.unique(comp_of[mem], return_counts=True)
    size = org.sub_size[roots]
    if (size != count).any():
        bad = np.flatnonzero(size != count)[0]
        raise RuntimeError(f"component {roots[bad]}: convergecast size {size[bad]} "
                           f"!= {count[bad]}")
    # members ascending within each component, components by root
    flat = mem[np.argsort(comp_of[mem], kind="stable")].tolist()
    ends = np.cumsum(count).tolist()
    components = [BoundaryComponent(component_id=r, members=tuple(flat[e - k:e]), size=k,
                                    near_set_size=near)
                  for r, e, k, near in zip(roots.tolist(), ends, count.tolist(),
                                           (size + org.sub_near[roots]).tolist())]
    return ComponentsResult(components=components, comp_of=comp_of, results=[flood, res])


def central_components(g: UnitDiskGraph, boundary_mask: np.ndarray) -> list[BoundaryComponent]:
    """Centralized twin of form_components.

    Connectivity trick: keep only edges with at least one boundary endpoint;
    paths in that subgraph alternate boundary nodes with single middles,
    which is exactly hop-distance <= 2 linkage.
    """
    bidx = np.flatnonzero(boundary_mask[1:]) + 1
    if len(bidx) == 0:
        return []
    src = np.repeat(np.arange(1, g.max_id + 1), np.diff(g.indptr)[1:])
    dst = g.indices
    keep = boundary_mask[src] | boundary_mask[dst]
    H = sp.csr_matrix((np.ones(int(keep.sum()), dtype=np.int8),
                       (src[keep], dst[keep])), shape=(g.max_id + 1, g.max_id + 1))
    _, labels = connected_components(H, directed=False)
    out: dict[int, list[int]] = {}
    for v in bidx:
        out.setdefault(int(labels[v]), []).append(int(v))
    comps = []
    for mem in out.values():
        root = max(mem)
        near = set(mem)
        for v in mem:
            near.update(g.neighbors(v).tolist())
        comps.append(BoundaryComponent(component_id=root, members=tuple(mem),
                                       size=len(mem), near_set_size=len(near)))
    comps.sort(key=lambda c: c.component_id)
    return comps


# --------------------------------------------------------------------------
# distance flood (best two components per node)
# --------------------------------------------------------------------------

def visibility_offset(deg, mu_est: int) -> np.ndarray:
    """Distance in R units from a straight boundary at which a node sees
    `deg` (an integer or integer array) of mu_est neighbours: the visibility
    model inverted, once per distinct degree, at deg/mu_est in [0.5, 1]."""
    degs, at = np.unique(deg, return_inverse=True)
    off = np.array([geometry.invert_visibility(min(max(d / mu_est, 0.5), 1.0))
                    for d in degs.tolist()])
    return off[at].reshape(np.shape(deg))


def _own_frac_units(deg, mu_est: int) -> np.ndarray:
    """visibility_offset in FRAC_SCALE fixed point."""
    return np.rint(visibility_offset(deg, mu_est) * FRAC_SCALE).astype(np.int64)


class _DistRounds(RoundKernel):
    """Boundary distance waves: one BFS wave per component.  A member's
    neighbours know its component (from its K_JOIN), so members send
    nothing: in round 0 every node next to a source takes the components of
    its source neighbours at distance 1, and the waves start from there.  A
    node re-broadcasts only the slots it has just filled, so every message
    sent in round r carries distance r + 1 and a node first hears a
    component at its final distance: nothing heard later is nearer.  In
    round r a node with a free slot takes every component it does not hold
    yet from its smallest sender, at distance r + 1; its free slots fill
    smallest component first, and it re-broadcasts exactly the slots it
    filled.

    Only the nearest component (slot 0) has an anchor: the node's own
    offset at distance 1, else its smallest sender's anchor.  A node fills
    slot 0 only from a sender's slot-0 message.  Had the sender filled its
    slot 0 a round earlier, the receiver would have heard it then and hold
    a slot 0 already; had it filled both slots in the same round, its slot
    0 holds the smaller component, which the receiver prefers.  So a
    runner-up message carries no anchor (K_DIST repeats `anchor_q` once
    for the nearest component, never for the runner-up), and a node that
    fills slot 0 reads the anchor its sender sent from the sender's `q` row.

    A round's `deliveries` are settled in the slots themselves, piece by
    piece in sender order, so a round holds no more than one piece of
    candidates: a piece lowers each free slot's running minimum, and an
    anchor is set where a piece lowers slot 0.  Until the round ends a
    slot filled in it holds its minimum negated, so a slot reads 0 or less
    exactly when it was free before the round."""

    def __init__(self, g: UnitDiskGraph, comp_of: np.ndarray, mu_est: int):
        super().__init__(g)
        self.mu_est = mu_est
        # row j holds every node's slot j; component 0 marks an empty slot
        self.d = np.zeros((2, self.size), dtype=np.int64)
        self.c = np.zeros((2, self.size), dtype=np.int64)
        self.q = np.zeros(self.size, dtype=np.int64)  # slot 0's anchor
        src = self.ids[np.asarray(comp_of)[self.ids] != 0]
        self.c[0, src] = np.asarray(comp_of)[src]
        # (sender, comp, 1 for its nearest component and 0 for its runner-up)
        self.out = (src, self.c[0, src], np.ones(len(src), dtype=np.int64))

    def step(self, rnd: int) -> list:
        if len(self.out[0]):  # in round 0, the sources' neighbours settle
            self.out = self._settle(rnd, self.out[0], self.out[1])
        s, _, nearest = self.out
        return [(K_DIST, s, nearest)]

    def _settle(self, rnd, s, c) -> tuple:
        c0, c1 = self.c  # row views: a 1-D gather is faster than self.c[j, v]
        filled: list[list[np.ndarray]] = [[], []]  # per slot, the nodes that fill it

        def lower(row, j, v, c) -> np.ndarray:
            # slot j of each v takes the smallest of its value and c, held
            # negated (a free slot starts from -_UNSET).  Returns each
            # delivery's slot value before the piece, _UNSET where free
            fresh = v[row[v] == 0]
            filled[j].append(np.unique(fresh))
            row[fresh] = -_UNSET
            was = -row[v]
            np.maximum.at(row, v, -c)
            return was

        def take(v, c, s):
            # the deliveries to a node with slot 1 free before the round of
            # a component it did not hold before the round
            i = np.flatnonzero((c1[v] <= 0) & (c0[v] != c))
            v, c, s = v[i], c[i], s[i]
            # slot 0, where free before the round, takes the smallest
            # component; its anchor comes from the first sender of a
            # component that lowered it
            a = np.flatnonzero(c0[v] <= 0)
            was = lower(c0, 0, v[a], c[a])
            now = -c0[v[a]]
            if rnd:
                w = a[(c[a] == now) & (now < was)]
                w = w[first_hits(v[w], self.q)]  # q of a node lowering slot 0 is rewritten
                self.q[v[w]] = self.q[s[w]]  # a sender's slot 0 is not free
            # slot 1 takes the smallest other component, and a slot 0
            # value that this piece displaced
            up = c != -c0[v]
            gone = (was != _UNSET) & (now < was)
            lower(c1, 1, np.concatenate([v[up], v[a[gone]]]), np.concatenate([c[up], was[gone]]))
            return i[:0]

        self.deliveries(s, c, s, keep=take)
        f0, f1 = (np.concatenate(f) for f in filled)
        for row, dist, f in ((c0, self.d[0], f0), (c1, self.d[1], f1)):
            row[f] = -row[f]
            dist[f] = rnd + 1
        at = np.sort(np.concatenate([2 * f0, 2 * f1 + 1]))  # by node, then slot
        v, near = at // 2, at % 2 == 0
        if rnd == 0:
            self.q[f0] = _own_frac_units(self.degree(f0), self.mu_est)
        return v, np.where(near, c0[v], c1[v]), near.astype(np.int64)

    def state_name(self, v: int) -> str:
        slots = [(int(self.d[0, v]), int(self.c[0, v]), int(self.q[v])),
                 (int(self.d[1, v]), int(self.c[1, v]))]
        return f"dist(slots={[slot for slot in slots if slot[1]]})"


@dataclass
class DistanceField:
    hop: np.ndarray        # ID -> hop count to nearest component (inf if none)
    comp: np.ndarray       # ID -> nearest component id (ties: smaller id)
    hop2: np.ndarray       # runner-up distance
    comp2: np.ndarray      # runner-up component id (0 if none seen)
    anchor_q: np.ndarray   # fixed-point near-boundary offset on the primary path


def distance_flood(g: UnitDiskGraph, comp_of: np.ndarray, mu_est: int,
                   max_rounds: int = 100_000,
                   trace=None) -> tuple[DistanceField, RunResult]:
    """One BFS wave per component from every boundary node (distance 0),
    started by the boundary nodes' neighbours.  A node keeps the first two
    components it hears (of those heard in one round, the smallest), each
    at the distance it first hears it, the nearest with the anchor it
    first hears with it, and relays each once."""
    kernel = _DistRounds(g, comp_of, mu_est)
    res = run_protocol(kernel, max_rounds, trace)
    d, c = kernel.d, kernel.c
    hop = np.where(c != 0, d, np.inf)
    return DistanceField(hop[0], c[0], hop[1], c[1], kernel.q), res


def central_distance_field(g: UnitDiskGraph, components: list[BoundaryComponent],
                           mu_est: int) -> DistanceField:
    """Centralized twin: per-component BFS, then per node the best two by
    (distance, component id), with the nearest component's anchor taken,
    level by level, from the smallest-ID neighbour one level nearer that
    has the same nearest component, exactly as the synchronous flood does
    (every BFS predecessor of a node in its nearest component has that
    component nearest too)."""
    m = g.max_id
    k = len(components)
    hop = np.full(m + 1, np.inf)
    comp = np.zeros(m + 1, dtype=np.int64)
    hop2 = np.full(m + 1, np.inf)
    comp2 = np.zeros(m + 1, dtype=np.int64)
    anchor = np.zeros(m + 1, dtype=np.int64)
    if k == 0:
        return DistanceField(hop, comp, hop2, comp2, anchor)

    dists = np.stack([hop_bfs(g, c.members) for c in components])  # (k, m+1)
    cids = np.array([c.component_id for c in components])
    order = np.lexsort((np.broadcast_to(cids[:, None], dists.shape), dists), axis=0)
    first = order[0]
    hop[1:] = dists[first[1:], np.arange(1, m + 1)]
    comp[1:] = np.where(np.isfinite(hop[1:]), cids[first[1:]], 0)
    if k > 1:
        second = order[1]
        hop2[1:] = dists[second[1:], np.arange(1, m + 1)]
        comp2[1:] = np.where(np.isfinite(hop2[1:]), cids[second[1:]], 0)

    # anchor propagation along each node's nearest wave
    ids = g.ids
    level = np.where(np.isfinite(hop[ids]), hop[ids], 0).astype(np.int64)
    one = ids[level == 1]
    anchor[one] = _own_frac_units(g.degrees()[one], mu_est)
    for d in range(2, int(level.max()) + 1):
        v = ids[level == d]
        pos, lens = csr_rows(g.indptr, v)
        u, v = g.indices[pos], np.repeat(v, lens)
        up = (hop[u] == d - 1) & (comp[u] == comp[v])
        u, v = u[up], v[up]
        first_up = np.unique(v, return_index=True)[1]  # rows ascend: the smallest
        anchor[v[first_up]] = anchor[u[first_up]]
    return DistanceField(hop, comp, hop2, comp2, anchor)


def detect_voronoi(field: DistanceField, tolerance_hops: int = 2) -> np.ndarray:
    """Flag nodes whose best two component distances differ by at most
    tolerance_hops (the paper's 'roughly the same distance')."""
    with np.errstate(invalid="ignore"):
        close = (field.hop2 - field.hop) <= tolerance_hops
    return (field.comp2 != 0) & np.isfinite(field.hop2) & close


# --------------------------------------------------------------------------
# token loops
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _Pass:
    """One holder's pass: its query in round `q`, the replies, and the
    decision, a choice of `succ` or a backtrack to `back`, each reached
    through `via` (0: a neighbour).  `steps` is the countdown the holder
    took with the token; the holder needs no component size."""
    comp: int
    holder: int
    seq: int
    q: int
    steps: int         # passes left before the root may close the loop
    undo: int          # a resumed holder's last pass, rolled back; 0 if none
    nbrs: np.ndarray
    ring: tuple = ()   # N(N(holder)), |N(c) ∩ nbrs| and the smallest common neighbour
    replies: list = field(default_factory=list)  # direct, then 2-hop: (cand, score, excl, via)
    succ: int = 0
    back: int = 0
    via: int = 0


class _TokenRounds(RoundKernel):
    """The token walk of every component at once; each component has at
    most one pass in flight.  Every root (the node whose ID is its
    component's) holds the token in round 0, with a countdown of
    max(5, ⌈size / 10⌉) passes from its convergecast size; the choice
    (K_TC) hands the successor the countdown less one, so the root is the
    only node that reads a size.

    A holder h that queries in round q (K_TQ, with a K_TRB rolling back its
    last pass when it resumes after a backtrack) hears, by round q + 4, a
    reply from every member within two hops that has never held the token
    (the root always replies): a neighbour replies in q + 1 (K_TR) as N(h)
    relays the query (K_TQF, and K_TRBF); a member two hops away replies in
    q + 2 through its smallest common neighbour with h, which relays the
    reply in q + 3 (K_TRF).  A reply carries |N(c) ∩ N(h)| and whether the
    member was passed over since its last roll-back.  In q + 4 h chooses
    (K_TC): the root once h's countdown has run out, else the fresh member
    of least (score, ID), else the passed-over one, else the root.
    With no reply h sends the token back along its own link (K_TB, relayed
    as K_TBF), and that holder resumes with a new pass.  In q + 5 N(h)
    relays the choice (K_TCF).  The successor takes the token at the first
    copy it hears, and each other replier, when the choice reaches it, is
    passed over in pass `seq`.  A reply sees its own pass's roll-back only
    afterwards; a member two hops from h whose relay is the successor
    hears the new query before the choice, and replies first.

    Per node only the exclusion `mark` (0 none, -1 has held the token,
    else the pass that passed it over) and the two scratch rows that
    `_ask` scatters N(h)'s `deliveries` into are ID-indexed arrays; the
    links (`prev`) and each holder's (last seq, countdown) are kept by
    holder."""

    def __init__(self, g: UnitDiskGraph, comps: ComponentsResult):
        super().__init__(g)
        self.comp_of = comps.comp_of
        self.sizes = {c.component_id: c.size for c in comps.components}  # read by roots
        self.mark = np.zeros(self.size, dtype=np.int64)
        # `_ask`'s scratch: per node the rows of N(h) that hold it, and the
        # row `first_hits` borrows
        self.hits, self.first = np.zeros((2, self.size), dtype=np.int64)
        self.prev: dict[int, tuple[int, int]] = {}  # holder -> (holder before it, via)
        self.held: dict[int, tuple[int, int]] = {}  # holder -> (last seq, countdown)
        self.closed: set[int] = set()
        self.passes: list[_Pass] = []
        self.out: dict = {}  # kind -> the round's (senders, count, payload key) batches

    def step(self, rnd: int) -> list:
        self.out = {}
        late = []
        if rnd == 0:
            for r in self.ids[self.comp_of[self.ids] == self.ids].tolist():
                self._start(r, r, 1, max(5, -(-self.sizes[r] // 10)), 0, rnd)
        for p in sorted(self.passes, key=lambda p: (p.comp, p.q)):
            d = rnd - p.q
            if d == 1:
                self._ask(p)
            elif d == 2:
                self._ask_far(p)
            elif d == 3:
                cand, _, _, via = p.replies[1]
                self._send(K_TRF, via, cand)
            elif d == 4:
                self._decide(p)
            elif d == 5 and p.succ:
                self._send(K_TCF, p.nbrs, p.holder)
                cand = p.replies[0][0]
                self.mark[cand[(cand != p.succ) & (cand != p.comp)]] = p.seq
            elif d == 5 and p.back and p.via:
                self._send(K_TBF, p.via, p.comp)
            elif d == 6 and p.succ:
                cand, _, _, via = p.replies[1]
                out = (cand != p.succ) & (cand != p.comp)
                self.mark[cand[out & (via != p.succ)]] = p.seq
                late.append((cand[out & (via == p.succ)], p.seq))
            if d == 5 + (p.via != 0) and (p.succ or p.back):  # the token arrives
                (self._take if p.succ else self._resume)(p, rnd)
        for v, seq in late:  # they heard the new holder's query first
            self.mark[v] = seq
        self.passes = [p for p in self.passes if rnd - p.q < 6]
        # the holders between their query and their decision
        self.wake = np.array(sorted(p.holder for p in self.passes if rnd - p.q < 4), dtype=np.int64)
        batches = []
        for kind, parts in self.out.items():
            s, count, key = (np.concatenate(x) for x in zip(*parts))
            order = np.lexsort((key, s))  # a sender's messages of one kind in payload order
            batches.append((kind, s[order], count[order]))
        return batches

    def _send(self, kind: Kind, senders, key, count: int = 0) -> None:
        s = np.atleast_1d(senders)
        self.out.setdefault(kind, []).append(
            (s, np.full(len(s), count), np.broadcast_to(key, s.shape)))

    def _start(self, comp, h, seq, steps, undo, rnd) -> None:
        self.held[h] = (seq, steps)
        nbrs = self.indices[self.indptr[h]:self.indptr[h + 1]].astype(np.int64)
        self.passes.append(_Pass(comp, h, seq, rnd, steps, undo, nbrs))
        self._send(K_TQ, h, comp, len(nbrs))
        if undo:
            self._send(K_TRB, h, comp)

    def _eligible(self, v: np.ndarray, comp: int) -> np.ndarray:
        return (self.comp_of[v] == comp) & ((self.mark[v] != -1) | (v == comp))

    def _reply(self, p: _Pass, cand, score, via) -> None:
        excl = ((self.mark[cand] != 0) & (cand != p.comp)).astype(np.int64)
        p.replies.append((cand, score, excl, via))
        self._send(K_TR, cand, p.comp)

    def _undo(self, p: _Pass, v: np.ndarray) -> None:
        self.mark[v[(self.mark[v] == p.undo) & (self.comp_of[v] == p.comp)]] = 0

    def _ask(self, p: _Pass) -> None:
        nb = p.nbrs
        self._send(K_TQF, nb, p.comp, len(nb))
        # one pass over the neighbours' rows gives every score: c's count of
        # rows, cleared after reading, and its first delivery, from its
        # smallest common neighbour
        u, relay = self.deliveries(nb, nb)
        np.add.at(self.hits, u, 1)
        first = first_hits(u, self.first)
        first = first[np.argsort(u[first])]
        ring = u[first]
        p.ring = ring, self.hits[ring], relay[first]
        u = nb[self._eligible(nb, p.comp)]
        self._reply(p, u, self.hits[u], np.zeros_like(u))
        self.hits[ring] = 0
        if p.undo:
            self._send(K_TRBF, nb, p.comp)
            self._undo(p, nb)

    def _ask_far(self, p: _Pass) -> None:
        ring, count, relay = p.ring
        far = (ring != p.holder) & ~np.isin(ring, p.nbrs) & self._eligible(ring, p.comp)
        self._reply(p, ring[far], count[far], relay[far])
        if p.undo:
            self._undo(p, ring)

    def _decide(self, p: _Pass) -> None:
        cand, score, excl, via = (np.concatenate(x) for x in zip(*p.replies))
        root = cand == p.comp
        picks = [~root & (excl == 0), ~root & (excl != 0), root]
        if root.any() and p.steps <= 0:
            picks.insert(0, root)
        for pick in picks:
            if pick.any():
                i = np.flatnonzero(pick)
                j = i[np.lexsort((cand[i], score[i]))[0]]
                p.succ, p.via = int(cand[j]), int(via[j])
                self._send(K_TC, p.holder, p.comp)
                return
        if p.holder not in self.prev:  # the root, out of candidates
            if self.sizes[p.holder] <= 1:
                self.closed.add(p.holder)
            return
        p.back, p.via = self.prev[p.holder]
        self._send(K_TB, p.holder, p.comp)

    def _take(self, p: _Pass, rnd: int) -> None:
        s = p.succ
        self.prev[s] = (p.holder, p.via)
        if s == p.comp:
            self.closed.add(s)  # the loop is complete
            return
        self.mark[s] = -1
        seq = max(self.held.get(s, (0, 0))[0], p.seq) + 1
        self._start(p.comp, s, seq, p.steps - 1, 0, rnd)

    def _resume(self, p: _Pass, rnd: int) -> None:
        last, steps = self.held[p.back]
        self._start(p.comp, p.back, max(last, p.seq) + 1, steps, last, rnd)

    def state_name(self, v: int) -> str:
        return f"token(holding={v in self.wake.tolist()},comp={int(self.comp_of[v])})"


def run_token_loops(g: UnitDiskGraph, comps: ComponentsResult,
                    max_rounds: int = 200_000,
                    trace=None) -> tuple[dict[int, TokenLoop], RunResult]:
    """Run the token-pass loop in every component concurrently.

    Every holder keeps the (holder, via) that passed it the token and holds
    it at most once, so a closed loop is read back from the root along
    these links.  Components whose backtracking exhausts all candidates
    are omitted from the returned mapping (the pipeline warns about each).
    """
    kernel = _TokenRounds(g, comps)
    res = run_protocol(kernel, max_rounds, trace)
    loops: dict[int, TokenLoop] = {}
    for root in (c.component_id for c in comps.components if c.component_id in kernel.closed):
        members, walk = [root], [root]  # read backwards, root last
        link = kernel.prev.get(root)
        while link is not None:
            holder, via = link
            if via:
                walk.append(via)
            walk.append(holder)
            members.append(holder)
            link = None if holder == root else kernel.prev[holder]
        loops[root] = TokenLoop(component_id=root, members=tuple(members[::-1]),
                                walk=tuple(walk[::-1]))
    return loops, res


# --------------------------------------------------------------------------
# alpha sweep
# --------------------------------------------------------------------------

def default_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(1, 27))  # 0.05 .. 1.30


def alpha_sweep(g: UnitDiskGraph, mu_est: int, grid: tuple[float, ...] | None = None,
                min_component_size: int = 8) -> AlphaSweep:
    """Classify at every alpha on the grid and count boundary components
    of at least min_component_size members.

    The plateau is the longest maximal run of a constant positive count
    that does not touch the end of the grid (the terminal run belongs to
    the everything-merges regime, not to a plateau between the two count
    peaks); ties go to the smaller alpha.  alpha_star is its midpoint;
    both are None when the counts have no plateau.

    An edge links under 2-hop linkage once either end is BOUNDARY, and the
    grid's boundary sets are prefixes of the nodes sorted by degree, so each
    grid point merges the labels along the rows of only its new BOUNDARY
    nodes, about SWEEP_PIECE edges at a time, so memory stays bounded
    however many nodes one step adds; the counts equal those of
    form_components at each alpha.
    """
    if grid is None:
        grid = default_grid()
    grid = tuple(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    thresholds = [threshold_units(a, mu_est) for a in grid]
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must not decrease along the grid: {thresholds}")
    deg = g.degrees()
    order = g.ids[np.argsort(deg[g.ids], kind="stable")]
    ends = np.searchsorted(deg[order], thresholds, side="right")
    reach = np.concatenate(([0], np.cumsum(deg[order])))  # the edges of the rows of order[:i]
    size = g.max_id + 1
    labels = np.arange(size)
    counts, lo = [], 0
    for hi in ends.tolist():
        while lo < hi:  # the new rows, about SWEEP_PIECE edges at a time
            mid = int(np.searchsorted(reach, reach[lo] + SWEEP_PIECE, side="right")) - 1
            mid = min(hi, max(lo + 1, mid))
            pos, lens = csr_rows(g.indptr, order[lo:mid])
            pairs = (labels[np.repeat(order[lo:mid], lens)], labels[g.indices[pos]])
            merged = sp.csr_matrix((np.ones(len(pos), bool), pairs), shape=(size, size))
            labels = connected_components(merged, directed=False)[1][labels]
            lo = mid
        members = np.bincount(labels[order[:hi]])
        counts.append(int((members >= max(min_component_size, 1)).sum()))

    plateau = find_plateau(grid, counts)
    return AlphaSweep(grid=grid, component_counts=tuple(counts),
                      boundary_counts=tuple(ends.tolist()), plateau=plateau,
                      alpha_star=None if plateau is None else (plateau[0] + plateau[1]) / 2)


def find_plateau(grid: tuple[float, ...], counts: list[int]
                 ) -> tuple[float, float, int] | None:
    """Longest maximal constant positive run not touching the grid end
    (a plateau sits between the two count peaks; the terminal run is the
    everything-merges regime).  Ties go to the smaller alpha; runs must
    span at least two grid points."""
    best = None  # (length, start)
    i = 0
    while i < len(counts):
        j = i
        while j + 1 < len(counts) and counts[j + 1] == counts[i]:
            j += 1
        run_len = j - i + 1
        if counts[i] > 0 and j < len(counts) - 1 and run_len >= 2:
            if best is None or run_len > best[0]:
                best = (run_len, i)
        i = j + 1
    if best is None:
        return None
    run_len, start = best
    return (grid[start], grid[start + run_len - 1], counts[start])
