"""Boundary recognition: density estimation, threshold classification,
component formation over 2-hop linkage, distance floods, Voronoi flags,
token loops, and the alpha sweep.

Every distributed operation here has a centralized twin (prefix
``central_``) used as an executable oracle; the two must agree exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from . import geometry
from .netgraph import DegreeHistogram, UnitDiskGraph
from .simkernel import NodeProto, RoundKernel, RunResult, run_protocol

# message kinds (disjoint from the convergetree range)
K_BND = 10     # ()                          boundary membership announcement
K_MC = 11      # (root,)                     member candidate flood
K_MF = 12      # (root, origin)              relay forward of the best candidate
K_JOIN = 13    # (root, parent)              member join notice
K_JAGG = 14    # (member, root, parent)*     relay aggregate of joins heard
K_NEAR = 15    # (dest, root)                near node registering at a member
K_UP = 16      # (via, root, size, near)     component convergecast
K_UPF = 17     # (child, root, size, near)   relayed convergecast entry
K_ASG = 18     # (root, size, near)          component totals flood
K_DIST = 19    # (root, d, anchor_q)         boundary distance wave
K_TQ = 20      # (comp, seq, *holder_nbrs)   token pass query
K_TQF = 21     # (comp, seq, holder, *nbrs)  relayed query
K_TR = 22      # (comp, seq, score, isroot, excl, via)    candidate reply
K_TRF = 23     # (cand, comp, seq, score, isroot, excl)   relayed reply
K_TC = 24      # (comp, seq, succ, via, *path)            pass choice
K_TCF = 25     # (holder, comp, seq, succ, via, *path)    relayed choice
K_TA = 26      # (comp, seq, via, dest)      successor acknowledgment
K_TAF = 27     # (comp, seq, dest)           relayed acknowledgment
K_TB = 28      # (comp, seq, dest, via)      backtrack request to previous holder
K_TBF = 29     # (comp, seq, dest)           relayed backtrack request
K_TRB = 30     # (comp, seq, failed)         rollback: un-exclude seq's candidates
K_TRBF = 31    # (comp, seq, failed)         relayed rollback

FRAC_SCALE = 1 << 16  # fractional distances travel as 16-bit fixed point


class DegenerateHistogram(ValueError):
    """Histogram unusable for density estimation."""


class NoPlateau(RuntimeError):
    """Alpha sweep found no constant run of length >= 2."""


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
    plateau: tuple[float, float, int]  # (alpha_lo, alpha_hi, count)
    alpha_star: float


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
    isolated one too, to nobody); non-boundary hearers become NEAR."""

    def __init__(self, g: UnitDiskGraph, threshold: int):
        super().__init__(g)
        self.cls = np.zeros(self.size, dtype=np.int8)
        self.bnd = self.ids[self.deg[self.ids] <= threshold]

    def step(self, rnd: int) -> list:
        if rnd == 0:
            self.cls[self.bnd] = NodeClass.BOUNDARY
            return [(K_BND, self.bnd, 1)]
        v = self.receivers(self.bnd)[0]
        self.cls[v[self.cls[v] != NodeClass.BOUNDARY]] = NodeClass.NEAR_BOUNDARY
        return []


def classify(g: UnitDiskGraph, threshold: int,
             trace=None) -> tuple[np.ndarray, RunResult]:
    """Distributed B(alpha) rule: BOUNDARY iff degree <= threshold, one
    announcement per boundary node, hearers become NEAR_BOUNDARY."""
    kernel = _ClassifyRounds(g, threshold)
    res = kernel.run(trace=trace)
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

class _CompFloodNode(NodeProto):
    """Members flood the max member ID of their 2-hop-linked component.

    Non-members relay: they re-broadcast the best candidate heard directly
    from a member whenever it improves, which realizes exactly the
    hop-distance-2 linkage without letting floods travel further.
    """

    __slots__ = ("member", "root", "parent", "via", "best_fwd")

    def __init__(self, vid, nbrs, member):
        super().__init__(vid, nbrs)
        self.member = member
        self.root = vid if member else 0
        self.parent = 0
        self.via = 0
        self.best_fwd = 0

    def on_round(self, rnd, inbox):
        if rnd == 0:
            return ((K_MC, self.vid),) if self.member else ()
        if self.member:
            best, origin, via = self.root, 0, 0
            for s, m in inbox:
                k = m[0]
                if k == K_MC:
                    if m[1] > best:
                        best, origin, via = m[1], s, 0
                elif k == K_MF and m[1] > best:
                    best, origin, via = m[1], m[2], s
            if best > self.root:
                self.root, self.parent, self.via = best, origin, via
                return ((K_MC, best),)
            return ()
        # relay: track the best candidate heard directly from members
        best, origin = self.best_fwd, 0
        for s, m in inbox:
            if m[0] == K_MC and m[1] > best:
                best, origin = m[1], s
        if best > self.best_fwd:
            self.best_fwd = best
            return ((K_MF, best, origin),)
        return ()

    def state_name(self):
        return f"compflood(member={self.member})"


class _CompOrgRounds(RoundKernel):
    """Join, size/near-count convergecast and totals flood for every
    component at once, from the flood's per-ID `root`, `parent` and `via`.

    Rounds 0-2 have fixed timing.  Round 0: members announce (root, parent)
    (JOIN).  Round 1: every node that heard JOINs relays them all (JAGG),
    so a member hears of every child: the flood's parent is a member of
    the child's component, and a neighbour of the child or, exactly when it
    is not, of the child's `via`.  Round 2: a non-member registers once per
    component around it (NEAR), at its smallest member neighbour there.
    From round 3 a member reports its subtree's size and near count to its
    parent (UP) once every child has; the child's `via` relays the report
    (UPF), so the parent hears it once.  A root that reports starts the
    totals flood (ASG): members of its component relay it once,
    non-members relay every component's once.  Members wait on a timer
    through rounds 0-2 and then until they report.
    """

    def __init__(self, g: UnitDiskGraph, member: np.ndarray, root: np.ndarray,
                 parent: np.ndarray, via: np.ndarray):
        super().__init__(g)
        self.member, self.root, self.parent, self.via = member, root, parent, via
        self.members = self.ids[member[self.ids]]
        m = self.members
        self.kids = np.bincount(parent[m], minlength=self.size)  # a root's parent is 0
        self.pending = np.zeros(self.size, dtype=np.int64)  # from round 3: kids unheard
        self.near_reg = np.zeros(self.size, dtype=np.int64)
        self.sub_size = np.ones(self.size, dtype=np.int64)   # own + reported subtrees
        self.sub_near = np.zeros(self.size, dtype=np.int64)
        self.sent_up = np.zeros(self.size, dtype=bool)
        self.got_yard = np.zeros(self.size, dtype=bool)
        self.comp_size = np.zeros(self.size, dtype=np.int64)
        self.comp_near = np.zeros(self.size, dtype=np.int64)
        # totals floods by component rank k: key k * size + v is done once
        # v took and relayed them, or from the start if v is a member of
        # another component; `slot` picks one delivery per key in a round
        comps = np.unique(root[m])
        self.rank = np.zeros(self.size, dtype=np.int64)
        self.rank[m] = np.searchsorted(comps, root[m])
        done = np.zeros((len(comps), self.size), dtype=bool)
        done[:, m] = True
        done[self.rank[m], m] = False
        self.done = done.ravel()
        self.slot = np.zeros(len(self.done), dtype=np.int32)
        # the last round's UP senders, UPF (relay, child) and ASG (sender, rank)
        empty = np.empty(0, dtype=np.int64)
        self.up, self.upf, self.asg = empty, (empty, empty), (empty, empty)

    def step(self, rnd: int) -> list:
        m = self.members
        if rnd == 0:
            self.wake = m
            return [(K_JOIN, m, 3)]
        if rnd == 1:
            heard = np.bincount(self.receivers(m)[0], minlength=self.size)
            v = np.flatnonzero(heard)
            self.wake = np.union1d(m, v)
            return [(K_JAGG, v, 1 + 3 * heard[v])]
        if rnd == 2:
            v, lens = self.receivers(m)
            s = np.repeat(m, lens)
            v, s = v[~self.member[v]], s[~self.member[v]]
            # deliveries run in sender order: the first per (v, root) is the
            # smallest member neighbour, which counts the NEAR in round 3
            key, first = np.unique(v * self.size + self.root[s], return_index=True)
            np.add.at(self.near_reg, s[first], 1)
            self.wake = m
            return [(K_NEAR, key // self.size, 3)]
        if rnd == 3:
            self.pending[m] = self.kids[m]
        self.upf = self._settle_up()
        relays, ranks = self._settle_asg()

        ready = m[~self.sent_up[m] & (self.pending[m] == 0)]
        self.sent_up[ready] = True
        self.sub_near[ready] += self.near_reg[ready]
        top = ready[self.root[ready] == ready]
        self.got_yard[top] = True
        self.done[self.rank[top] * self.size + top] = True
        self.comp_size[top] = self.sub_size[top]
        self.comp_near[top] = self.sub_size[top] + self.sub_near[top]  # inclusive near set
        self.up = ready[self.root[ready] != ready]
        self.asg = (np.concatenate([relays, top]), np.concatenate([ranks, self.rank[top]]))
        self.wake = m[~self.sent_up[m]]
        return [(K_UP, self.up, 5), (K_UPF, self.upf[0], 5), (K_ASG, self.asg[0], 4)]

    def _settle_up(self) -> tuple:
        """Parents take reports, heard from the child or from its relay;
        returns the (relay, child) pairs that forward."""
        v, lens = self.receivers(self.up)
        c = np.repeat(self.up, lens)
        relay = v == self.via[c]
        w, lens = self.receivers(self.upf[0])
        c2 = np.repeat(self.upf[1], lens)
        took = np.concatenate([c[v == self.parent[c]], c2[w == self.parent[c2]]])
        par = self.parent[took]
        np.add.at(self.sub_size, par, self.sub_size[took])
        np.add.at(self.sub_near, par, self.sub_near[took])
        np.subtract.at(self.pending, par, 1)
        return v[relay], c[relay]

    def _settle_asg(self) -> tuple:
        """Members take their own component's totals once and relay them;
        non-members relay each component's once.  Returns the (relay,
        rank) pairs."""
        s, k = self.asg
        v, lens = self.receivers(s)
        key = np.repeat(k * self.size, lens) + v
        key = key[~self.done[key]]
        at = np.arange(len(key))
        self.slot[key] = at
        key = key[self.slot[key] == at]
        self.done[key] = True
        v = key % self.size
        mem = v[self.member[v]]  # other components' totals are done from the start
        top = self.root[mem]
        self.got_yard[mem] = True
        self.comp_size[mem], self.comp_near[mem] = self.comp_size[top], self.comp_near[top]
        return v, key // self.size

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

    Per-component max-ID roots assign their own ID (the flood, on the
    executor); sizes and inclusive near-set sizes are convergecast to the
    root and flooded back down (the round kernel `_CompOrgRounds`).
    """
    member = classes == int(NodeClass.BOUNDARY)
    flood = run_protocol(g, lambda v, nb: _CompFloodNode(v, nb, bool(member[v])),
                         max_rounds=max_rounds, trace=trace)
    nodes = [flood.nodes[v] for v in g.id_list]
    fields = np.zeros((3, g.max_id + 1), dtype=np.int64)
    fields[:, g.ids] = np.array([(nd.root, nd.parent, nd.via) for nd in nodes]).T
    org = _CompOrgRounds(g, member, *fields)
    res = org.run(max_rounds, trace)

    mem = org.members
    if not org.got_yard[mem].all():
        raise RuntimeError(f"component totals never reached member {mem[~org.got_yard[mem]][0]}")
    comp_of = np.zeros(g.max_id + 1, dtype=np.int64)
    comp_of[mem] = org.root[mem]
    roots, count = np.unique(comp_of[mem], return_counts=True)
    size = org.comp_size[roots]
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
                                           org.comp_near[roots].tolist())]
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

def _own_frac_units(deg: int, mu_est: int) -> int:
    r = min(max(deg / mu_est, 0.5), 1.0)
    return int(round(geometry.invert_visibility(r) * FRAC_SCALE))


_CHUNK = 1 << 16  # deliveries settled at once by the distance flood


class _DistRounds(RoundKernel):
    """Boundary distance waves: one BFS wave per component, all started in
    round 0, where every member broadcasts its own component at distance 0.
    A node re-broadcasts only the slots it has just filled, so every
    message sent in round r carries distance r and a node first hears a
    component at its final distance: nothing heard later is nearer.  In
    round r a node with a free slot takes every component it does not hold
    yet from its smallest sender, at distance r and with that sender's
    anchor (its own offset in round 1); its free slots fill smallest
    component first, and it re-broadcasts exactly the slots it filled."""

    def __init__(self, g: UnitDiskGraph, comp_of: np.ndarray, mu_est: int):
        super().__init__(g)
        self.mu_est = mu_est
        # row j holds every node's slot j; component 0 marks an empty slot
        self.d = np.zeros((2, self.size), dtype=np.int64)
        self.c = np.zeros((2, self.size), dtype=np.int64)
        self.q = np.zeros((2, self.size), dtype=np.int64)
        src = self.ids[np.asarray(comp_of)[self.ids] != 0]
        self.c[0, src] = np.asarray(comp_of)[src]
        zero = np.zeros(len(src), dtype=np.int64)
        self.out = (src, self.c[0, src], zero)  # (sender, comp, anchor)

    def step(self, rnd: int) -> list:
        if rnd:
            self.out = self._settle(rnd, *self.out)
        return [(K_DIST, self.out[0], 4)]

    def _settle(self, rnd, s, c, q) -> tuple:
        # the round's deliveries in pieces of about _CHUNK, each cut down to
        # the candidates their receiver can take
        load = np.cumsum(self.deg[s])
        cuts = np.searchsorted(load, np.arange(_CHUNK, load[-1], _CHUNK))
        parts = [self._candidates(s[a:b], c[a:b], q[a:b])
                 for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(s)])]
        v, c, q = (np.concatenate(x) for x in zip(*parts))
        # per (receiver, component) the first candidate; candidates run in
        # sender order, so the stable sort puts the smallest sender first
        order = np.lexsort((c, v))
        v, c, q = v[order], c[order], q[order]
        first = np.ones(len(v), dtype=bool)
        first[1:] = (v[1:] != v[:-1]) | (c[1:] != c[:-1])
        v, c, q = v[first], c[first], q[first]
        # the free slots, smallest component first
        slot = np.arange(len(v)) - np.searchsorted(v, v) + (self.c[0, v] != 0)
        fill = slot < 2
        v, c, q, slot = v[fill], c[fill], q[fill], slot[fill]
        if rnd == 1:
            q = self._own_offsets(v)
        self.d[slot, v], self.c[slot, v], self.q[slot, v] = rnd, c, q
        return v, c, q

    def _candidates(self, s, c, q) -> tuple:
        """The deliveries of these messages to a receiver with a free slot
        that does not hold their component yet."""
        v, lens = self.receivers(s)
        k = np.repeat(np.arange(len(s)), lens)
        c = c[k]
        take = (self.c[1, v] == 0) & (self.c[0, v] != c)
        return v[take], c[take], q[k[take]]

    def _own_offsets(self, v: np.ndarray) -> np.ndarray:
        degs, at = np.unique(self.deg[v], return_inverse=True)
        return np.array([_own_frac_units(int(x), self.mu_est) for x in degs],
                        dtype=np.int64)[at]

    def state_name(self, v: int) -> str:
        slots = [(int(self.d[j, v]), int(self.c[j, v]), int(self.q[j, v]))
                 for j in (0, 1) if self.c[j, v]]
        return f"dist(slots={slots})"


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
    """Every boundary node floods its component at distance 0, one BFS wave
    per component.  A node keeps the first two components it hears (of
    those heard in one round, the smallest), each at the distance and with
    the anchor it first hears it, and relays each once."""
    kernel = _DistRounds(g, comp_of, mu_est)
    res = kernel.run(max_rounds, trace)
    d, c, q = kernel.d, kernel.c, kernel.q
    hop = np.where(c != 0, d, np.inf)
    return DistanceField(hop[0], c[0], hop[1], c[1], q[0]), res


def central_distance_field(g: UnitDiskGraph, components: list[BoundaryComponent],
                           mu_est: int) -> DistanceField:
    """Centralized twin: per-component BFS, then per node the best two by
    (distance, component id), with anchors assembled over smallest-ID
    predecessors exactly as the synchronous flood does."""
    from .netgraph import hop_bfs

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

    # anchor propagation along each component's wave, top-2 holders only
    deg = g.degrees()
    rank_ok = np.zeros((k, m + 1), dtype=bool)
    rank_ok[first, np.arange(m + 1)] = True
    if k > 1:
        rank_ok[order[1], np.arange(m + 1)] = True
    anchors_c = np.zeros((k, m + 1), dtype=np.int64)
    for ci in range(k):
        d_c = dists[ci]
        holders = np.flatnonzero(rank_ok[ci] & np.isfinite(d_c))
        holders = holders[holders >= 1]
        by_level: dict[int, list[int]] = {}
        for v in holders:
            by_level.setdefault(int(d_c[v]), []).append(int(v))
        for level in sorted(by_level):
            if level == 0:
                continue
            for v in by_level[level]:
                if level == 1:
                    anchors_c[ci, v] = _own_frac_units(int(deg[v]), mu_est)
                    continue
                best = 0
                for u in g.neighbors(v):
                    if d_c[u] == level - 1 and rank_ok[ci, u]:
                        best = int(u)
                        break  # neighbors ascend, first hit is the smallest
                anchors_c[ci, v] = anchors_c[ci, best]
    for v in g.id_list:
        if np.isfinite(hop[v]):
            anchor[v] = anchors_c[first[v], v]
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

class _TokenNode(NodeProto):
    __slots__ = ("comp", "is_root", "size", "min_steps", "excluded_at",
                 "replied", "fwd_seen", "holding", "seq", "path", "prev",
                 "replies", "decide_at", "my_pass_seq", "loop", "failed",
                 "nbrs_arr")

    def __init__(self, vid, nbrs, comp, size):
        super().__init__(vid, nbrs)
        self.comp = comp
        self.is_root = comp == vid
        self.size = size
        self.min_steps = max(5, -(-size // 10)) if comp else 0
        self.excluded_at = None
        self.replied: set[int] = set()
        self.fwd_seen: set[tuple] = set()
        self.holding = False
        self.seq = 0
        self.path: list[tuple[int, int]] = []
        self.prev: tuple[int, int] | None = None
        self.replies: dict[int, tuple[int, int, int, int]] = {}  # cand -> (score, isroot, excl, via)
        self.decide_at = -1
        self.my_pass_seq = -1
        self.loop: list[tuple[int, int]] | None = None
        self.failed = False
        self.nbrs_arr = np.asarray(nbrs)

    # -- helpers ------------------------------------------------------

    def _query(self, rnd):
        self.seq += 1
        self.my_pass_seq = self.seq
        self.replies = {}
        self.decide_at = rnd + 4
        self.wake = True
        return (K_TQ, self.comp, self.seq) + tuple(self.nbrs_arr.tolist())

    def _score(self, holder_nbrs) -> int:
        other = np.fromiter(holder_nbrs, dtype=np.int64)
        return int(np.intersect1d(self.nbrs_arr, other, assume_unique=True).size)

    def _consider_reply(self, comp, seq, holder, holder_nbrs, via):
        if self.comp != comp or holder == self.vid:
            return ()
        if (comp, seq) in self.replied:
            return ()
        if self.excluded_at == -1 and not self.is_root:
            return ()  # ex-holders never take the token again
        excl = int(self.excluded_at is not None and not self.is_root)
        self.replied.add((comp, seq))
        return ((K_TR, comp, seq, self._score(holder_nbrs), int(self.is_root),
                 excl, via),)

    def _choose(self, rnd):
        # fresh candidates first; already-excluded ones only when the march
        # has consumed everything ahead (keeps the walk from dead-ending at
        # strip pinches); the root closes the loop per the priority rule
        self.decide_at = -1
        steps = len(self.path) - 1
        root_reply = None
        fresh = None
        stale = None
        for cand, (score, isroot, excl, via) in self.replies.items():
            if isroot:
                root_reply = (cand, via)
            elif not excl and (fresh is None or (score, cand) < (fresh[0], fresh[1])):
                fresh = (score, cand, via)
            elif excl and (stale is None or (score, cand) < (stale[0], stale[1])):
                stale = (score, cand, via)
        succ = None
        if root_reply is not None and steps >= self.min_steps:
            succ, via = root_reply
        elif fresh is not None:
            succ, via = fresh[1], fresh[2]
        elif stale is not None:
            succ, via = stale[1], stale[2]
        elif root_reply is not None:
            succ, via = root_reply  # last resort: close early rather than fail
        if succ is None:
            return self._backtrack()
        self.holding = False
        flat = []
        for mem, v in self.path:
            flat.extend((mem, v))
        return ((K_TC, self.comp, self.my_pass_seq, succ, via) + tuple(flat),)

    def _backtrack(self):
        self.holding = False
        if self.prev is None:
            if self.size <= 1:
                self.loop = list(self.path)  # trivial single-node loop
            else:
                self.failed = True
            return ()
        self.excluded_at = -1  # the failed branch stays excluded
        p, via = self.prev
        return ((K_TB, self.comp, self.seq, p, via),)

    def _become_holder(self, rnd, path, prev):
        self.path = path
        self.prev = prev
        self.holding = True
        if self.is_root and len(path) > 1:
            self.loop = list(path)  # closed: query nothing further
            self.holding = False
            return ()
        self.excluded_at = -1  # the walk never revisits an ex-holder
        return (self._query(rnd),)

    # -- round handler --------------------------------------------------

    def on_round(self, rnd, inbox):
        out = []
        if rnd == 0 and self.is_root:
            self.holding = True
            self.path = [(self.vid, 0)]
            out.append(self._query(rnd))
            return out

        for s, m in inbox:
            k = m[0]
            if k == K_TQ:
                comp, seq = m[1], m[2]
                key = (comp, seq, K_TQ)
                if key not in self.fwd_seen:
                    self.fwd_seen.add(key)
                    out.append((K_TQF, comp, seq, s) + m[3:])
                out.extend(self._consider_reply(comp, seq, s, m[3:], 0))
            elif k == K_TQF:
                comp, seq, holder = m[1], m[2], m[3]
                out.extend(self._consider_reply(comp, seq, holder, m[4:], s))
            elif k == K_TR:
                comp, seq, score, isroot, excl, via = m[1], m[2], m[3], m[4], m[5], m[6]
                if via == self.vid:
                    out.append((K_TRF, s, comp, seq, score, isroot, excl))
                elif via == 0 and self.holding and seq == self.my_pass_seq and comp == self.comp:
                    self.replies.setdefault(s, (score, isroot, excl, 0))
            elif k == K_TRF:
                cand, comp, seq, score, isroot, excl = m[1], m[2], m[3], m[4], m[5], m[6]
                if self.holding and seq == self.my_pass_seq and comp == self.comp:
                    self.replies.setdefault(cand, (score, isroot, excl, s))
            elif k in (K_TC, K_TCF):
                if k == K_TC:
                    holder, comp, seq, succ, via = s, m[1], m[2], m[3], m[4]
                    flat = m[5:]
                    key = (comp, seq, K_TC)
                    if key not in self.fwd_seen:
                        self.fwd_seen.add(key)
                        out.append((K_TCF, holder, comp, seq, succ, via) + flat)
                else:
                    holder, comp, seq, succ, via = m[1], m[2], m[3], m[4], m[5]
                    flat = m[6:]
                if comp == self.comp and (comp, seq, "tc") not in self.fwd_seen:
                    self.fwd_seen.add((comp, seq, "tc"))
                    path = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
                    if succ == self.vid:
                        out.append((K_TA, comp, seq, via, holder))
                        self.seq = max(self.seq, seq)  # pass numbering is global
                        out.extend(self._become_holder(
                            rnd, path + [(self.vid, via)], (holder, via)))
                    elif (comp, seq) in self.replied and not self.is_root:
                        self.excluded_at = seq
            elif k == K_TA:
                if m[3] != self.vid and m[2] == self.vid:
                    out.append((K_TAF, m[1], m[2], m[3]))
                # acknowledgment itself needs no further action
            elif k == K_TB:
                comp, seq, dest, via = m[1], m[2], m[3], m[4]
                if dest == self.vid and comp == self.comp:
                    out.extend(self._resume(rnd, seq))
                elif via == self.vid:
                    out.append((K_TBF, comp, seq, dest))
            elif k == K_TBF:
                if m[3] == self.vid and m[1] == self.comp:
                    out.extend(self._resume(rnd, m[2]))
            elif k in (K_TRB, K_TRBF):
                comp, seq, failed = m[1], m[2], m[3]
                if k == K_TRB:
                    key = (comp, seq, K_TRB)
                    if key not in self.fwd_seen:
                        self.fwd_seen.add(key)
                        out.append((K_TRBF, comp, seq, failed))
                if comp == self.comp and self.excluded_at == seq and self.vid != failed:
                    self.excluded_at = None
                    self.replied.discard((comp, seq))

        if self.holding and rnd == self.decide_at:
            out.extend(self._choose(rnd))
        elif self.holding and self.decide_at > rnd:
            self.wake = True
        return out

    def _resume(self, rnd, new_seq):
        # a failed successor bounced the token back: roll back my pass
        # (the failed node marked itself permanently excluded) and re-query
        self.holding = True
        self.seq = max(self.seq, new_seq)
        out = [(K_TRB, self.comp, self.my_pass_seq, 0)]
        out.append(self._query(rnd))
        return out

    def state_name(self):
        return f"token(holding={self.holding},comp={self.comp})"


def run_token_loops(g: UnitDiskGraph, comps: ComponentsResult,
                    max_rounds: int = 200_000,
                    trace=None) -> tuple[dict[int, TokenLoop], RunResult]:
    """Run the token-pass loop in every component concurrently.

    Components whose backtracking exhausts all candidates are omitted from
    the returned mapping (the pipeline warns about each).
    """
    sizes = {c.component_id: c.size for c in comps.components}
    res = run_protocol(
        g,
        lambda v, nb: _TokenNode(v, nb, int(comps.comp_of[v]),
                                 sizes.get(int(comps.comp_of[v]), 0)),
        max_rounds=max_rounds, trace=trace)
    loops: dict[int, TokenLoop] = {}
    for c in comps.components:
        root = c.component_id
        nd = res.nodes[root]
        if nd.failed or nd.loop is None:
            continue
        members = tuple(m for m, _ in nd.loop)
        walk = [members[0]]
        for mem, via in nd.loop[1:]:
            if via:
                walk.append(via)
            walk.append(mem)
        loops[root] = TokenLoop(component_id=root, members=members, walk=tuple(walk))
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
    peaks); ties go to the smaller alpha.  alpha_star is its midpoint.

    An edge links under 2-hop linkage exactly when one endpoint is
    BOUNDARY, that is from the threshold min(deg u, deg v) on.  The grid's
    boundary sets are nested, so the components at every threshold t are
    those of the minimum spanning forest's edges of weight <= t (single
    linkage); the counts equal those of form_components at each alpha.
    """
    if grid is None:
        grid = default_grid()
    grid = tuple(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    deg = g.degrees()
    size = g.max_id + 1
    src = np.repeat(np.arange(size), deg)
    upper = src < g.indices
    u, v = src[upper], g.indices[upper]
    weight = np.minimum(deg[u], deg[v])  # >= 1: scipy would drop a zero-weight edge
    forest = minimum_spanning_tree(sp.csr_matrix((weight, (u, v)), shape=(size, size))).tocoo()
    counts = []
    for a in grid:
        thr = threshold_units(a, mu_est)
        keep = forest.data <= thr
        linked = sp.csr_matrix((forest.data[keep], (forest.row[keep], forest.col[keep])),
                               shape=(size, size))
        labels = connected_components(linked, directed=False)[1]
        members = np.bincount(labels[g.ids[deg[g.ids] <= thr]])
        counts.append(int((members >= max(min_component_size, 1)).sum()))

    plateau = find_plateau(grid, counts)
    if plateau is None:
        raise NoPlateau(f"no interior constant run of length >= 2: {counts}")
    a_lo, a_hi, count = plateau
    return AlphaSweep(grid=grid, component_counts=tuple(counts),
                      plateau=plateau, alpha_star=(a_lo + a_hi) / 2)


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
