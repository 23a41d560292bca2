"""Layered arborescence instances.

The main family is a labeled layered DAG over a ground set [m]: vertices
of layer i carry subset labels whose size grows by eps*rho*m per layer
through an expanding phase and shrinks again through a collapsing phase,
with edges given by label inclusion.  Vertex ids are (layer, colex rank
of the label), so instances are reproducible and edges never need to be
stored: adjacency is regenerated from the labels.

Small explicit instances (private-block gap graphs, the shared-sink
counterexample, a hand-sized quality-1 example) share the same interface.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import accumulate, combinations, islice, repeat

from .scalars import MONO_ONE, Monomial, Scalar

# the explicit builders refuse a k whose closed-form edge count exceeds this;
# config-gap k = 20 (168,400 edges) is the largest it admits
EXPLICIT_EDGE_MAX = 200_000
# bruteforce and shadow-sample refuse an instance whose closed-form count of
# edges or sampler entries exceeds this (see check_work): at m <= 24 the
# largest admitted, bruteforce --m 18 --rho 2/9 (6,129,180 edges) and
# shadow-sample --m 16 --rho 3/16 (6,887,440 entries), take 63 s and 54 s,
# the next ones (about 10.6 million) run past 75 s
WORK_MAX = 7_000_000

Vertex = tuple[int, int]          # (layer, rank)
Edge = tuple[Vertex, Vertex]


class InstanceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# colexicographic subset ranking


def rank_colex(mask: int) -> int:
    """Colex rank of a subset: the sum of C(b, n) over its n-th lowest
    element b, n = 1, 2, ..."""
    rank = n = 0
    while mask:
        low = mask & -mask
        n += 1
        rank += math.comb(low.bit_length() - 1, n)
        mask ^= low
    return rank


def unrank_colex(rank: int, k: int) -> int:
    """Bitmask of the rank-th k-subset in colex order: from the top, each
    element is the largest a with C(a, i) within what is left of the rank."""
    mask = 0
    a = k - 1
    while math.comb(a + 1, k) <= rank:
        a += 1
    for i in range(k, 0, -1):
        while math.comb(a, i) > rank:
            a -= 1
        rank -= math.comb(a, i)
        mask |= 1 << a
        a -= 1
    return mask


def one_bits(mask: int) -> list[int]:
    """The one-bit masks of mask's elements, lowest first."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask &= mask - 1
    return out


# ---------------------------------------------------------------------------
# parameters and degree profile


class InstanceParams:
    """The parameters (m, rho, epsilon) of a labeled instance, checked on
    construction; immutable, equal and hashed by value."""

    def __init__(self, m: int, rho, epsilon):
        rho, epsilon = Fraction(rho), Fraction(epsilon)
        if not 0 < rho <= Fraction(1, 4):
            raise InstanceError(f"rho={rho} outside (0, 1/4]")
        if not 0 < epsilon <= 1:
            raise InstanceError(f"epsilon={epsilon} outside (0, 1]")
        if rho * m < 1:
            raise InstanceError(f"rho*m={rho * m} below 1")
        for name, q in (("rho*m", rho * m), ("eps*rho*m", epsilon * rho * m),
                        ("1/eps", 1 / epsilon)):
            if Fraction(q).denominator != 1:
                raise InstanceError(f"divisibility violation: {name}={q} not integral")
        self.__dict__.update(m=m, rho=rho, epsilon=epsilon)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("InstanceParams is immutable")

    def _key(self) -> tuple:
        return self.m, self.rho, self.epsilon

    def __eq__(self, other):
        if other.__class__ is not InstanceParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"InstanceParams(m={self.m!r}, rho={self.rho!r}, epsilon={self.epsilon!r})"

    def __str__(self) -> str:
        return f"m={self.m}, rho={self.rho}, eps={self.epsilon}"

    # derived sizes, computed once; kept outside the key, so equality and
    # the hash do not see them
    @cached_property
    def rho_m(self) -> int:
        return int(self.rho * self.m)

    @cached_property
    def step(self) -> int:
        """Label-size increment per layer, eps*rho*m."""
        return int(self.epsilon * self.rho * self.m)

    @cached_property
    def ell(self) -> int:
        """Depth 3/eps: three phases of 1/eps layers each."""
        return int(3 / self.epsilon)

    @cached_property
    def peak_layer(self) -> int:
        """Layer index 2/eps where labels reach size 2*rho*m."""
        return int(2 / self.epsilon)

    def label_size(self, i: int) -> int:
        if not 0 <= i <= self.ell:
            raise InstanceError(f"layer {i} out of range")
        if i <= self.peak_layer:
            return i * self.step
        return 4 * self.rho_m - i * self.step

    @cached_property
    def profile(self) -> DegreeProfile:
        """Per-layer degree data, closed forms in the params alone."""
        phase_gammas = _gamma_monomials(self)
        one_over_eps = int(1 / self.epsilon)
        gammas, ks, dplus = [], [], []
        dminus = [0] * (self.ell + 1)
        for i in range(self.ell):
            g = phase_gammas[i // one_over_eps]     # ell = 3/eps: phases 0, 1, 2
            if i < self.peak_layer:
                dp = math.comb(self.m - self.label_size(i), self.step)
            else:
                dp = math.comb(self.label_size(i), self.step)
            gammas.append(g)
            dplus.append(dp)
            ks.append(g.mul(Monomial.from_int(dp)))
        for i in range(1, self.ell + 1):
            if i <= self.peak_layer:
                dminus[i] = math.comb(self.label_size(i), self.step)
            else:
                dminus[i] = math.comb(self.m - self.label_size(i), self.step)
        return DegreeProfile(tuple(ks), tuple(gammas), tuple(dplus), tuple(dminus))


def make_params(m: int, rho, epsilon=1) -> InstanceParams:
    return InstanceParams(m, rho, epsilon)


# Per-layer degree data, tuples indexed by layer: k_i, gamma_i = k_i /
# delta_i^+ and delta_i^+ over 0..ell-1 (scalars, scalars, ints), and the
# graph in-degrees delta_i^- over 1..ell (entry 0 unused = 0)
DegreeProfile = namedtuple("DegreeProfile", "k gamma delta_plus delta_minus")


def _gamma_monomials(p: InstanceParams) -> tuple[Monomial, Monomial, Monomial]:
    eps = p.epsilon
    num = Monomial.from_factorial(p.step)
    fact_rho = Monomial.from_factorial(p.rho_m)
    g1 = num.div(fact_rho.mul(Monomial.from_binomial(p.m - p.rho_m, p.rho_m)).pow(eps))
    g2 = num.div(fact_rho.mul(Monomial.from_binomial(2 * p.rho_m, p.rho_m)).pow(eps))
    g3 = num.div(fact_rho.pow(eps))
    return g1, g2, g3


# ---------------------------------------------------------------------------
# instances


class LayeredInstance:
    """Interface shared by labeled and explicit layered instances."""

    ell: int
    source: Vertex

    def layer_size(self, i: int) -> int:
        raise NotImplementedError

    def vertices(self, i: int):
        return ((i, r) for r in range(self.layer_size(i)))

    def is_sink(self, v: Vertex) -> bool:
        return v[0] == self.ell

    def k_of(self, v: Vertex) -> Scalar:
        raise NotImplementedError

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        raise NotImplementedError

    def in_neighbors(self, v: Vertex) -> list[Vertex]:
        raise NotImplementedError

    def out_degree(self, v: Vertex) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: Vertex) -> int:
        return len(self.in_neighbors(v))

    def edges_into_layer(self, i: int):
        for v in self.vertices(i):
            for u in self.in_neighbors(v):
                yield (u, v)

    def all_edges(self):
        for i in range(1, self.ell + 1):
            yield from self.edges_into_layer(i)

    @property
    def n_vertices(self) -> int:
        return sum(self.layer_size(i) for i in range(self.ell + 1))

    @property
    def n_edges(self) -> int:
        return sum(1 for _ in self.all_edges())

    def frontiers(self, v: Vertex, keep=None):
        """Walk from v towards the sinks: for v's layer and every further
        layer, empty ones included, yield a dict from each vertex of that
        layer to its number of paths from v.  Only vertices z with
        ``keep(z)`` enter the walk."""
        frontier = {v: 1}
        yield frontier
        for _ in range(self.ell - v[0]):
            nxt: dict[Vertex, int] = {}
            for w, c in frontier.items():
                for z in self.out_neighbors(w):
                    if keep is None or keep(z):
                        nxt[z] = nxt.get(z, 0) + c
            frontier = nxt
            yield frontier

    def reachable(self, v: Vertex, u: Vertex) -> bool:
        """True when u is reachable from v (reflexively)."""
        return v[0] <= u[0] and u in next(
            islice(self.frontiers(v), u[0] - v[0], None), ())


class LabeledInstance(LayeredInstance):
    def __init__(self, params: InstanceParams):
        self.params = params
        self.ell = params.ell
        self.profile = params.profile
        self.source = (0, 0)
        self._sizes = [math.comb(params.m, params.label_size(i))
                       for i in range(params.ell + 1)]
        # the labels met so far, per layer: masks by rank and ranks by mask;
        # label and _rank each fill both sides
        self._masks: list[dict[int, int]] = [{} for _ in self._sizes]
        self._ranks: list[dict[int, int]] = [{} for _ in self._sizes]

    def layer_size(self, i: int) -> int:
        return self._sizes[i]

    def label(self, v: Vertex) -> int:
        i, r = v
        try:
            return self._masks[i][r]
        except KeyError:
            if not 0 <= r < self._sizes[i]:
                raise InstanceError(f"no vertex {v}") from None
            mask = self._masks[i][r] = unrank_colex(r, self.params.label_size(i))
            self._ranks[i][mask] = r
            return mask

    def _rank(self, i: int, mask: int) -> int:
        try:
            return self._ranks[i][mask]
        except KeyError:
            r = self._ranks[i][mask] = rank_colex(mask)
            self._masks[i][r] = mask
            return r

    def k_of(self, v: Vertex) -> Scalar:
        if self.is_sink(v):
            raise InstanceError("sinks carry no degree requirement")
        return self.profile.k[v[0]]

    def out_degree(self, v: Vertex) -> int:
        return self.profile.delta_plus[v[0]] if v[0] < self.ell else 0

    def in_degree(self, v: Vertex) -> int:
        return self.profile.delta_minus[v[0]] if v[0] > 0 else 0

    def n_edges_into(self, i: int) -> int:
        """|layer i| * delta_i^-, no edge enumerated."""
        return self._sizes[i] * self.profile.delta_minus[i]

    @property
    def n_edges(self) -> int:
        return sum(map(self.n_edges_into, range(1, self.ell + 1)))

    def first_edges(self) -> list[Edge]:
        """The first edge into each layer: the rank-0 labels are the lowest
        bits, so the first vertices of adjacent layers nest."""
        return [((i - 1, 0), (i, 0)) for i in range(1, self.ell + 1)]

    def _adjacent(self, v: Vertex, j: int) -> list[Vertex]:
        """v's neighbours in the adjacent layer j, in rank order: the labels
        with step more elements than v's that contain it, when layer j's
        labels are the larger, else those it contains with step fewer."""
        if not 0 <= j <= self.ell:
            return []
        p = self.params
        mask = self.label(v)
        grow = p.label_size(j) > p.label_size(v[0])
        pool = one_bits(((1 << p.m) - 1) ^ mask if grow else mask)
        masks = list(map(mask.__xor__, map(sum, combinations(pool, p.step))))
        ranks = list(map(self._ranks[j].get, masks))
        if None in ranks:
            ranks = [self._rank(j, w) if r is None else r for w, r in zip(masks, ranks)]
        ranks.sort()
        return list(zip(repeat(j), ranks))

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacent(v, v[0] + 1)

    def in_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacent(v, v[0] - 1)

    def linked(self, i: int, j: int, overlap: int) -> bool:
        """Whether a vertex of layer i reaches a vertex of layer j >= i
        whose label meets its own in ``overlap`` elements.

        Within a phase the labels must nest; across the peak their union
        must fit inside a peak label of size 2*rho*m.
        """
        p = self.params
        size_i, size_j = p.label_size(i), p.label_size(j)
        if j <= p.peak_layer:
            return overlap == size_i
        if i >= p.peak_layer:
            return overlap == size_j
        return size_i + size_j - overlap <= 2 * p.rho_m

    def reachable(self, v: Vertex, u: Vertex) -> bool:
        return v == u or v[0] < u[0] and self.linked(
            v[0], u[0], (self.label(v) & self.label(u)).bit_count())


# ---------------------------------------------------------------------------
# label cells: counting labels by their overlaps with a few fixed labels


@lru_cache(maxsize=4096)
def _splits(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every vector of nonnegative integers, entry-wise at most ``caps``,
    that sums to ``total``."""
    if not caps:
        return ((),) if total == 0 else ()
    rest = caps[1:]
    return tuple((k, *tail) for k in range(max(0, total - sum(rest)), min(caps[0], total) + 1)
                 for tail in _splits(total - k, rest))


@lru_cache(maxsize=4096)
def _steps(ks: tuple[int, ...], caps: tuple[int, ...], step: int,
           grow: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The labels one step from a label with ``ks`` elements in cells of
    sizes ``caps``: ``step`` elements added (``grow``) or removed, split
    over the cells.  Each split gives the new sizes and its number of
    labels, a product of binomials (per cell, an intersection number of
    the Johnson scheme).  From the empty label (``ks`` all 0, ``grow``)
    they are the labels of size ``step`` by their sizes in the cells."""
    room = tuple(c - k for c, k in zip(caps, ks)) if grow else ks
    sign = 1 if grow else -1
    return tuple((tuple(k + sign * d for k, d in zip(ks, f)), math.prod(map(math.comb, room, f)))
                 for f in _splits(step, room))


class LabelCells:
    """The vertices of a labeled instance in classes: a class is a layer
    with the sizes k_c of its labels in the Venn atoms ("cells") c of some
    fixed labels, and holds prod_c C(|c|, k_c) vertices.

    The classes are the orbits of the permutations of [m] that fix those
    labels, the product of the symmetric groups of the cells.  Labels of
    adjacent layers nest, so the neighbours of a vertex split over the
    cells as the one-step label change does, with binomial counts
    (Delsarte 1973), and the cost depends on the number of classes, not
    of vertices.  A class is represented by the lowest k_c bits of each
    cell c, its first vertex in rank order since colex order is
    increasing-mask order; the representatives of two adjacent classes
    are the ends of an edge.
    """

    def __init__(self, inst: LabeledInstance, labels=()):
        self.inst = inst
        cells = [(1 << inst.params.m) - 1]
        for s in labels:
            cells = [c & s for c in cells] + [c & ~s for c in cells]
        self.cells = [c for c in cells if c]
        self.caps = tuple(c.bit_count() for c in self.cells)
        # per cell, the masks of its lowest 0, 1, ..., |c| bits
        self._low = [list(accumulate(one_bits(c), initial=0)) for c in self.cells]
        self.rep = cache(self.rep)          # one colex rank per class

    def key(self, v: Vertex) -> tuple:
        """The class of v."""
        label = self.inst.label(v)
        return v[0], tuple((label & c).bit_count() for c in self.cells)

    def rep(self, cls: tuple) -> Vertex:
        """The first vertex of ``cls`` in rank order."""
        mask = sum(low[k] for low, k in zip(self._low, cls[1]))
        return cls[0], self.inst._rank(cls[0], mask)

    def classes(self, i: int) -> list:
        """Layer i's classes, in the rank order of their first vertices."""
        size = self.inst.params.label_size(i)
        return sorted(((i, ks) for ks in _splits(size, self.caps)), key=self.rep)

    def neighbours(self, cls: tuple, j: int) -> list:
        """(class, count) of the neighbours in the adjacent layer j of a
        vertex in ``cls``."""
        i, ks = cls
        p = self.inst.params
        grow = p.label_size(j) > p.label_size(i)
        return [((j, to), n) for to, n in _steps(ks, self.caps, p.step, grow)]


class SingleVertices:
    """The partition of any layered instance into its vertices, each its
    own class, with the interface of :class:`LabelCells`: the walk, for a
    model with no symmetry to use."""

    def __init__(self, inst: LayeredInstance):
        self.inst = inst

    def key(self, v: Vertex) -> Vertex:
        return v

    rep = key

    def classes(self, i: int) -> list:
        return list(self.inst.vertices(i))

    def neighbours(self, cls: Vertex, j: int) -> list:
        near = self.inst.in_neighbors if j < cls[0] else self.inst.out_neighbors
        return [(w, 1) for w in near(cls)]


def _weighted_sum(terms) -> Fraction:
    """The sum of n * q over the pairs (n, q), over the lcm of the
    denominators and reduced once: values of one edge function share most
    of their denominators, so this saves a gcd of long integers per term."""
    terms = list(terms)
    den = 1
    for _, q in terms:
        den *= q.denominator // math.gcd(den, q.denominator)
    return Fraction(sum(n * q.numerator * (den // q.denominator) for n, q in terms), den)


class ClassSums:
    """An edge function and its vertex in/out sums, each computed once per
    class of ``part``, a partition of the vertices that the function
    respects (:class:`LabelCells` or :class:`SingleVertices`).  An edge's
    class is the pair of its end classes, evaluated by ``value`` at its
    representative edge, and a vertex's sums add each neighbour class
    times its count, unless ``sums`` gives a class's sums another way.
    ``values`` keeps every class pair evaluated so far.
    """

    def __init__(self, part, value, sums=None):
        self.part = part
        self.value = value
        self.values: dict[tuple, Fraction] = {}
        self.class_sums = cache(sums or self.class_sums)    # one (in, out) per class

    def pair(self, tail, head) -> Fraction:
        p = self.values.get((tail, head))
        if p is None:
            p = self.values[tail, head] = self.value((self.part.rep(tail), self.part.rep(head)))
        return p

    def edge(self, e: Edge) -> Fraction:
        return self.pair(self.part.key(e[0]), self.part.key(e[1]))

    def class_sums(self, cls) -> tuple[Fraction, Fraction]:
        """(sum over the in-edges, sum over the out-edges) of a vertex in cls."""
        i = cls[0]                      # the layer, in either kind of class
        ins = outs = Fraction(0)
        if i > 0:
            ins = _weighted_sum((n, self.pair(c, cls))
                                for c, n in self.part.neighbours(cls, i - 1))
        if i < self.part.inst.ell:
            outs = _weighted_sum((n, self.pair(cls, c))
                                 for c, n in self.part.neighbours(cls, i + 1))
        return ins, outs

    def vertex(self, v: Vertex) -> tuple[Fraction, Fraction]:
        """(sum over the in-edges, sum over the out-edges) of v."""
        return self.class_sums(self.part.key(v))

    def first_vertices(self, i: int):
        """(v, vertex(v)) for the first vertex of each class of layer i, in
        rank order; every other vertex repeats its class's sums."""
        return ((self.part.rep(c), self.class_sums(c)) for c in self.part.classes(i))


class ExplicitInstance(LayeredInstance):
    def __init__(self, layers: list[list[Vertex]], out_adj: dict[Vertex, list[Vertex]],
                 k_map: dict[Vertex, Scalar]):
        self._layers = layers
        self.ell = len(layers) - 1
        self.source = layers[0][0]
        self._out = {v: sorted(ws) for v, ws in out_adj.items()}
        self._in: dict[Vertex, list[Vertex]] = {}
        for v, ws in self._out.items():
            for w in ws:
                self._in.setdefault(w, []).append(v)
        for w in self._in:
            self._in[w].sort()
        self._k = k_map

    def layer_size(self, i: int) -> int:
        return len(self._layers[i])

    def vertices(self, i: int):
        return iter(self._layers[i])

    def k_of(self, v: Vertex) -> Scalar:
        if self.is_sink(v):
            raise InstanceError("sinks carry no degree requirement")
        return self._k[v]

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._out.get(v, [])

    def in_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._in.get(v, [])


# ---------------------------------------------------------------------------
# builders


def build_mmda(params: InstanceParams) -> LabeledInstance:
    """The labeled instance of params.  It is lazy: labels and adjacency
    are generated on use, so building it costs nothing at any m."""
    return LabeledInstance(params)


# Max-min allocation translation of a private-block gap instance; values
# maps (player, resource) to a Fraction, missing means 0
SantaView = namedtuple("SantaView", "players resources values target")


def check_work(at: str, count: int, what: str, bound: int):
    """Refuse a call whose closed-form ``count`` of ``what`` exceeds
    ``bound``, before anything is built; ``at`` names the parameters."""
    if count > bound:
        raise InstanceError(f"{at} gives {count} {what}, above {bound}")


def _check_explicit_k(k: int, edges: int):
    if k < 2:
        raise InstanceError("k must be at least 2")
    check_work(f"k={k}", edges, "edges", EXPLICIT_EDGE_MAX)


def build_config_lp_gap(k: int):
    """Source feeding k^2 private blocks of k middle vertices and k sinks."""
    _check_explicit_k(k, k * k + k ** 3 + k ** 4)
    s = (0, 0)
    l1 = [(1, j) for j in range(k * k)]
    l2 = [(2, j) for j in range(k * k * k)]
    l3 = [(3, j) for j in range(k * k * k)]
    out = {s: list(l1)}
    for j, v in enumerate(l1):
        out[v] = [(2, j * k + t) for t in range(k)]
    # each middle vertex is joined to all k sinks of its own block
    for j, w in enumerate(l2):
        block = j // k
        out[w] = [(3, block * k + t) for t in range(k)]
    kk = Fraction(k)
    k_map = {s: kk, **{v: kk for v in l1}, **{w: kk for w in l2}}
    inst = ExplicitInstance([[s], l1, l2, l3], out, k_map)
    inst.santa = _santa_view(inst, k)
    return inst


def _santa_view(inst: ExplicitInstance, k: int) -> SantaView:
    inv_k = Fraction(1, k)
    players = [inst.source] + list(inst.vertices(1)) + list(inst.vertices(2))
    resources = [v for i in (1, 2, 3) for v in inst.vertices(i)]
    values = {}
    for pl in players:
        if pl != inst.source:
            values[(pl, pl)] = Fraction(1)      # own private resource
        for w in inst.out_neighbors(pl):
            values[(pl, w)] = inv_k             # next layer privates
    return SantaView(tuple(players), tuple(resources), values, Fraction(1))


def build_subtree_counterexample(k: int) -> ExplicitInstance:
    """Depth 2: k^2 middle vertices with one private sink each plus k
    public sinks shared by everyone."""
    _check_explicit_k(k, 2 * k * k + k ** 3)
    s = (0, 0)
    l1 = [(1, j) for j in range(k * k)]
    private = [(2, j) for j in range(k * k)]
    public = [(2, k * k + t) for t in range(k)]
    out = {s: list(l1)}
    for j, v in enumerate(l1):
        out[v] = [private[j]] + public
    kk = Fraction(k)
    k_map = {s: kk, **{v: kk for v in l1}}
    inst = ExplicitInstance([[s], l1, private + public], out, k_map)
    inst.public_sinks = tuple(public)
    inst.private_sinks = tuple(private)
    return inst


def build_depth3_example() -> ExplicitInstance:
    """Small depth-3 instance with k_v = 2 everywhere.

    Contains a perfect binary arborescence (quality 1) while any single
    directed path gives quality 1/2; a few cross edges keep the search
    honest.
    """
    s = (0, 0)
    l1 = [(1, 0), (1, 1)]
    l2 = [(2, j) for j in range(4)]
    l3 = [(3, j) for j in range(8)]
    out = {
        s: l1,
        (1, 0): [(2, 0), (2, 1), (2, 2)],
        (1, 1): [(2, 1), (2, 2), (2, 3)],
        (2, 0): [(3, 0), (3, 1), (3, 2)],
        (2, 1): [(3, 2), (3, 3)],
        (2, 2): [(3, 4), (3, 5)],
        (2, 3): [(3, 5), (3, 6), (3, 7)],
    }
    two = Fraction(2)
    k_map = {s: two, **{v: two for v in l1}, **{w: two for w in l2}}
    return ExplicitInstance([[s], l1, l2, l3], out, k_map)


def desiderata_identities(params: InstanceParams) -> list[tuple[str, bool]]:
    """Exact identities pinning the products of k_i over each phase.

    prod_{i<1/eps} k_i = C(m, rm)/C((1-rho)m, rm),
    prod_{i<2/eps} k_i = C(m, rm)/C(2rm, rm),
    prod_{i<3/eps} k_i = C(m, rm);
    checked as prime-exponent maps, so equality is syntactic.
    """
    prof = params.profile
    m, rm = params.m, params.rho_m
    one_over_eps = int(1 / params.epsilon)
    running = MONO_ONE
    targets = {
        one_over_eps: Monomial.from_binomial(m, rm).div(
            Monomial.from_binomial(m - rm, rm)),
        2 * one_over_eps: Monomial.from_binomial(m, rm).div(
            Monomial.from_binomial(2 * rm, rm)),
        3 * one_over_eps: Monomial.from_binomial(m, rm),
    }
    out = []
    for i in range(params.ell):
        running = running.mul(prof.gamma[i]).mul(Monomial.from_int(prof.delta_plus[i]))
        if i + 1 in targets:
            out.append((f"phase-prefix:{i + 1}", running == targets[i + 1]))
    return out


# ---------------------------------------------------------------------------
# JSON form: labels are never serialized, edges are label-determined


def instance_to_json(inst: LayeredInstance) -> dict:
    from .scalars import scalar_to_json
    if isinstance(inst, LabeledInstance):
        p = inst.params
        return {
            "schema_version": 1,
            "kind": "labeled",
            "params": {"m": p.m, "rho": str(p.rho),
                       "epsilon": str(p.epsilon), "ell": p.ell},
            "layers": [{"index": i, "label_size": p.label_size(i),
                        "size": inst.layer_size(i)}
                       for i in range(p.ell + 1)],
            "profile": {
                "k": [scalar_to_json(k) for k in inst.profile.k],
                "gamma": [scalar_to_json(g) for g in inst.profile.gamma],
                "delta_plus": list(inst.profile.delta_plus),
                "delta_minus": list(inst.profile.delta_minus),
            },
        }
    out = {
        "schema_version": 1,
        "kind": "explicit",
        "layers": [[list(v) for v in inst.vertices(i)] for i in range(inst.ell + 1)],
        "edges": [[list(u), list(v)] for u, v in inst.all_edges()],
        "k": [[list(v), scalar_to_json(inst.k_of(v))]
              for i in range(inst.ell) for v in inst.vertices(i)],
    }
    return out


def instance_from_json(data) -> LayeredInstance:
    """The instance :func:`instance_to_json` wrote.  A labeled document may
    leave out ``ell``; a malformed one raises InstanceError."""
    try:
        if data.get("kind") == "labeled":
            q = data["params"]
            if type(q["m"]) is not int:     # 8.7, "8" and true are no m
                raise InstanceError(f"m={q['m']!r} is not an integer")
            params = InstanceParams(q["m"], q["rho"], q["epsilon"])
            if q.get("ell", params.ell) != params.ell:
                raise InstanceError(f"ell={q['ell']} is not 3/epsilon={params.ell}")
            return build_mmda(params)
        layers = [[tuple(v) for v in layer] for layer in data["layers"]]
        if any(v[0] != i for i, layer in enumerate(layers) for v in layer):
            raise InstanceError("a vertex (layer, index) is listed in another layer")
        listed = {v for layer in layers for v in layer}
        out_adj: dict[Vertex, list[Vertex]] = {}
        for u, v in data["edges"]:
            u, v = tuple(u), tuple(v)
            if not (u in listed and v in listed and v[0] == u[0] + 1):
                raise InstanceError(f"edge {u} -> {v} does not join listed vertices "
                                    f"of consecutive layers")
            out_adj.setdefault(u, []).append(v)
        k_map = {tuple(v): Fraction(entry["exact"]) for v, entry in data["k"]}
        for v, k in k_map.items():
            if k <= 0:
                raise InstanceError(f"vertex {v} has requirement k={k}; k must be positive")
        if not all(v in k_map for layer in layers[:-1] for v in layer):
            raise InstanceError("a vertex outside the sink layer has no requirement k")
        return ExplicitInstance(layers, out_adj, k_map)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance document: "
                            f"{type(exc).__name__}: {exc}") from exc
