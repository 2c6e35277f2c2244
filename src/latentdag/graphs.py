"""Directed and partially directed graphs: d-separation, skeletons,
v-structures, CPDAG completion and Markov-equivalence testing.

Nodes are integers ``0..n-1``; an optional name list travels with each graph
for serialization. d-separation is decided by reachability in the moral
graph of the ancestral set; a literal trail-enumeration counterpart lives in
the test suite as an independent oracle.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

from .data import _check_id, _check_integer, _repeated

__all__ = [
    "Dag",
    "Pdag",
    "Trail",
    "d_separated",
    "skeleton",
    "v_structures",
    "cpdag_of",
    "markov_equivalent",
    "enumerate_trails",
]


class Dag:
    """Mutable directed acyclic graph over integer nodes.

    Every mutation re-checks acyclicity, so an instance is a DAG at all
    times. At most one arc may join an unordered pair of nodes.
    """

    def __init__(self, n_nodes: int, names: Sequence[str] | None = None):
        self.n_nodes = n_nodes
        self.names = _node_names(n_nodes, names)
        self._parents: list[set[int]] = [set() for _ in range(n_nodes)]
        self._children: list[set[int]] = [set() for _ in range(n_nodes)]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arcs(cls, n_nodes: int, arcs: Iterable[tuple[int, int]],
                  names: Sequence[str] | None = None) -> "Dag":
        g = cls(n_nodes, names)
        for u, v in arcs:
            g.add_arc(u, v)
        return g

    def copy(self) -> "Dag":
        g = Dag(self.n_nodes, list(self.names))
        for i in range(self.n_nodes):
            g._parents[i] = set(self._parents[i])
            g._children[i] = set(self._children[i])
        return g

    def add_node(self, name: str | None = None) -> int:
        """Append a fresh isolated node and return its id; a name that the
        node-list check refuses raises ``ValueError`` and leaves the graph
        as it was."""
        i = self.n_nodes
        self.names = _node_names(i + 1, [*self.names, f"X{i}" if name is None else name])
        self.n_nodes += 1
        self._parents.append(set())
        self._children.append(set())
        return i

    # -- mutation ----------------------------------------------------------

    def add_arc(self, u: int, v: int) -> "Dag":
        """Insert ``u -> v``; rejects self-loops, duplicates and cycles."""
        u, v = self._check(u), self._check(v)
        if u == v:
            raise ValueError("self-arcs are not allowed")
        if v in self._children[u] or u in self._children[v]:
            raise ValueError(
                f"an arc between {self.names[u]} and {self.names[v]} already exists"
            )
        if self.reaches(v, u):
            raise ValueError(
                f"arc {self.names[u]} -> {self.names[v]} would create a cycle"
            )
        self._children[u].add(v)
        self._parents[v].add(u)
        return self

    def remove_arc(self, u: int, v: int) -> "Dag":
        u, v = self._check(u), self._check(v)
        if v not in self._children[u]:
            raise ValueError(f"no arc {self.names[u]} -> {self.names[v]}")
        self._children[u].discard(v)
        self._parents[v].discard(u)
        return self

    # -- queries -----------------------------------------------------------

    def _check(self, x: int) -> int:
        return _check_id("node", x, self.n_nodes)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown node {name!r}") from None

    def reaches(self, src: int, dst: int) -> bool:
        """Whether a directed path leads from ``src`` to ``dst`` other than
        the single arc ``src -> dst``.

        Adding ``u -> v`` between non-adjacent nodes closes a cycle iff
        ``reaches(v, u)``; reversing ``u -> v`` closes one iff
        ``reaches(u, v)``.
        """
        stack = [src]
        seen = {src}
        while stack:
            x = stack.pop()
            for c in self._children[x]:
                if c == dst:
                    if x != src:
                        return True
                elif c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._children[u]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._children[u] or u in self._children[v]

    def parents(self, v: int) -> set[int]:
        self._check(v)
        return set(self._parents[v])

    def children(self, u: int) -> set[int]:
        self._check(u)
        return set(self._children[u])

    def arcs(self) -> list[tuple[int, int]]:
        return sorted(
            (u, v) for u in range(self.n_nodes) for v in self._children[u]
        )

    def descendants(self, x: int) -> set[int]:
        """Transitive closure of children; ``x`` itself is excluded."""
        return self._closure(x, self._children)

    def ancestors(self, x: int) -> set[int]:
        """Transitive closure of parents; ``x`` itself is excluded."""
        return self._closure(x, self._parents)

    def _closure(self, x: int, links: list[set[int]]) -> set[int]:
        self._check(x)
        out: set[int] = set()
        stack = list(links[x])
        while stack:
            y = stack.pop()
            if y not in out:
                out.add(y)
                stack.extend(links[y])
        return out

    def topological_order(self) -> list[int]:
        """Kahn's algorithm, smallest id first among the available nodes."""
        import heapq

        indeg = [len(self._parents[i]) for i in range(self.n_nodes)]
        heap = [i for i in range(self.n_nodes) if indeg[i] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            x = heapq.heappop(heap)
            order.append(x)
            for c in sorted(self._children[x]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        assert len(order) == self.n_nodes, "cycle slipped through add_arc"
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.n_nodes == other.n_nodes and self.arcs() == other.arcs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag({self.n_nodes}, {self.arcs()})"

    def to_json(self) -> str:
        return json.dumps(
            {"nodes": self.names, "arcs": [[self.names[u], self.names[v]] for u, v in self.arcs()]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Dag":
        doc, names = _graph_doc(text)
        return cls.from_arcs(len(names), _pairs(doc, "arcs", names), names)


def _node_names(n_nodes: int, names: Sequence[str] | None) -> list[str]:
    """The checked node names of an ``n_nodes``-node graph; X0, X1, ... by default."""
    _check_integer("n_nodes", n_nodes)
    if n_nodes < 0:
        raise ValueError("n_nodes must be >= 0")
    if names is None:
        return [f"X{i}" for i in range(n_nodes)]
    names = list(names)
    if len(names) != n_nodes:
        raise ValueError("names length must equal n_nodes")
    for name in names:
        if not (isinstance(name, str) and name):
            raise ValueError(f"node name {name!r} is not a non-empty string")
    repeated = _repeated(names)
    if repeated is not None:
        raise ValueError(f"duplicate node name {repeated!r}")
    return names


def _graph_doc(text: str) -> tuple[dict, list[str]]:
    """Parse a graph JSON document into the object and its node names."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"graph JSON must be an object, not {type(doc).__name__}")
    names = doc.get("nodes")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError("graph JSON needs 'nodes', a list of node names")
    return doc, names


def _pair(item, field: str, names: list[str]) -> tuple[int, int]:
    """Node ids of a ``[from, to]`` pair of names."""
    if not (isinstance(item, list) and len(item) == 2):
        raise ValueError(f"{field} entry {item!r} is not a [from, to] pair")
    for x in item:
        if x not in names:
            raise ValueError(f"{field} entry {item!r} names unknown node {x!r}")
    return names.index(item[0]), names.index(item[1])


def _pairs(doc: dict, key: str, names: list[str]) -> list[tuple[int, int]]:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"graph JSON's {key!r} must be a list of [from, to] pairs")
    return [_pair(item, repr(key), names) for item in items]


@dataclass(frozen=True)
class Trail:
    """A simple path in the skeleton, remembering each step's direction.

    ``nodes`` is the visited sequence; ``forward[i]`` is True when the arc
    joining ``nodes[i]`` and ``nodes[i+1]`` points ahead
    (``nodes[i] -> nodes[i+1]``).
    """

    nodes: tuple[int, ...]
    forward: tuple[bool, ...]

    def blocked_by(self, g: Dag, z: frozenset[int] | set[int]) -> int | None:
        """Return the index of a blocking interior node, or None if active.

        An interior node blocks when it is a non-collider inside the
        conditioning set, or a collider with neither itself nor any of its
        descendants in the conditioning set.
        """
        z = set(z)
        for i in range(1, len(self.nodes) - 1):
            is_collider = self.forward[i - 1] and not self.forward[i]
            node = self.nodes[i]
            if is_collider:
                if node not in z and not (g.descendants(node) & z):
                    return i
            else:
                if node in z:
                    return i
        return None


def enumerate_trails(g: Dag, x: int, y: int) -> Iterator[Trail]:
    """Every simple trail between ``x`` and ``y`` (either arc direction), as
    an iterator; both ends are checked before it is returned."""
    x, y = g._check(x), g._check(y)

    def neighbours(v: int) -> list[tuple[int, bool]]:
        out = [(c, True) for c in g.children(v)]
        out += [(p, False) for p in g.parents(v)]
        return sorted(out)

    path = [x]
    dirs: list[bool] = []
    on_path = {x}

    def walk() -> Iterator[Trail]:
        v = path[-1]
        if v == y:
            yield Trail(tuple(path), tuple(dirs))
            return
        for w, fwd in neighbours(v):
            if w in on_path:
                continue
            path.append(w)
            dirs.append(fwd)
            on_path.add(w)
            yield from walk()
            on_path.discard(w)
            dirs.pop()
            path.pop()

    return walk()


def _as_set(g: Dag, nodes: int | Iterable[int]) -> set[int]:
    """The checked ids of one node, or of an iterable of nodes."""
    if not isinstance(nodes, Iterable):
        nodes = (nodes,)
    return {g._check(x) for x in nodes}


def d_separated(g: Dag, u: int | Iterable[int], v: int | Iterable[int],
                z: Iterable[int] = ()) -> bool:
    """Decide whether every trail between ``u`` and ``v`` is blocked by ``z``.

    Uses the moral-graph criterion (Lauritzen, Dawid, Larsen & Leimer,
    Networks 1990): ``z`` d-separates ``u`` and ``v`` iff no path joins them
    in the moral graph of the ancestors of ``u``, ``v`` and ``z`` once ``z``
    is removed.
    """
    us, vs, zs = _as_set(g, u), _as_set(g, v), _as_set(g, z)
    if us & vs or us & zs or vs & zs:
        raise ValueError("u, v and z must be pairwise disjoint")

    # one walk up the parents collects the ancestors and their moral links:
    # each node to its parents, and each node's parents to each other (a
    # parent listed among its own neighbours is harmless)
    moral: dict[int, set[int]] = {x: set() for x in us | vs | zs}
    stack = list(moral)
    while stack:
        x = stack.pop()
        ps = g._parents[x]
        moral[x] |= ps
        for p in ps:
            if p not in moral:
                stack.append(p)
            moral.setdefault(p, set()).update(ps, (x,))

    seen = set(us)
    stack = list(us)
    while stack:
        for y in moral[stack.pop()]:
            if y in vs:
                return False
            if y not in seen and y not in zs:
                seen.add(y)
                stack.append(y)
    return True


def skeleton(g: Dag) -> set[tuple[int, int]]:
    """Undirected arc set, each pair reported as ``(min, max)``."""
    return {(min(u, v), max(u, v)) for u, v in g.arcs()}


def v_structures(g: Dag) -> set[tuple[int, int, int]]:
    """Unshielded colliders ``(x, z, y)`` with ``x -> z <- y``, ``x < y``."""
    out = set()
    for zn in range(g.n_nodes):
        ps = sorted(g._parents[zn])
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                x, y = ps[i], ps[j]
                if not g.adjacent(x, y):
                    out.add((x, zn, y))
    return out


class Pdag:
    """Partially directed graph: directed arcs, undirected edges, plus an
    annotation list of recovered latent variables (name + two children)."""

    def __init__(self, n_nodes: int, names: Sequence[str] | None = None):
        self.n_nodes = n_nodes
        self.names = _node_names(n_nodes, names)
        self.directed: set[tuple[int, int]] = set()
        self.undirected: set[tuple[int, int]] = set()
        self.latents: list[tuple[str, tuple[int, int]]] = []

    def add_directed(self, u: int, v: int) -> None:
        u, v = self._link(u, v)
        if (min(u, v), max(u, v)) in self.undirected or (v, u) in self.directed:
            raise ValueError("pair already linked")
        self.directed.add((u, v))

    def add_undirected(self, u: int, v: int) -> None:
        u, v = self._link(u, v)
        if (u, v) in self.directed or (v, u) in self.directed:
            raise ValueError("pair already linked")
        self.undirected.add((min(u, v), max(u, v)))

    def _link(self, u: int, v: int) -> tuple[int, int]:
        """The checked ids of a link between two different nodes."""
        u, v = _check_id("node", u, self.n_nodes), _check_id("node", v, self.n_nodes)
        if u == v:
            raise ValueError(f"self-link on {self.names[u]} is not allowed")
        return u, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.directed == other.directed
            and self.undirected == other.undirected
            and sorted(self.latents) == sorted(other.latents)
        )

    def to_json(self) -> str:
        doc = {
            "nodes": self.names,
            "directed": [
                [self.names[u], self.names[v]] for u, v in sorted(self.directed)
            ],
            "undirected": [
                [self.names[u], self.names[v]] for u, v in sorted(self.undirected)
            ],
            "latents": [
                {"name": name, "children": [self.names[a], self.names[b]]}
                for name, (a, b) in self.latents
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Pdag":
        doc, names = _graph_doc(text)
        p = cls(len(names), names)
        for u, v in _pairs(doc, "directed", names):
            p.add_directed(u, v)
        for u, v in _pairs(doc, "undirected", names):
            p.add_undirected(u, v)
        latents = doc.get("latents", [])
        if not isinstance(latents, list):
            raise ValueError(f"graph JSON's 'latents' must be a list, not {latents!r}")
        for lat in latents:
            if not (isinstance(lat, dict) and isinstance(lat.get("name"), str)
                    and "children" in lat):
                raise ValueError(f"latents entry {lat!r} is not an object with a string "
                                 "'name' and a 'children' pair")
            a, b = _pair(lat["children"], "latent children", names)
            if a == b:
                raise ValueError(f"latents entry {lat!r} names one child twice")
            p.latents.append((lat["name"], (a, b)))
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pdag(directed={sorted(self.directed)}, "
            f"undirected={sorted(self.undirected)}, latents={self.latents})"
        )


def markov_equivalent(g1: Dag, g2: Dag) -> bool:
    """Same skeleton and same v-structures (classic equivalence criterion)."""
    if g1.n_nodes != g2.n_nodes:
        raise ValueError("graphs have different node sets")
    return skeleton(g1) == skeleton(g2) and v_structures(g1) == v_structures(g2)


def cpdag_of(g: Dag) -> Pdag:
    """Equivalence-class representative: an edge stays directed iff every
    DAG Markov-equivalent to ``g`` orients it the same way (Chickering,
    JMLR 2002).

    The v-structure arcs start directed and the other edges undirected;
    then Meek's rules 1-3 orient what they force until no edge changes.
    Without background knowledge those three rules already give the CPDAG
    (Meek, UAI 1995), so rule 4 is not needed. The rules are sound: each
    arc they orient has the same direction in every member of the class,
    ``g`` included, so an undirected edge is kept as ``g``'s arc and only
    that direction is tested.
    """
    vs = v_structures(g)
    arcs = {(x, z) for x, z, _ in vs} | {(y, z) for _, z, y in vs}
    edges = set(g.arcs()) - arcs

    def undirected(a: int, b: int) -> bool:
        return (a, b) in edges or (b, a) in edges

    def forced(a: int, b: int) -> bool:
        into_b = [c for c in g._parents[b] if (c, b) in arcs]
        return (
            # rule 1: c -> a - b with c, b non-adjacent
            any((c, a) in arcs and not g.adjacent(c, b) for c in g._parents[a])
            # rule 2: a -> c -> b with a - b
            or any((a, c) in arcs for c in into_b)
            # rule 3: a - c -> b and a - d -> b with c, d non-adjacent
            or any(not g.adjacent(c, d) for c, d in
                   combinations([c for c in into_b if undirected(a, c)], 2))
        )

    while fired := {e for e in edges if forced(*e)}:
        arcs |= fired
        edges -= fired

    out = Pdag(g.n_nodes, list(g.names))
    out.directed = arcs
    out.undirected = {(min(e), max(e)) for e in edges}
    return out
