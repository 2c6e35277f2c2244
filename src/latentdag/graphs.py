"""Directed and partially directed graphs: d-separation, skeletons,
v-structures, CPDAG completion and Markov-equivalence testing.

Nodes are integers ``0..n-1``; an optional name list travels with each graph
for serialization. d-separation is decided by a linear-time reachability
sweep over (node, entry-direction) states; a literal trail-enumeration
counterpart lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        if n_nodes < 0:
            raise ValueError("n_nodes must be >= 0")
        if names is not None:
            names = list(names)
            if len(names) != n_nodes:
                raise ValueError("names length must equal n_nodes")
            if len(set(names)) != len(names):
                raise ValueError("duplicate node names")
        self.n_nodes = n_nodes
        self.names: list[str] = names if names is not None else [f"X{i}" for i in range(n_nodes)]
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
        """Append a fresh isolated node and return its id."""
        i = self.n_nodes
        self.n_nodes += 1
        self.names.append(name if name is not None else f"X{i}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate node name {name!r}")
        self._parents.append(set())
        self._children.append(set())
        return i

    # -- mutation ----------------------------------------------------------

    def add_arc(self, u: int, v: int) -> "Dag":
        """Insert ``u -> v``; rejects self-loops, duplicates and cycles."""
        self._check(u)
        self._check(v)
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
        self._check(u)
        self._check(v)
        if v not in self._children[u]:
            raise ValueError(f"no arc {self.names[u]} -> {self.names[v]}")
        self._children[u].discard(v)
        self._parents[v].discard(u)
        return self

    # -- queries -----------------------------------------------------------

    def _check(self, x: int) -> None:
        if not 0 <= x < self.n_nodes:
            raise KeyError(f"node {x} out of range")

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
        self._check(x)
        out: set[int] = set()
        stack = list(self._children[x])
        while stack:
            y = stack.pop()
            if y not in out:
                out.add(y)
                stack.extend(self._children[y])
        return out

    def ancestors(self, x: int) -> set[int]:
        self._check(x)
        out: set[int] = set()
        stack = list(self._parents[x])
        while stack:
            y = stack.pop()
            if y not in out:
                out.add(y)
                stack.extend(self._parents[y])
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
        doc = json.loads(text)
        names = list(doc["nodes"])
        idx = {n: i for i, n in enumerate(names)}
        g = cls(len(names), names)
        for u, v in doc.get("arcs", []):
            if u not in idx or v not in idx:
                raise ValueError(f"arc references unknown node: {u!r} -> {v!r}")
            g.add_arc(idx[u], idx[v])
        return g


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
    """Yield every simple trail between ``x`` and ``y`` (either arc direction)."""

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

    yield from walk()


def _as_set(nodes: int | Iterable[int]) -> set[int]:
    if isinstance(nodes, int):
        return {nodes}
    return set(nodes)


def d_separated(g: Dag, u: int | Iterable[int], v: int | Iterable[int],
                z: Iterable[int] = ()) -> bool:
    """Decide whether every trail between ``u`` and ``v`` is blocked by ``z``.

    Uses the standard reachability formulation: walk (node, entry-direction)
    states, where a trail may pass through a non-collider not in ``z`` and
    through a collider whose node or descendant lies in ``z``.
    """
    us, vs, zs = _as_set(u), _as_set(v), _as_set(z)
    for s in (us, vs, zs):
        for x in s:
            g._check(x)
    if us & vs or us & zs or vs & zs:
        raise ValueError("u, v and z must be pairwise disjoint")

    # nodes that can open a collider: z and the ancestors of z
    opens = set(zs)
    for x in zs:
        opens |= g.ancestors(x)

    for src in us:
        # state (node, arrived_from_child): True when we entered against the
        # arc (moving up); the start behaves like an up-entry so both parents
        # and children of src are explored.
        frontier: list[tuple[int, bool]] = [(src, True)]
        visited: set[tuple[int, bool]] = set()
        while frontier:
            node, up = frontier.pop()
            if (node, up) in visited:
                continue
            visited.add((node, up))
            if node != src and node not in zs and node in vs:
                return False
            if up:
                if node not in zs:
                    for p in g._parents[node]:
                        frontier.append((p, True))
                    for c in g._children[node]:
                        frontier.append((c, False))
            else:
                if node not in zs:
                    for c in g._children[node]:
                        frontier.append((c, False))
                if node in opens:
                    for p in g._parents[node]:
                        frontier.append((p, True))
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
        self.names: list[str] = (
            list(names) if names is not None else [f"X{i}" for i in range(n_nodes)]
        )
        if len(self.names) != n_nodes:
            raise ValueError("names length must equal n_nodes")
        self.directed: set[tuple[int, int]] = set()
        self.undirected: set[tuple[int, int]] = set()
        self.latents: list[tuple[str, tuple[int, int]]] = []

    def add_directed(self, u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if key in self.undirected or (v, u) in self.directed:
            raise ValueError("pair already linked")
        self.directed.add((u, v))

    def add_undirected(self, u: int, v: int) -> None:
        if (u, v) in self.directed or (v, u) in self.directed:
            raise ValueError("pair already linked")
        self.undirected.add((min(u, v), max(u, v)))

    def links(self) -> set[tuple[int, int]]:
        """All linked unordered pairs, regardless of orientation."""
        return {(min(u, v), max(u, v)) for u, v in self.directed} | set(self.undirected)

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
        doc = json.loads(text)
        names = list(doc["nodes"])
        idx = {n: i for i, n in enumerate(names)}
        p = cls(len(names), names)
        for u, v in doc.get("directed", []):
            p.add_directed(idx[u], idx[v])
        for u, v in doc.get("undirected", []):
            p.add_undirected(idx[u], idx[v])
        for lat in doc.get("latents", []):
            a, b = lat["children"]
            p.latents.append((lat["name"], (idx[a], idx[b])))
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
    """Equivalence-class representative: v-structure arcs stay directed,
    then the four standard orientation-propagation rules run to fixpoint,
    and whatever remains is left undirected."""
    n = g.n_nodes
    # mixed adjacency: mark[u][v] = '>' (u->v), '<' or '-'
    adj: list[dict[int, str]] = [dict() for _ in range(n)]
    for u, v in skeleton(g):
        adj[u][v] = "-"
        adj[v][u] = "-"
    for x, zn, y in v_structures(g):
        adj[x][zn] = ">"
        adj[zn][x] = "<"
        adj[y][zn] = ">"
        adj[zn][y] = "<"

    def orient(u: int, v: int) -> None:
        adj[u][v] = ">"
        adj[v][u] = "<"

    changed = True
    while changed:
        changed = False
        for b in range(n):
            undirected = [c for c, m in adj[b].items() if m == "-"]
            parents = [a for a, m in adj[b].items() if m == "<"]
            children = [c for c, m in adj[b].items() if m == ">"]
            # Rule 1: a -> b - c with a, c non-adjacent  =>  b -> c
            for c in undirected:
                if any(c not in adj[a] for a in parents):
                    orient(b, c)
                    changed = True
            # Rule 2: a -> b -> c with a - c  =>  a -> c
            for a in parents:
                for c in children:
                    if adj[a].get(c) == "-":
                        orient(a, c)
                        changed = True
            # Rule 3: b - a, b - c, b - d with c -> a, d -> a, c,d non-adj => b -> a
            for a in undirected:
                into_a = [p for p, m in adj[a].items() if m == "<"]
                hit = False
                for i in range(len(into_a)):
                    for j in range(i + 1, len(into_a)):
                        c, dd = into_a[i], into_a[j]
                        if (
                            adj[b].get(c) == "-"
                            and adj[b].get(dd) == "-"
                            and dd not in adj[c]
                        ):
                            orient(b, a)
                            changed = True
                            hit = True
                            break
                    if hit:
                        break
            # Rule 4: b - a with c -> d, d -> a, c,a non-adjacent and b
            # adjacent to both c and d  =>  b -> a
            for a in undirected:
                if adj[b].get(a) != "-":
                    continue  # may have been oriented by rule 3 this sweep
                into_a = [p for p, m in adj[a].items() if m == "<"]
                done = False
                for dd in into_a:
                    if dd not in adj[b]:
                        continue
                    for c, m in adj[dd].items():
                        if m == "<" and c not in adj[a] and c != a and c in adj[b]:
                            orient(b, a)
                            changed = True
                            done = True
                            break
                    if done:
                        break

    out = Pdag(n, list(g.names))
    for u in range(n):
        for v, m in adj[u].items():
            if m == ">":
                out.add_directed(u, v)
            elif m == "-" and u < v:
                out.add_undirected(u, v)
    return out
