"""Signature grids: port-addressed multigraphs whose vertices carry functions.

Ports are (vertex id, slot) pairs with 1-based slots. Dangling ports are kept
in an explicit order; that order is the argument order of the function a
gadget realizes. Self-loops and parallel edges are allowed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .scalars import ParseError
from .signatures import Signature, signature_from_json, signature_to_json


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SignatureGrid:
    vertices: dict            # id -> Signature
    edges: tuple = ()         # ((id, slot), (id, slot)) pairs, unordered
    dangling: tuple = ()      # (id, slot), order = argument order
    bipartition: dict = None  # optional id -> "L" | "R"

    def __post_init__(self):
        object.__setattr__(self, "vertices", dict(self.vertices))
        object.__setattr__(self, "edges",
                           tuple((tuple(p), tuple(q)) for p, q in self.edges))
        object.__setattr__(self, "dangling", tuple(tuple(p) for p in self.dangling))
        if self.bipartition is not None:
            object.__setattr__(self, "bipartition", dict(self.bipartition))

    @property
    def arity(self) -> int:
        return len(self.dangling)

    @property
    def closed(self) -> bool:
        return not self.dangling

    def is_exact(self) -> bool:
        return all(f.is_exact() for f in self.vertices.values())

    def ports(self):
        for vid, f in self.vertices.items():
            for slot in range(1, f.arity + 1):
                yield (vid, slot)

    def with_vertex(self, vid, f: Signature) -> "SignatureGrid":
        verts = dict(self.vertices)
        verts[vid] = f
        return SignatureGrid(verts, self.edges, self.dangling, self.bipartition)


def grid_from_parts(sigs, edges=(), dangling=(), bipartition=None) -> SignatureGrid:
    """Build a grid from a list of signatures, ids assigned 0..n-1 in order."""
    return SignatureGrid({i: f for i, f in enumerate(sigs)}, edges, dangling,
                         bipartition)


def validate(grid: SignatureGrid) -> ValidationReport:
    issues = []

    def port_ok(port, where):
        vid, slot = port
        if vid not in grid.vertices:
            issues.append((where, f"unknown vertex {vid}"))
            return False
        if not (1 <= slot <= grid.vertices[vid].arity):
            issues.append((where, f"slot {slot} out of range for vertex {vid} "
                                  f"(arity {grid.vertices[vid].arity})"))
            return False
        return True

    seen = {}
    for n, (p, q) in enumerate(grid.edges):
        for port in (p, q):
            if port_ok(port, f"edge {n}"):
                seen[port] = seen.get(port, 0) + 1
    for n, port in enumerate(grid.dangling):
        if port_ok(port, f"dangling {n}"):
            seen[port] = seen.get(port, 0) + 1

    for port in grid.ports():
        used = seen.pop(port, 0)
        if used == 0:
            issues.append((f"vertex {port[0]}", f"port {port[1]} unbound"))
        elif used > 1:
            issues.append((f"vertex {port[0]}", f"port {port[1]} used {used} times"))

    if grid.bipartition is not None:
        for vid in grid.bipartition:
            if vid not in grid.vertices:
                issues.append(("bipartition", f"unknown vertex {vid}"))
        for vid in grid.vertices:
            if vid not in grid.bipartition:
                issues.append(("bipartition", f"vertex {vid} unlabelled"))
        for n, (p, q) in enumerate(grid.edges):
            lp = grid.bipartition.get(p[0])
            lq = grid.bipartition.get(q[0])
            if lp is not None and lq is not None and lp == lq:
                issues.append((f"edge {n}", "edge violates bipartition"))

    return ValidationReport(not issues, tuple(issues))


def require_valid(grid: SignatureGrid):
    report = validate(grid)
    if not report.ok:
        raise ValidationError("; ".join(f"{w}: {m}" for w, m in report.issues))


def grid_to_json(grid: SignatureGrid) -> dict:
    out = {
        "vertices": [{"id": vid, "fn": signature_to_json(f)}
                     for vid, f in sorted(grid.vertices.items())],
        "edges": [[list(p), list(q)] for p, q in grid.edges],
        "dangling": [list(p) for p in grid.dangling],
    }
    if grid.bipartition is not None:
        out["bipartition"] = {str(vid): lab for vid, lab in
                              sorted(grid.bipartition.items())}
    return out


def _vertex_id(vid):
    if isinstance(vid, bool) or not isinstance(vid, (int, str)):
        raise ParseError(f"vertex id must be an integer or a string, got {vid!r}")
    return vid


def _port(p):
    if not (isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[1], int)):
        raise ParseError(f"port must be [vertex id, slot], got {p!r}")
    return (_vertex_id(p[0]), p[1])


def _items(obj, key, kind=list):
    got = obj.get(key, kind())
    if not isinstance(got, kind):
        raise ParseError(f"grid {key!r} must be a JSON {kind.__name__}")
    return got


def grid_from_json(obj) -> SignatureGrid:
    if not isinstance(obj, dict):
        raise ParseError(f"grid must be a JSON object, got {type(obj).__name__}")
    vertices = {}
    for entry in _items(obj, "vertices"):
        if not isinstance(entry, dict):
            raise ParseError(f"vertex entry must be an object, got {entry!r}")
        vid = _vertex_id(entry["id"])
        try:
            vertices[vid] = signature_from_json(entry["fn"])
        except ParseError as e:
            raise ParseError(f"vertex {vid}: {e}") from None
    if len({type(vid) for vid in vertices}) > 1:  # ids are sorted together
        raise ParseError("vertex ids must be all integers or all strings")
    edges = []
    for e in _items(obj, "edges"):
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ParseError(f"edge must be a pair of ports, got {e!r}")
        edges.append((_port(e[0]), _port(e[1])))
    dangling = [_port(p) for p in _items(obj, "dangling")]
    bip = obj.get("bipartition")
    if bip is not None:
        bip = {int(k): v for k, v in _items(obj, "bipartition", dict).items()}
    return SignatureGrid(vertices, edges, dangling, bip)


def save_grid(grid: SignatureGrid, path):
    with open(path, "w") as fh:
        json.dump(grid_to_json(grid), fh, indent=1)
        fh.write("\n")


def load_grid(path) -> SignatureGrid:
    with open(path) as fh:
        obj = json.load(fh)
    grid = grid_from_json(obj)
    require_valid(grid)
    return grid


def disjoint_union(g1: SignatureGrid, g2: SignatureGrid) -> SignatureGrid:
    """Renumber both grids onto 0..n-1; g1's dangling legs come first."""
    map1 = {vid: n for n, vid in enumerate(sorted(g1.vertices))}
    off = len(map1)
    map2 = {vid: off + n for n, vid in enumerate(sorted(g2.vertices))}

    vertices = {map1[v]: f for v, f in g1.vertices.items()}
    vertices.update({map2[v]: f for v, f in g2.vertices.items()})

    def remap(ports, m):
        return [(m[v], s) for v, s in ports]

    edges = ([((map1[p[0]], p[1]), (map1[q[0]], q[1])) for p, q in g1.edges]
             + [((map2[p[0]], p[1]), (map2[q[0]], q[1])) for p, q in g2.edges])
    dangling = remap(g1.dangling, map1) + remap(g2.dangling, map2)

    bip = None
    if g1.bipartition is not None and g2.bipartition is not None:
        bip = {map1[v]: lab for v, lab in g1.bipartition.items()}
        bip.update({map2[v]: lab for v, lab in g2.bipartition.items()})
    return SignatureGrid(vertices, edges, dangling, bip)
