"""Planarity testing: peel, a subgraph certificate, the left-right test.

``is_planar_rows`` is the call the searches hammer.  It answers in four
stages, each exact, and stops at the first that decides:

1. Edge counts.  Fewer than nine edges is always planar (a Kuratowski
   subdivision needs at least nine); more than 3n-6 never is.
2. Peel.  Deleting a vertex of degree at most one, or suppressing a
   vertex of degree two (replacing its path x-v-y by the edge xy, merged
   into xy when that edge exists), keeps planarity in both directions:
   the first removes a vertex that lies on no cycle, the second gives a
   graph homeomorphic to the old one, and a parallel edge never changes
   planarity.  Repeating both until every vertex has degree zero or at
   least three, and dropping isolated vertices, leaves a smaller graph
   (the core) with the same answer, to which the edge counts apply again.
3. Certificate.  A K3,3 *subgraph* is a Kuratowski subgraph, so the graph
   is nonplanar.  ``_has_k33_subgraph`` looks for one with bitsets.  On a
   core of at most six vertices a miss proves planarity: every vertex has
   degree at least 3, the counts leave 9 <= m <= 3n - 6, and a Kuratowski
   subdivision on at most six vertices is K3,3, K5, or K5 with one edge
   ab subdivided by a vertex x.  A K5 subgraph needs 10 > 9 edges when
   n = 5, and 10 + 3 = 13 > 12 when n = 6 (the sixth vertex has degree 3
   or more).  So in the third case ab is not an edge, x has a third
   neighbor among the other three branch vertices, say c with d and e
   the rest, and {a, b, c} | {x, d, e} is a K3,3 subgraph.
4. The boolean left-right test (Brandes' formulation of
   de Fraysseix-Rosenstiehl), run on adjacency bitmasks with iterative
   depth-first phases.  ``_lr_memo``, the only planarity cache, keeps
   its answers for the last 1,024 distinct cores: the walks and scans of
   one decision meet the same core through different minors.

``nonplanar_witness`` runs the same stages and, for a nonplanar graph,
returns the edge mask (bit u*n + v, u < v) of a Kuratowski subdivision
in it, or 0 when the edge counts or the left-right test decide.  For it
alone, the peel records the path that each core edge stands for: a
suppression joins the two paths at v into the path of xy, or drops both
when xy is an edge, so live paths are internally disjoint with inner
vertices outside the core, and the paths of a core subgraph form a
subdivision of it.  And on cores of seven or more vertices a contraction
certificate runs before stage 4: an edge uv and vertices a, b outside it
that share three neighbors c1, c2, c3 outside {u, v} with the merged
vertex w = {u, v} form a K3,3 in the core contracted along uv.  Join
each ci to u if adjacent, else to v.  Stage 3 found no K3,3 subgraph
such as {a, b, u} | {c1, c2, c3}, so one end x takes two and the other
end y one, ci: the path x-y-ci replaces w ci, y is on no other path,
and with uv the nine paths form a K3,3 subdivision.  Both cost the
boolean callers more than they save, so ``is_planar_rows`` keeps them
off.

The independent checks of this test (the K5 / K3,3 minor walk and the
kernel as it stood before the peel) live in the test suite, outside the
package.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, Rows, bits

__all__ = ["is_planar", "is_planar_rows", "nonplanar_witness"]


def is_planar_rows(rows: Rows) -> bool:
    return _decide(rows, False) is None


def nonplanar_witness(rows: Rows) -> int | None:
    """None iff ``rows`` is planar; otherwise the edge mask of a Kuratowski
    subdivision in ``rows``, or 0 (see the module docstring)."""
    return _decide(rows, True)


def _decide(rows: Rows, witness: bool) -> int | None:
    """The stages: None when planar, else a mask (0 unless ``witness``)."""
    degrees = [r.bit_count() for r in rows]
    m = sum(degrees) // 2
    if m <= 8:
        return None
    n = order = len(rows)
    if m > 3 * n - 6:
        return 0
    keep, paths = None, {} if witness else None
    if min(degrees) <= 2:
        rows, keep = _peel(rows, degrees, paths)
        n = len(rows)
        m = sum(r.bit_count() for r in rows) // 2
        if m <= 8:
            return None
        if m > 3 * n - 6:
            return 0
    k33 = _has_k33_subgraph(rows)
    if k33 and not witness:
        return 0
    if k33:
        edges = [(x, y) for x in k33[:3] for y in list(bits(k33[3]))[:3]]
    elif n <= 6:
        return None  # small cores: module docstring
    else:
        edges = witness and _contracted_k33(rows)
        if not edges:
            return None if _lr_memo(rows) else 0
    mask = 0  # the paths that the core edges stand for
    for i, j in edges:
        i, j = (keep[i], keep[j]) if keep else (i, j)
        e = 1 << (i * order + j if i < j else j * order + i)
        mask |= paths.get(e, e)
    return mask


def is_planar(g: Graph) -> bool:
    return is_planar_rows(g.rows())


@lru_cache(maxsize=1024)
def _lr_memo(rows: Rows) -> bool:
    return _lr_planar(len(rows), rows, sum(r.bit_count() for r in rows) // 2)


# ---------------------------------------------------------------------------
# peel and subgraph certificates
# ---------------------------------------------------------------------------

def _peel(rows: Rows, degrees: list[int],
          paths: dict[int, int] | None) -> tuple[Rows, list[int]]:
    """The core (module docstring) and the old label of each core vertex;
    ``paths`` maps the bit of each edge a suppression makes to its path."""
    n = len(rows)
    rows = list(rows)
    stack = [v for v, d in enumerate(degrees) if d <= 2]
    while stack:
        v = stack.pop()
        r = rows[v]
        d = r.bit_count()
        if d == 0 or d > 2:
            continue
        rows[v] = 0
        low = r & -r
        x = low.bit_length() - 1
        rows[x] ^= 1 << v
        if d == 1:
            stack.append(x)
            continue
        y = (r ^ low).bit_length() - 1
        rows[y] ^= 1 << v
        if rows[x] >> y & 1:
            stack.append(x)  # xy merges into the existing edge
            stack.append(y)
        else:
            rows[x] |= 1 << y
            rows[y] |= 1 << x
            if paths is not None:
                xv = 1 << min(x, v) * n + max(x, v)
                vy = 1 << min(y, v) * n + max(y, v)
                paths[1 << x * n + y] = paths.get(xv, xv) | paths.get(vy, vy)
    keep = [v for v, r in enumerate(rows) if r]
    position = [0] * len(rows)
    for i, v in enumerate(keep):
        position[v] = i
    out = []
    for v in keep:
        r = rows[v]
        c = 0
        while r:
            low = r & -r
            c |= 1 << position[low.bit_length() - 1]
            r ^= low
        out.append(c)
    return tuple(out), keep


def _has_k33_subgraph(rows: Rows) -> tuple[int, int, int, int] | None:
    """Three vertices and the mask of their three or more common neighbors
    (never one of the three: no vertex is its own neighbor), or None."""
    n = len(rows)
    verts = [v for v in range(n) if rows[v].bit_count() >= 3]
    k = len(verts)
    for i in range(k):
        a = verts[i]
        for j in range(i + 1, k):
            b = verts[j]
            nab = rows[a] & rows[b]
            if nab.bit_count() < 3:
                continue
            for t in range(j + 1, k):
                if (common := nab & rows[verts[t]]).bit_count() >= 3:
                    return a, b, verts[t], common
    return None


def _contracted_k33(rows: Rows) -> list[tuple[int, int]] | None:
    """Edges of a K3,3 subdivision that one contraction exposes (the
    module docstring's contraction certificate), or None.  With no K3,3
    subgraph, each end of uv has a neighbor among the ci."""
    n = len(rows)
    for a in range(n):
        for b in range(a + 1, n):
            common = rows[a] & rows[b]
            if common.bit_count() < 3:
                continue
            near = [u for u in range(n)
                    if rows[u] & common and u != a and u != b]
            for i, u in enumerate(near):
                for v in near[i + 1:]:
                    cs = (rows[u] | rows[v]) & common & ~(1 << u | 1 << v)
                    if rows[u] >> v & 1 and cs.bit_count() >= 3:
                        return [(u, v)] + [
                            (x, c) for c in list(bits(cs))[:3]
                            for x in (a, b, u if rows[u] >> c & 1 else v)]
    return None


# ---------------------------------------------------------------------------
# left-right planarity test
# ---------------------------------------------------------------------------

def _lr_planar(n: int, rows: Rows, m: int) -> bool:
    """Left-right test proper; call through is_planar_rows for the shortcuts."""
    adj = []
    for r in rows:
        nbrs = []
        while r:
            low = r & -r
            nbrs.append(low.bit_length() - 1)
            r ^= low
        adj.append(nbrs)

    # -- phase 1: DFS orientation, lowpoints, nesting depth ------------------
    height = [-1] * n
    parent_edge = [-1] * n
    roots = []
    # per directed edge (assigned as discovered): source, target, lowpoints
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out_edges: list[list[int]] = [[] for _ in range(n)]
    oriented = [0] * n  # bit w of oriented[v]: edge vw already has a direction

    for root in range(n):
        if height[root] != -1:
            continue
        height[root] = 0
        roots.append(root)
        stack = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            v = frame[0]
            ei = frame[2]
            if ei != -1:
                # edge ei (a finished tree edge or a new back edge) is done:
                # its nesting key, then its lowpoints fold into the parent edge
                frame[2] = -1
                nesting[ei] = 2 * lowpt[ei] + (lowpt2[ei] < height[v])
                e = parent_edge[v]
                if e != -1:
                    if lowpt[ei] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[ei])
                        lowpt[e] = lowpt[ei]
                    elif lowpt[ei] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[ei])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[ei])
            if frame[1] < len(adj[v]):
                w = adj[v][frame[1]]
                frame[1] += 1
                if (oriented[v] >> w) & 1:
                    continue
                oriented[v] |= 1 << w
                oriented[w] |= 1 << v
                ei = len(src)
                src.append(v)
                dst.append(w)
                lowpt.append(height[v])
                lowpt2.append(height[v])
                nesting.append(0)
                out_edges[v].append(ei)
                frame[2] = ei
                if height[w] == -1:
                    parent_edge[w] = ei
                    height[w] = height[v] + 1
                    stack.append([w, 0, -1])
                else:
                    lowpt[ei] = height[w]
            else:
                stack.pop()

    # -- phase 2: test for a consistent left-right partition -----------------
    ordered = [sorted(out_edges[v], key=nesting.__getitem__) for v in range(n)]
    # conflict pair: [left_low, left_high, right_low, right_high], -1 empty
    S: list[list[int]] = []
    stack_bottom = [0] * m
    lowpt_edge = [-1] * m
    ref = [-1] * m

    for root in roots:
        stack = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            v = frame[0]
            e = parent_edge[v]
            ei = frame[2]
            if ei != -1:
                # integrate the edge just finished (tree child or back edge)
                frame[2] = -1
                low_ei = lowpt[ei]
                if low_ei < height[v]:
                    if frame[1] == 1:
                        lowpt_edge[e] = lowpt_edge[ei]
                    else:
                        # add the constraints of ei to those of its siblings
                        P = [-1, -1, -1, -1]
                        # merge the return edges of ei into P's right interval
                        while True:
                            Q = S.pop()
                            if Q[0] != -1 or Q[1] != -1:
                                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                            if Q[0] != -1 or Q[1] != -1:
                                return False  # two-sided: cannot be merged
                            if lowpt[Q[2]] > lowpt[e]:
                                if P[2] == -1 and P[3] == -1:
                                    P[3] = Q[3]
                                else:
                                    ref[P[2]] = Q[3]
                                P[2] = Q[2]
                            else:
                                # aligned with the parent's lowpoint edge
                                ref[Q[2]] = lowpt_edge[e]
                            if len(S) == stack_bottom[ei]:
                                break
                        # merge conflicting return edges of the earlier
                        # siblings into P's left interval
                        while S:
                            Q = S[-1]
                            if not ((Q[1] != -1 and lowpt[Q[1]] > low_ei)
                                    or (Q[3] != -1 and lowpt[Q[3]] > low_ei)):
                                break
                            S.pop()
                            if Q[3] != -1 and lowpt[Q[3]] > low_ei:
                                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                                if Q[3] != -1 and lowpt[Q[3]] > low_ei:
                                    return False
                            if P[2] != -1:
                                ref[P[2]] = Q[3]
                            if Q[2] != -1:
                                P[2] = Q[2]
                            if P[0] == -1 and P[1] == -1:
                                P[1] = Q[1]
                            elif P[0] != -1:
                                ref[P[0]] = Q[1]
                            P[0] = Q[0]
                        if P != [-1, -1, -1, -1]:
                            S.append(P)
            if frame[1] < len(ordered[v]):
                ei = ordered[v][frame[1]]
                frame[1] += 1
                w = dst[ei]
                stack_bottom[ei] = len(S)
                frame[2] = ei
                if ei == parent_edge[w]:
                    stack.append([w, 0, -1])
                else:
                    lowpt_edge[ei] = ei
                    S.append([-1, -1, ei, ei])
                continue
            stack.pop()
            if e == -1:
                continue
            # remove the back edges that return to the parent u of v
            u = src[e]
            hu = height[u]
            # drop conflict pairs whose returns all end at u
            while S:
                P = S[-1]
                if P[0] == -1 and P[1] == -1:
                    low = lowpt[P[2]]
                elif P[2] == -1 and P[3] == -1:
                    low = lowpt[P[0]]
                else:
                    low = min(lowpt[P[0]], lowpt[P[2]])
                if low != hu:
                    break
                S.pop()
            if S:
                P = S[-1]
                while P[1] != -1 and dst[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] == -1 and P[0] != -1:
                    ref[P[0]] = P[2]
                    P[0] = -1
                while P[3] != -1 and dst[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] == -1 and P[2] != -1:
                    ref[P[2]] = P[0]
                    P[2] = -1
                if lowpt[e] < hu:
                    hl = P[1]
                    hr = P[3]
                    if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr
    return True
