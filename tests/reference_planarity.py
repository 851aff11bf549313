"""Two references that the tests check the planarity test against
(``tests/test_planarity.py``, and acceptance criterion 5 for
``has_minor``); nothing in ``src/`` imports this module.

* ``is_planar_rows``: the left-right test as it stood before the peel
  and the subgraph certificates: no peel, the ``bits`` generator, five
  helper closures and a write-only ``side`` array.
* ``has_minor``: K5 / K3,3 minor containment by an exhaustive memoized
  contraction walk whose base case is a K5 subgraph test
  (``_has_clique5``, here) or the planarity module's K3,3 subgraph
  test.  It never consults the left-right test, so the two can check
  each other.
"""

from __future__ import annotations

from itertools import combinations

from minorsieve.canon import canonical_key_rows
from minorsieve.graphs import Graph, Rows, bits, rows_contract_edge
from minorsieve.planarity import _has_k33_subgraph


def is_planar_rows(rows: Rows) -> bool:
    m = sum(r.bit_count() for r in rows) // 2
    if m <= 8:
        return True
    n = len(rows)
    if m > 3 * n - 6:
        return False
    return _lr_planar(n, rows, m)


def _lr_planar(n: int, rows: Rows, m: int) -> bool:
    """Left-right test proper; call through is_planar_rows for the shortcuts."""
    adj = [list(bits(rows[v])) for v in range(n)]

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

    def after_edge(v: int, ei: int) -> None:
        # nesting order key, then fold ei's lowpoints into the parent edge
        nesting[ei] = 2 * lowpt[ei] + (1 if lowpt2[ei] < height[v] else 0)
        e = parent_edge[v]
        if e == -1:
            return
        if lowpt[ei] < lowpt[e]:
            lowpt2[e] = min(lowpt[e], lowpt2[ei])
            lowpt[e] = lowpt[ei]
        elif lowpt[ei] > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], lowpt[ei])
        else:
            lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    for root in range(n):
        if height[root] != -1:
            continue
        height[root] = 0
        roots.append(root)
        stack = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            v = frame[0]
            if frame[2] != -1:
                # a tree edge's subtree just finished
                after_edge(v, frame[2])
                frame[2] = -1
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
                if height[w] == -1:
                    parent_edge[w] = ei
                    height[w] = height[v] + 1
                    frame[2] = ei
                    stack.append([w, 0, -1])
                else:
                    lowpt[ei] = height[w]
                    after_edge(v, ei)
            else:
                stack.pop()

    # -- phase 2: test for a consistent left-right partition -----------------
    ordered = [sorted(out_edges[v], key=nesting.__getitem__) for v in range(n)]
    # conflict pair: [left_low, left_high, right_low, right_high], -1 empty
    S: list[list[int]] = []
    stack_bottom = [0] * m
    lowpt_edge = [-1] * m
    ref = [-1] * m
    side = [1] * m

    def conflicting(lo: int, hi: int, b: int) -> bool:
        return hi != -1 and lowpt[hi] > lowpt[b]

    def lowest(pair: list[int]) -> int:
        if pair[0] == -1 and pair[1] == -1:
            return lowpt[pair[2]]
        if pair[2] == -1 and pair[3] == -1:
            return lowpt[pair[0]]
        return min(lowpt[pair[0]], lowpt[pair[2]])

    def add_constraints(ei: int, e: int) -> bool:
        P = [-1, -1, -1, -1]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False  # two-sided constraint cannot be merged
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
        # merge conflicting return edges of the earlier siblings into P's left
        while S and (conflicting(S[-1][0], S[-1][1], ei)
                     or conflicting(S[-1][2], S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
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
        return True

    def remove_back_edges(e: int) -> None:
        u = src[e]
        # drop conflict pairs whose returns all end at u
        while S and lowest(S[-1]) == height[u]:
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:
            P = S.pop()
            while P[1] != -1 and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] != -1 and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
            S.append(P)
        if lowpt[e] < height[u] and S:
            hl = S[-1][1]
            hr = S[-1][3]
            if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    for root in roots:
        stack = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            v = frame[0]
            e = parent_edge[v]
            if frame[2] != -1:
                # integrate the edge just finished (tree child or back edge)
                ei = frame[2]
                frame[2] = -1
                if lowpt[ei] < height[v]:
                    if frame[1] - 1 == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False
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
            else:
                if e != -1:
                    remove_back_edges(e)
                stack.pop()
    return True


# ---------------------------------------------------------------------------
# K5 / K3,3 minor oracle (independent of the left-right test)
# ---------------------------------------------------------------------------

def _has_clique5(rows: Rows) -> bool:
    """Five pairwise adjacent vertices, by brute force."""
    cand = [v for v, r in enumerate(rows) if r.bit_count() >= 4]
    return any(all(rows[a] >> b & 1 for a, b in combinations(five, 2))
               for five in combinations(cand, 5))


_K5_MEMO: dict[bytes, bool] = {}
_K33_MEMO: dict[bytes, bool] = {}


def _minor_walk(rows: Rows, memo: dict[bytes, bool], contains, min_order: int,
                min_size: int) -> bool:
    n = len(rows)
    if n < min_order or sum(r.bit_count() for r in rows) // 2 < min_size:
        return False
    if contains(rows):
        return True
    key = canonical_key_rows(rows)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = False  # cycle-safe placeholder; contraction strictly shrinks
    for u in range(n):
        r = rows[u] >> (u + 1)
        while r:
            low = r & -r
            v = u + 1 + low.bit_length() - 1
            r ^= low
            if _minor_walk(rows_contract_edge(rows, u, v), memo, contains,
                           min_order, min_size):
                memo[key] = True
                return True
    return False


def has_minor(g: Graph, h: Graph) -> bool:
    """Exact minor containment for h among the two Kuratowski graphs.

    A graph has an H minor for complete-ish H exactly when some sequence
    of edge contractions produces an H subgraph, so the walk explores
    contractions only, deduplicated by canonical key.  The memo is shared
    across calls, which makes exhaustive sweeps cheap.
    """
    if h.order == 5 and h.size == 10:
        return _minor_walk(g.rows(), _K5_MEMO, _has_clique5, 5, 10)
    if (h.order, h.size) == (6, 9) and set(h.degrees()) == {3}:
        # complete bipartite 3+3 is the only 3-regular order-6 graph with
        # a 3,3 biclique, and _has_k33_subgraph(h) confirms it
        if _has_k33_subgraph(h.rows()):
            return _minor_walk(g.rows(), _K33_MEMO, _has_k33_subgraph, 6, 9)
    raise ValueError("minor oracle supports K5 and K3,3 targets only")
