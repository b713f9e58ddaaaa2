"""Ordered-tree edit distance with unit costs (Zhang-Shasha).

Unit-cost node insertion, deletion, and relabel; the minimum edit-script
cost between two canonical trees.

Zhang-Shasha decomposes both trees along their leftmost paths and fills one
forest-distance table per pair of keyroots. It runs on both trees mirrored
(every child list reversed), which leaves the distance unchanged and turns
the left decomposition into the right one. That suits canonical trees: a
member's body is its last child, so its heavy path runs rightmost.

Zhang-Shasha runs only when two cheap bounds differ. When they meet, as on
a body a few edits off another, that value is the distance: exact either way.
Upper: Selkow's top-down distance (IPL 1977), an edit script. Lower: the edit
distance of the preorder label sequences, where each tree edit is one string
edit (Guha et al., SIGMOD 2002).
"""

from __future__ import annotations

from itertools import accumulate

from .canonical import CTree


def _decompose(root: CTree):
    """Post-order labels, leftmost-leaf indices and keyroots of the mirrored
    tree, which walks every child list back to front. Iterative, so tree
    depth is bounded by memory only.
    """
    labels, lml = [], []
    stack = [(root, reversed(root.children))]
    starts = [0]  # post-order index of the open nodes' leftmost leaves
    while stack:
        node, kids = stack[-1]
        child = next(kids, None)
        if child is not None:
            stack.append((child, reversed(child.children)))
            starts.append(len(labels))
        else:
            stack.pop()
            lml.append(starts.pop())
            labels.append(node.label)
    # A keyroot is the highest node on its leftmost path.
    seen = set()
    keyroots = []
    for k in range(len(labels) - 1, -1, -1):
        if lml[k] not in seen:
            seen.add(lml[k])
            keyroots.append(k)
    keyroots.reverse()
    return labels, lml, keyroots


def _strip(p, q):
    """Two sequences without their common prefix and suffix."""
    s, n, m = 0, len(p), len(q)
    while s < n and s < m and p[s] == q[s]:
        s += 1
    while n > s and m > s and p[n - 1] == q[m - 1]:
        n, m = n - 1, m - 1
    return p[s:n], q[s:m]


def _intern(root: CTree, table: dict, nodes: list):
    """The id of ``root``, equal subtrees sharing one, and its preorder
    labels. ``nodes[id]`` is (label, child ids, size). Iterative."""
    preorder, stack, ids = [], [root], {}  # ids by identity: hashing a CTree walks it
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(reversed(node.children))
    for node in reversed(preorder):  # children before parents
        key = node.label, tuple(ids[id(c)] for c in node.children)
        if key not in table:
            table[key] = len(nodes)
            nodes.append((*key, 1 + sum(nodes[c][2] for c in key[1])))
        ids[id(node)] = table[key]
    return ids[id(root)], [node.label for node in preorder]


def _top_down(x: int, y: int, nodes: list) -> int:
    """Selkow's top-down distance, an upper bound: roots map to roots, and
    child lists align by subtree distance, insert and delete. Nested pairs
    live on a stack of generators, not on the call stack."""
    def align(x, y):
        (lx, xs, _), (ly, ys, _) = nodes[x], nodes[y]
        xs, ys = _strip(xs, ys)
        row = list(accumulate((nodes[v][2] for v in ys), initial=0))
        for u in xs:
            du = nodes[u][2]
            prev, row = row, [row[0] + du]
            for j, v in enumerate(ys):
                sub = prev[j] + (0 if u == v else (yield u, v))
                row.append(min(sub, prev[j + 1] + du, row[j] + nodes[v][2]))
        return (lx != ly) + row[-1]

    stack, value = [align(x, y)], None
    while stack:
        try:
            stack.append(align(*stack[-1].send(value)))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _string_distance(p: list, q: list, cap: int) -> int:
    """Unit-cost edit distance of two sequences, capped at ``cap``; a lower
    bound on it where it is plainly below ``cap``. Ukkonen: round d extends
    each diagonal within d to the furthest row that d edits reach."""
    p, q = _strip(p, q)
    n, m = len(p), len(q)
    if abs(n - m) >= cap or max(n, m) < cap:  # |n - m| <= distance <= max(n, m)
        return min(abs(n - m), cap)
    rows = {}  # diagonal j - i -> furthest row i
    for d in range(cap):
        prev, rows = rows, {}
        # The diagonals from which m - n is within reach of cap - 1 edits.
        slack = cap - 1 - d
        for k in range(max(-d, -n, m - n - slack), min(d, m, m - n + slack) + 1):
            i = min(max(prev.get(k, -1) + 1, prev.get(k + 1, -1) + 1,
                        prev.get(k - 1, -1)), n, m - k)
            while i < n and i + k < m and p[i] == q[i + k]:
                i += 1
            rows[k] = i
        if rows.get(m - n) == n:
            return d
    return cap


def _bounds(a: CTree, b: CTree):
    """Lower and upper bounds on the distance, the lower capped at the upper."""
    table, nodes = {}, []
    (x, pa), (y, pb) = _intern(a, table, nodes), _intern(b, table, nodes)
    up = _top_down(x, y, nodes)
    return _string_distance(pa, pb, up), up


def tree_edit_distance(a: CTree, b: CTree) -> int:
    lo, up = _bounds(a, b)
    if lo == up:
        return up
    return _zhang_shasha(_decompose(a), _decompose(b))


def _zhang_shasha(ta, tb) -> int:
    a_labels, a_lml, a_keyroots = ta
    b_labels, b_lml, b_keyroots = tb
    m, n = len(a_labels), len(b_labels)
    treedist = [[0] * n for _ in range(m)]
    # fd[x][y]: distance between the first x nodes of a's keyroot forest and
    # the first y of b's; one buffer serves every keyroot pair.
    fd = [[0] * (n + 1) for _ in range(m + 1)]
    first = fd[0]
    # Per b keyroot: forest width, and per forest node its index, label and
    # the fd column of its leftmost leaf (0 on the keyroot's leftmost path).
    b_plan = []
    for j in b_keyroots:
        lj = b_lml[j]
        cols = range(1, j - lj + 2)
        nodes = range(lj, j + 1)
        b_plan.append((j - lj + 2, cols, nodes, b_labels[lj:j + 1],
                       [b_lml[bj] - lj for bj in nodes]))

    for i in a_keyroots:
        li = a_lml[i]
        for width, cols, nodes, labels, leaf_cols in b_plan:
            first[:width] = range(width)
            for x in range(1, i - li + 2):
                ai = li + x - 1
                prev, cur = fd[x - 1], fd[x]
                row = treedist[ai]
                left = cur[0] = x
                xa = a_lml[ai] - li
                if xa == 0:
                    # ai is on the keyroot's leftmost path: its subtree
                    # distances to b's leftmost-path nodes are set here.
                    label = a_labels[ai]
                    diag = prev[0]
                    for y, bj, lab, yb in zip(cols, nodes, labels, leaf_cols):
                        up = prev[y]
                        if yb == 0:
                            d = diag if label == lab else diag + 1
                            row[bj] = d = min(d, up + 1, left + 1)
                        else:  # fd[0][yb] is yb
                            d = min(yb + row[bj], up + 1, left + 1)
                        cur[y] = left = d
                        diag = up
                else:
                    # The hottest loop: comparisons instead of min().
                    fa = fd[xa]
                    for y, bj, yb in zip(cols, nodes, leaf_cols):
                        d = fa[yb] + row[bj]
                        up = prev[y]
                        if up < left:
                            if up + 1 < d:
                                d = up + 1
                        elif left + 1 < d:
                            d = left + 1
                        cur[y] = left = d
    return treedist[m - 1][n - 1]
