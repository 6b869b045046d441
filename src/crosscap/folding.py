"""Stallings folding of free-group words (Stallings, Invent. Math. 71, 1983).

:meth:`twists.Automorphism.verify_sound` reads from :func:`fold` whether a
map's images generate the free group, and imports this module on its first
call, since no command of the CLI calls it.
"""

from __future__ import annotations

from collections.abc import Sequence

from crosscap.words import Word


def fold(images: Sequence[Word]) -> tuple[int, list[int]]:
    """Fold the images, spelled as loops at one base vertex: the vertex
    count of the folded graph, and the i for which x_i is not a loop at the
    base, that is, not in the images' span.

    Each vertex keeps one edge per signed label, ``out[v][s]``, with the
    reverse edge ``out[w][-s]`` alongside; merged vertices hang in a
    union-find.  The graph stays folded after each image: the image is
    read from the base forwards and backwards as far as edges go, only the
    unread middle gets new vertices, and when nothing is left unread its
    two ends merge, folding on until no vertex has two edges with one label.
    """
    parent = [0]
    out: list[dict[int, int]] = [{}]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for image in images:
        letters = image.letters
        u, i = find(0), 0
        for s in letters:
            t = out[u].get(s)
            if t is None:
                break
            u, i = find(t), i + 1
        v, j = find(0), len(letters)
        while j > i:
            t = out[v].get(-letters[j - 1])
            if t is None:
                break
            v, j = find(t), j - 1
        if i < j:
            for s in letters[i : j - 1]:
                w = len(parent)
                parent.append(w)
                out.append({-s: u})
                out[u][s] = w
                u = w
            s = letters[j - 1]
            t = out[v].get(-s)
            if t is None:
                out[u][s] = v
                out[v][-s] = u
                continue
            # the first new edge gave v this label: the image is not
            # cyclically reduced, and its ends fold together
            v = t
        pending = [(u, v)]
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(out[a]) > len(out[b]):
                a, b = b, a
            parent[a] = b
            into = out[b]
            for s, t in out[a].items():
                if s in into:
                    pending.append((t, into[s]))
                else:
                    into[s] = t
            out[a] = {}
    base = find(0)
    loops = out[base]
    missing = [i for i in range(1, len(images) + 1) if i not in loops or find(loops[i]) != base]
    vertices = sum(1 for v, p in enumerate(parent) if v == p)
    return vertices, missing
