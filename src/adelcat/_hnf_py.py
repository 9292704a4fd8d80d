"""Pure-Python row-reduction kernels.

These are the inner loops behind every decision procedure in the package:
Hermite normal form with a tracked left transform, from which every
lattice membership, solution and Smith invariant is read, and dense integer
matrix multiplication.  Matrices come in as sequences of rows, the form
``IntMatrix`` stores, and are never modified; results are new lists of
rows.  Coefficients are plain Python ints, so arithmetic never overflows.
``intlinalg`` calls them through its ``_kernel`` attribute.
"""

from __future__ import annotations


def hnf_rows(rows, ncols, track_u=True):
    """Row-style Hermite normal form.

    Input is a sequence of equal-length integer rows.  Returns ``(h, u, pivots)``
    where ``u`` is unimodular with ``u * rows == h`` (``u`` is None when
    ``track_u`` is false), ``h`` is in row echelon form with positive pivots
    and entries above each pivot reduced into ``[0, pivot)``, and ``pivots``
    is the list of ``(row, col)`` pivot positions.
    """
    m = len(rows)
    h = [list(r) for r in rows]
    u = [[0] * i + [1] + [0] * (m - i - 1) for i in range(m)] if track_u else None
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        if not any(h[i][c] for i in range(r, m)):
            continue
        # Euclidean elimination below the pivot row; always pull the entry of
        # least magnitude up and reduce with nearest quotients, which keeps
        # intermediate coefficient growth tame.
        while True:
            piv = -1
            best = 0
            for i in range(r, m):
                v = h[i][c]
                if v and (piv < 0 or abs(v) < best):
                    piv = i
                    best = abs(v)
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                if track_u:
                    u[r], u[piv] = u[piv], u[r]
            if h[r][c] < 0:
                hr = h[r]
                for j in range(c, ncols):
                    hr[j] = -hr[j]
                if track_u:
                    ur = u[r]
                    for j in range(m):
                        ur[j] = -ur[j]
            a = h[r][c]
            half = a // 2
            done = True
            for i in range(r + 1, m):
                b = h[i][c]
                if not b:
                    continue
                q = (b + half) // a
                if q:
                    hi, hr = h[i], h[r]
                    for j in range(c, ncols):
                        if hr[j]:
                            hi[j] -= q * hr[j]
                    if track_u:
                        ui, ur = u[i], u[r]
                        for j in range(m):
                            if ur[j]:
                                ui[j] -= q * ur[j]
                if h[i][c]:
                    done = False
            if done:
                break
        piv_val = h[r][c]
        for i in range(r):
            q = h[i][c] // piv_val
            if q:
                hi, hr = h[i], h[r]
                for j in range(c, ncols):
                    if hr[j]:
                        hi[j] -= q * hr[j]
                if track_u:
                    ui, ur = u[i], u[r]
                    for j in range(m):
                        if ur[j]:
                            ui[j] -= q * ur[j]
        pivots.append((r, c))
        r += 1
    return h, u, pivots


def mul_rows(a, b, inner, ncols):
    """Product of integer matrices given by their rows: ``len(a) x inner``
    times ``inner x ncols``."""
    out = []
    for arow in a:
        acc = [0] * ncols
        for k in range(inner):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(ncols):
                    w = brow[j]
                    if w:
                        acc[j] += v * w
        out.append(acc)
    return out
