"""Pure-Python row-reduction kernels.

These are the inner loops behind every decision procedure in the package:
Hermite normal form with a tracked left transform (which also yields the
Smith invariants, by alternating passes), a transform-free sparse
lattice-membership test, and dense integer matrix multiplication.  Dense
matrices come in as sequences of rows, the form ``IntMatrix`` stores, and
are never modified; results are new lists of rows.  Coefficients are plain
Python ints, so arithmetic never overflows.  ``intlinalg`` calls them
through its ``_kernel`` attribute.
"""

from __future__ import annotations

from heapq import heappop, heappush


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


def in_lattice(rows, targets):
    """Whether every target lies in the row lattice of ``rows``.

    Rows and targets are sparse, ``{col: value}`` dicts without zero values;
    neither is modified.  The answer is that of ``solve_left(A, B) is not
    None`` for their dense forms.  This is structured Gaussian elimination
    (LaMacchia and Odlyzko) without a transform: rows are bucketed by
    leading column and the buckets are settled in column order.  Settling
    column ``c`` takes the row of least magnitude at ``c`` (the shortest
    among equals) as pivot, reduces the others by nearest quotients and
    moves every row whose entry at ``c`` vanished to the bucket of its new
    leading column, until one row is left; the magnitude of the pivot falls
    every round, so this ends.  A target is reduced only at its leading
    column, once that column is settled, so the test stops at the first
    column where a target's entry is not a multiple of the pivot, and as
    soon as every target is cleared.
    """
    buckets: dict[int, list[dict]] = {}
    heap: list[int] = []

    def file(row):
        c = min(row)
        bucket = buckets.get(c)
        if bucket is None:
            buckets[c] = [row]
            heappush(heap, c)
        else:
            bucket.append(row)

    for row in rows:
        if row:
            file(dict(row))
    pending = [dict(t) for t in targets if t]
    while pending:
        lead = min(min(t) for t in pending)
        c = -1
        while heap and heap[0] <= lead:
            c = heappop(heap)
            bucket = buckets.pop(c)
            while len(bucket) > 1:
                pivot = min(bucket, key=lambda r: (abs(r[c]), len(r)))
                a = pivot[c]
                kept = [pivot]
                for row in bucket:
                    if row is pivot:
                        continue
                    q, rem = divmod(row[c], a)
                    if 2 * abs(rem) > abs(a):
                        q += 1
                    _sub_multiple(row, q, pivot)
                    if c in row:
                        kept.append(row)
                    elif row:
                        file(row)
                bucket = kept
        if c != lead:
            return False
        pivot = bucket[0]
        a = pivot[c]
        rest = []
        for t in pending:
            v = t.get(c)
            if v:
                q, rem = divmod(v, a)
                if rem:
                    return False
                _sub_multiple(t, q, pivot)
            if t:
                rest.append(t)
        pending = rest
    return True


def _sub_multiple(row, q, pivot):
    """``row -= q * pivot`` on sparse rows, dropping the entries that vanish."""
    for j, v in pivot.items():
        w = row.get(j, 0) - q * v
        if w:
            row[j] = w
        else:
            del row[j]


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
