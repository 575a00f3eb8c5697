"""The model block sums in label coordinates, and their Hom table.

Over the DVR R the homotopy category is Krull-Schmidt with the
indecomposables K(j), K(j)[1], R and R[1].  A label is a pair
(j, shifted): K(j) (d0 = 0, d1 = x^j) for j >= 1, K(j)[1] = shift(K(j))
(d0 = -x^j, d1 = 0) when shifted, and j = 0 names the free summands R
(ranks (1, 0)) and R[1] (ranks (0, 1)), whose differentials are zero.
A block sum lists its labels in block order; each label has one basis
vector in each degree where it has one (:func:`degree_indices`).

A chain map between block sums is a matrix of blocks, one per ordered
pair of labels a -> b, and so are a homotopy and a Hom generator.
:func:`entry` gives the block of each as a function of the pair alone.
A free label counts as index infinity there, x^inf being 0: R is K(inf)
without its degree-1 vector and R[1] is K(inf)[1] without its degree-0
vector.  For a = K(i)[e] and b = K(j)[f], with v = min(i, j):

* every chain map a -> b is r g for one r in R and the generator
  g = (x^(j-v), x^(i-v)) in degrees (0, 1) when e = f = unshifted, its
  swap when both are shifted, and 1 in the one degree where a map
  between a model and a shifted model can be nonzero (degree 1 for
  K(i) -> K(j)[1], degree 0 for K(i)[1] -> K(j));
* Hom(a, b) = R/x^v, free when v is infinite, and 0 when every chain
  map is zero (K(i) -> R, K(i)[1] -> R[1], R -> K(j)[1], R[1] -> K(j),
  R -> R[1] and R[1] -> R);
* the standard homotopy s, with d s + s d = x^v g, is s = (1, 0)
  between unshifted labels and (0, -1) between shifted ones; between a
  model and a shifted model, s0 = 1 when x^v is the power of the
  unshifted end, else s1 = -1.

So r g is null-homotopic exactly when r lies in x^v R, with witness
(r / x^v) s, and r is the entry of r g in the degree where g is 1.

The generators of Hom between two block sums come in one order,
:func:`hom_pairs`: the label pairs in block order, sorted stably by v,
so the free ones come last.  ``complexes.hom_module`` numbers its
closed-form generators in it, and ``artheory`` numbers its AR3
candidates in it, so a generator index means the same map in both.

This module handles labels, exponents, indices and the differentials'
matrices only; ``complexes`` builds the complexes, maps and homotopies
from them and transports them along block-sum certificates.  Every
matrix in label coordinates, here and there, is written cell by cell
through ``RMatrix.from_cells``.
"""

from __future__ import annotations

import math
from typing import Optional

from .fields import FieldSpec
from .localring import x_power
from .matrix import RMatrix

INF = math.inf


def degree_indices(labels) -> tuple:
    """The index of each label's basis vector in degree 0 and in degree 1
    of its block sum, None where it has none: R = (0, False) has no
    degree-1 vector and R[1] = (0, True) no degree-0 vector."""
    idx0, idx1 = [], []
    n0 = n1 = 0
    for j, shifted in labels:
        idx0.append(None if not j and shifted else n0)
        idx1.append(None if not j and not shifted else n1)
        n0 += idx0[-1] is not None
        n1 += idx1[-1] is not None
    return idx0, idx1


def block_sum(field: FieldSpec, labels) -> tuple:
    """(r0, r1, d0, d1) of the block sum of the model complexes in the
    order of ``labels`` (module docstring)."""
    idx0, idx1 = degree_indices(labels)
    r0, r1 = len(idx0) - idx0.count(None), len(idx1) - idx1.count(None)
    cells = ([], [])  # of d0 and of d1
    for (j, shifted), a0, a1 in zip(labels, idx0, idx1):
        if j and shifted:
            cells[0].append(((a1, a0), -x_power(field, j)))
        elif j:
            cells[1].append(((a0, a1), x_power(field, j)))
    return (r0, r1, RMatrix.from_cells(field, r1, r0, cells[0]),
            RMatrix.from_cells(field, r0, r1, cells[1]))


def entry(a: tuple, b: tuple) -> Optional[tuple]:
    """The entry (v, g, h) of the label pair a -> b (module docstring),
    None when every chain map a -> b is zero: Hom(a, b) = R/x^v, free
    when v is INF; the generator is (x^g[0], x^g[1]), None for a zero
    component; the standard homotopy has the one component s_h = (-1)^h,
    and d s + s d = x^v (x^g[0], x^g[1]) (a component where a free end
    has no vector is empty)."""
    (i, e), (j, f) = a, b
    i, j = i or INF, j or INF
    v = min(i, j)
    if e == f:
        g0 = 0 if j == v else (None if j == INF else j - v)
        g1 = 0 if i == v else (None if i == INF else i - v)
        if e:
            g0, g1 = g1, g0
        h = int(e)
    else:
        g0, g1 = (0, None) if e else (None, 0)
        # s0 when the unshifted end carries the smaller power
        h = int((j if e else i) != v)
    # a free end has no vector in one degree: R none in 1, R[1] none in 0
    g0 = None if (i == INF and e) or (j == INF and f) else g0
    g1 = None if (i == INF and not e) or (j == INF and not f) else g1
    if g0 is None and g1 is None:
        return None
    return v, (g0, g1), h


def label_pairs(src, dst):
    """(a's indices, b's indices, entry(a, b)) for each label a of ``src``
    and b of ``dst`` with a nonzero chain map a -> b, a outer, in block
    order; indices per degree as in :func:`degree_indices`."""
    a0s, a1s = degree_indices(src)
    b0s, b1s = degree_indices(dst)
    for a, a0, a1 in zip(src, a0s, a1s):
        for b, b0, b1 in zip(dst, b0s, b1s):
            e = entry(a, b)
            if e is not None:
                yield (a0, a1), (b0, b1), e


def hom_pairs(src, dst) -> list:
    """:func:`label_pairs` sorted stably by the Hom factor v: the order
    of the Hom generators between the block sums (module docstring)."""
    return sorted(label_pairs(src, dst), key=lambda p: p[2][0])
