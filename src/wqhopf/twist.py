"""Twists between reconstructions that share a dimension vector.

Two functors with the same dimension vector differ only in how each pair
tensorator maps onto its codomain, so the comparison family phi_cmp with
c2 = phi_cmp * c1 is recovered directly as c2 * c1_inv, and the twist
T = c1_inv * phi_cmp^{-1} * c1 conjugates one coalgebra structure into the
other.  In the weak case T is quasi-invertible with T T^{-1} = Delta(1).
The same slot operators give the nonabelian coboundary of a cochain, with
both partial products taken in ascending slot order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hopf import (WQHopf, basis_coproducts, delta_slot, family_deviation,
                   family_mul, pair_flip)
from .linalg import LinalgError, deviation, eye, inverse, matmul, matmul_chain
from .report import Report, prefixed


class TwistError(ValueError):
    pass


@dataclass(eq=False)
class TwistElement:
    T: dict
    T_inv: dict


@dataclass(eq=False)
class Cochain:
    algebra: WQHopf
    degree: int
    fam: dict        # label n-tuple -> matrix on the tensor product
    fam_inv: dict | None = None


def unit_cochain(H: WQHopf, degree: int) -> Cochain:
    one = H.functor.cat.one
    D = H.functor.D.values
    rk = len(H.blocks)
    fam = {}
    for key in product(range(rk), repeat=degree):
        n = 1
        for k in key:
            n *= D[k]
        fam[key] = eye(n, one)
    return Cochain(H, degree, fam, dict(fam))


def twist_between(H1: WQHopf, H2: WQHopf) -> TwistElement:
    """The twist turning H1's coalgebra structure into H2's."""
    if H1.blocks != H2.blocks:
        raise TwistError(f"block structures differ: {H1.blocks} vs {H2.blocks}")
    if H1.functor.cat.ring.labels != H2.functor.cat.ring.labels:
        raise TwistError("twist between different categories")
    rk = len(H1.blocks)
    F1, F2 = H1.functor, H2.functor
    T, T_inv = {}, {}
    for a in range(rk):
        for b in range(rk):
            cmp_iso = matmul(F2.c[(a, b)], F1.c_inv[(a, b)])
            try:
                cmp_inv = inverse(cmp_iso)
            except LinalgError:
                raise TwistError(
                    f"comparison not invertible at pair ({a}, {b})")
            if deviation(matmul(cmp_iso, F1.c[(a, b)]), F2.c[(a, b)])[0]:
                raise TwistError(
                    f"tensorators at pair ({a}, {b}) do not differ by a "
                    f"codomain isomorphism")
            T[(a, b)] = matmul_chain(F1.c_inv[(a, b)], cmp_inv, F1.c[(a, b)])
            T_inv[(a, b)] = matmul_chain(F1.c_inv[(a, b)], cmp_iso,
                                         F1.c[(a, b)])
    return TwistElement(T, T_inv)


def verify_twist(H1: WQHopf, H2: WQHopf, T: TwistElement,
                 tol: float = 0.0) -> Report:
    rep = Report()
    dunit = H1.delta_unit

    rep.record("twist-quasi-inverse",
               family_deviation(family_mul(T.T, T.T_inv), dunit, tol),
               family_deviation(family_mul(T.T_inv, T.T), dunit, tol))

    parts = []
    d2 = basis_coproducts(H2)
    for key, dh in basis_coproducts(H1).items():
        rhs = family_mul(family_mul(T.T, dh), T.T_inv)
        parts.append(prefixed(key, family_deviation(d2[key], rhs, tol)))
    rep.record("twist-coproduct", *parts)

    if H1.R is not None:
        lhs = H2.R
        rhs = family_mul(family_mul(pair_flip(H1, T.T), H1.R), T.T_inv)
        rep.record("twist-braiding", family_deviation(lhs, rhs, tol))

    # conjugating both nestings of the coproduct moves the associator to
    # (T x 1) (Delta x id)(T) phi (id x Delta)(T^{-1}) (1 x T^{-1})
    lhs = H2.phi
    rhs = family_mul(family_mul(family_mul(family_mul(
        delta_slot(H1, T.T, 3), delta_slot(H1, T.T, 1)), H1.phi),
        delta_slot(H1, T.T_inv, 2)), delta_slot(H1, T.T_inv, 0))
    rep.record("twist-associator", family_deviation(lhs, rhs, tol))
    return rep


def coboundary(gamma: Cochain) -> Cochain:
    """Slotwise coboundary: ascending products of the coproduct images of
    the cochain against those of its quasi-inverse."""
    if gamma.fam_inv is None:
        raise TwistError("coboundary needs a quasi-invertible cochain")
    H = gamma.algebra
    n = gamma.degree
    out = None
    for i in range(1, n + 2, 2):
        t = delta_slot(H, gamma.fam, i)
        out = t if out is None else family_mul(out, t)
    for i in range(0, n + 2, 2):
        t = delta_slot(H, gamma.fam_inv, i)
        out = t if out is None else family_mul(out, t)
    inv = {}
    for key, M in out.items():
        try:
            inv[key] = inverse(M)
        except LinalgError:
            inv = None
            break
    return Cochain(H, n + 1, out, inv)
