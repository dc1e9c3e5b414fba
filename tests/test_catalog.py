"""Builtin categories: certification, pinned invariants, twist derivation."""

import pytest

from wqhopf.catalog import (CatalogError, all_entries, builtin, catalog_keys,
                            certify, derive_twists)
from wqhopf.category import ftable, qdim, rtable, verify_category
from wqhopf.scalars import Cyc


def test_every_entry_certifies_exactly():
    for key in catalog_keys():
        name, n, q = key
        entry = builtin(name, n=n, q=q)
        rep = certify(entry)
        assert rep.passed, (key, [c.id for c in rep.failures()])


def test_catalog_covers_seven_entries():
    assert len(list(catalog_keys())) == 7
    assert len(all_entries()) == 7


def test_fibonacci_invariants():
    cat = builtin("fibonacci").category
    d = qdim(cat, 1)
    assert d * d == d + Cyc.rational(1)          # golden ratio, positive root
    assert d.embed().real > 0
    theta = cat.theta[1]
    assert theta == Cyc.zeta(5, 3)               # e^{-4 pi i / 5}
    a = ftable(cat, 1, 1, 1, 1)[0][0]
    assert a * a + a == Cyc.rational(1)          # diagonal F-entry, same field
    assert ftable(cat, 1, 1, 1, 1)[1][1] == -a


def test_ising_invariants():
    cat = builtin("ising").category
    s = qdim(cat, 1)
    assert s * s == Cyc.rational(2) and s.embed().real > 0
    assert cat.theta[1] == Cyc.zeta(16, 15)      # e^{-i pi / 8}
    assert cat.theta[2] == Cyc.rational(-1)
    assert qdim(cat, 2) == Cyc.rational(-1) or qdim(cat, 2) == Cyc.rational(1)


def test_svec_braiding_sign():
    cat = builtin("svec").category
    assert rtable(cat, 1, 1, 0)[0][0] == Cyc.rational(-1)
    assert cat.theta[1] == Cyc.rational(1)


def test_vec_zn_cocycle_associator():
    flat = builtin("vec_zn", n=3, q=0).category
    assert all(M[0][0] == Cyc.rational(1) for M in flat.F.values())
    twisted = builtin("vec_zn", n=3, q=1).category
    assert any(M[0][0] != Cyc.rational(1) for M in twisted.F.values())
    assert verify_category(twisted).passed


def test_vec_zn_braiding_is_bilinear_pairing():
    cat = builtin("vec_zn", n=2, q=1).category
    # the semion: self-braiding of the generator is a primitive 4th root
    r = rtable(cat, 1, 1, 0)[0][0]
    assert r ** 2 == Cyc.rational(-1)


def test_derive_twists_recovers_stored_theta():
    for name in ("fibonacci", "ising", "svec"):
        cat = builtin(name).category
        twists = derive_twists(cat)
        assert cat.theta in twists


def test_builtin_argument_validation():
    with pytest.raises(CatalogError):
        builtin("nosuch")
    with pytest.raises(CatalogError):
        builtin("vec_zn")          # needs n


def test_entries_cached():
    assert builtin("fibonacci") is builtin("fibonacci")


def test_invariants_match_embeddings():
    for entry in all_entries():
        cat = entry.category
        for lab, val in entry.invariants["qdim"].items():
            a = cat.ring.idx(lab)
            assert abs(qdim(cat, a).embed() - val) < 1e-9
        for lab, val in entry.invariants["theta"].items():
            a = cat.ring.idx(lab)
            assert abs(cat.theta[a].embed() - complex(val)) < 1e-9
