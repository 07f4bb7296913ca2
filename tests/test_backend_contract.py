"""The backend contract: every CDC backend is a category with finite
products and left-additive hom-modules.

Each backend is checked through its own methods only (identity, compose,
product, proj, pairing, zero, add, scale, and D and partial where it has
a differential) on seeded draws, so the laws hold whichever class
implements them.
"""

import itertools
import random

import pytest

from cdcat import cdc, faa
from cdcat.algebra import INT, zmod
from cdcat.cdc import PolyBackend, PolySampler
from cdcat.errors import ArityError
from cdcat.faa import FaaBackend, FaaSampler
from cdcat.matcat import MatBackend, MatSampler
from cdcat.poly import FinFnBackend, TableMap

SAMPLES = 8


class TableSampler:
    """Seeded arbitrary tables between FinFn modules of dims 1..max_dim."""

    def __init__(self, backend, seed=0, max_dim=2):
        self.backend = backend
        self.rng = random.Random(seed)
        self.max_dim = max_dim

    def random_object(self):
        return self.backend.module(self.rng.randint(1, self.max_dim))

    def random_scalar(self):
        return self.rng.randrange(self.backend.rig.modulus)

    def random_morphism(self, dom, cod):
        m = self.backend.rig.modulus
        return TableMap.from_callable(
            dom, cod, lambda x: tuple(self.rng.randrange(m) for _ in range(cod.dim)))


def poly(rig):
    return PolyBackend(rig), PolySampler(rig, seed=1, max_arity=2, max_degree=2,
                                         max_terms=3)


def finfn():
    be = FinFnBackend(2)
    return be, TableSampler(be, seed=1)


def mat():
    be = MatBackend(3)
    return be, MatSampler(be, seed=1)


def faa_over_poly():
    base, sampler = poly(INT)
    return FaaBackend(base), FaaSampler(base, sampler)


BACKENDS = {
    "poly-int": lambda: poly(INT),
    "poly-zmod5": lambda: poly(zmod(5)),
    "finfn-2": finfn,
    "mat-3": mat,
    "faa-poly-int": faa_over_poly,
}


@pytest.fixture(params=sorted(BACKENDS))
def case(request):
    return BACKENDS[request.param]()


def draw_maps(sampler, *objs):
    """One random map between each consecutive pair of objects."""
    return [sampler.random_morphism(a, b) for a, b in zip(objs, objs[1:])]


def test_identity_is_a_unit(case):
    be, s = case
    for _ in range(SAMPLES):
        A, B = s.random_object(), s.random_object()
        (f,) = draw_maps(s, A, B)
        assert be.compose(f, be.identity(A)) == f
        assert be.compose(be.identity(B), f) == f


def test_compose_is_associative(case):
    be, s = case
    for _ in range(SAMPLES):
        objs = [s.random_object() for _ in range(4)]
        f, g, h = draw_maps(s, *objs)
        assert be.compose(h, be.compose(g, f)) == be.compose(be.compose(h, g), f)


def test_projections_split_pairings(case):
    be, s = case
    for n in range(SAMPLES):
        A = s.random_object()
        cods = [s.random_object() for _ in range(n % 3 + 1)]
        fs = [s.random_morphism(A, B) for B in cods]
        paired = be.pairing(fs)
        for i, f in enumerate(fs):
            assert be.compose(be.proj(cods, i), paired) == f


def test_pairing_of_projections_is_the_identity(case):
    be, s = case
    for n in range(SAMPLES):
        objs = [s.random_object() for _ in range(n % 3 + 1)]
        projs = [be.proj(objs, i) for i in range(len(objs))]
        assert be.pairing(projs) == be.identity(be.product(objs))


def test_hom_sets_are_modules(case):
    be, s = case
    for _ in range(SAMPLES):
        A, B = s.random_object(), s.random_object()
        f, g, h = (s.random_morphism(A, B) for _ in range(3))
        c, d = s.random_scalar(), s.random_scalar()
        zero = be.zero(A, B)
        assert zero.is_zero
        assert be.add(f, zero) == f
        assert be.add(f, g) == be.add(g, f)
        assert be.add(be.add(f, g), h) == be.add(f, be.add(g, h))
        assert be.scale(1, f) == f
        assert be.scale(0, f) == zero
        assert be.scale(c, be.add(f, g)) == be.add(be.scale(c, f), be.scale(c, g))
        assert be.scale(c + d, f) == be.add(be.scale(c, f), be.scale(d, f))
        assert be.scale(c * d, f) == be.scale(c, be.scale(d, f))


def test_composition_is_left_additive(case):
    be, s = case
    for _ in range(SAMPLES):
        A, B, C = (s.random_object() for _ in range(3))
        f = s.random_morphism(A, B)
        g, h = s.random_morphism(B, C), s.random_morphism(B, C)
        c = s.random_scalar()
        assert be.compose(be.add(g, h), f) == be.add(be.compose(g, f), be.compose(h, f))
        assert be.compose(be.scale(c, g), f) == be.scale(c, be.compose(g, f))
        assert be.compose(be.zero(B, C), f) == be.zero(A, C)


@pytest.mark.parametrize("name", ["faa-poly-int", "mat-3", "poly-int", "poly-zmod5"])
def test_partial_is_D_after_the_pairing_that_zeroes_other_directions(name):
    # D_i f = D f <pi_0..pi_(n-1), 0.., pi_n in slot i, 0..>
    be, s = BACKENDS[name]()
    for n in range(SAMPLES):
        blocks = [s.random_object() for _ in range(n % 2 + 2)]
        f = s.random_morphism(be.product(blocks), s.random_object())
        for i in range(1, len(blocks) + 1):
            ext = blocks + [blocks[i - 1]]
            dom = be.product(ext)
            directions = [be.proj(ext, len(blocks)) if j == i - 1 else be.zero(dom, B)
                          for j, B in enumerate(blocks)]
            pairing = be.pairing([be.proj(ext, j) for j in range(len(blocks))] + directions)
            assert be.partial(f, blocks, i) == be.compose(be.D(f), pairing)


# the reindexing Memo: each map it holds equals the same map built fresh, on
# another backend of the same kind, from proj and pairing

def objects(be):
    """The objects of size 1 and 2."""
    return [be.module(d) for d in (1, 2)] if isinstance(be, FinFnBackend) else [1, 2]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_memoised_reindexing_maps_equal_fresh_ones(name):
    (be, _), (fresh, _) = BACKENDS[name](), BACKENDS[name]()
    # faa_D's slot maps up to level `top`: over FinFn, (A x A)^(n+1) has
    # 4^(n+1) points per dimension of A
    for A, B, top in zip(objects(be), objects(fresh), (4, 2)):
        for n in range(5):
            blocks = [B] * (n + 1)
            for I in itertools.chain.from_iterable(
                    itertools.combinations(range(1, n + 1), k) for k in range(n + 1)):
                want = fresh.pairing([fresh.proj(blocks, i) for i in (0, *I)])
                got = cdc.subset_pairing(be, A, I[::-1], n)
                assert got == want
                assert cdc.subset_pairing(be, A, I, n) is got
        for n in range(top + 1):
            pair, P = [B, B], fresh.product([B, B])
            blocks = [P] * (n + 1)
            xs, ys = ([fresh.compose(fresh.proj(pair, h), fresh.proj(blocks, i))
                       for i in range(n + 1)] for h in (0, 1))
            want = (tuple(xs), tuple(ys), fresh.pairing(xs + ys[:1]))
            assert be.reindexing[faa._slot_maps, A, n] == want


@pytest.mark.parametrize("slots", [(3,), (0,), (2, 2), (-1, 1)])
def test_a_refused_slot_set_leaves_the_memo_unchanged(case, slots):
    be, _ = case
    A = objects(be)[0]
    cdc.subset_pairing(be, A, (1,), 2)
    before = dict(be.reindexing)
    for _ in range(2):
        with pytest.raises(ArityError):
            cdc.subset_pairing(be, A, slots, 2)
    assert be.reindexing.keys() == before.keys()
    assert all(be.reindexing[k] is v for k, v in before.items())
