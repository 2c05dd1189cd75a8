"""Corpus generator determinism, property-tested with hypothesis.

The corpus contract: the same seed always produces the same design
specs, the same design digest and the same synthesized netlist
structural hash; different seeds produce distinct digests.  Everything
downstream (the content-addressed result caching the ROADMAP plans,
seed-replay debugging of matrix failures) leans on this.
"""

from hypothesis import given, settings, strategies as st

from repro.corpus import (DESIGN_KINDS, build_design, generate_corpus,
                          module_digest)
from repro.corpus.designs import make_spec
from repro.gatesim import structural_hash

SEEDS = st.integers(min_value=0, max_value=10 ** 6)

#: members cheap enough to build inside a hypothesis loop
CHEAP_KINDS = ("counter", "alu", "regfile")


@given(seed=SEEDS)
@settings(max_examples=10, deadline=None)
def test_same_seed_same_roster(seed):
    first = generate_corpus(seed, 8)
    second = generate_corpus(seed, 8)
    assert first == second
    assert [s.kind for s in first] == \
        [DESIGN_KINDS[i % len(DESIGN_KINDS)] for i in range(8)]


@given(seed=SEEDS, kind=st.sampled_from(CHEAP_KINDS))
@settings(max_examples=10, deadline=None)
def test_same_seed_same_digest_and_netlist_hash(seed, kind):
    spec = make_spec(kind, seed, 1, n_tx=4)
    a, b = build_design(spec), build_design(spec)
    assert a.digest() == b.digest(), \
        f"digest unstable for {spec} (seed {seed})"
    assert structural_hash(a.netlist()) == structural_hash(b.netlist()), \
        f"netlist hash unstable for {spec} (seed {seed})"


@given(seed=st.integers(min_value=0, max_value=10 ** 6 - 1),
       delta=st.integers(min_value=1, max_value=997),
       kind=st.sampled_from(CHEAP_KINDS))
@settings(max_examples=10, deadline=None)
def test_different_seeds_distinct_digests(seed, delta, kind):
    a = build_design(make_spec(kind, seed, 1, n_tx=4))
    b = build_design(make_spec(kind, seed + delta, 1, n_tx=4))
    assert a.digest() != b.digest(), \
        f"seeds {seed} and {seed + delta} collided for kind {kind}"


def test_src_variant_digest_and_hash_stable():
    spec = make_spec("src", 2026, 0, n_frames=4)
    a, b = build_design(spec), build_design(spec)
    assert a.digest() == b.digest()
    assert structural_hash(a.netlist()) == structural_hash(b.netlist())
    other = build_design(make_spec("src", 2027, 0, n_frames=4))
    assert other.digest() != a.digest()


def test_module_digest_tracks_structure():
    spec = make_spec("alu", 7, 2, n_tx=4)
    base = module_digest(build_design(spec).build_rtl())
    assert base == module_digest(build_design(spec).build_rtl())
    # a different configuration must change the module digest too
    wider = build_design(make_spec("alu", 8, 2, n_tx=4))
    if wider.config["width"] != build_design(spec).config["width"] or \
            wider.config["with_mul"] != build_design(spec).config["with_mul"]:
        assert module_digest(wider.build_rtl()) != base


def test_specs_serializable():
    for spec in generate_corpus(3, 4):
        d = spec.as_dict()
        assert d["kind"] == spec.kind
        assert d["name"] == spec.name
        assert isinstance(d["config"], dict) and d["config"]
