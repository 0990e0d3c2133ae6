"""Public calls on complexes that `PathComplex.build` makes without validation.

`io.parse` refuses undeclared path vertices, missing weights and paths whose truncations
are missing, so only the Python API meets such complexes.  Every call must still return
or raise a WphError, never a bare Python error.
"""
import random
from collections import Counter

from wph import io as wio
from wph.algebra import QQ, ZZ, Zmod
from wph.chain import homology
from wph.errors import WphError
from wph.homotopy import (
    certify_one_step,
    chain_homotopy_certificate,
    one_step_homotopy_pathcx,
    verify_path_morphism,
    verify_prism_identity,
)
from wph.pathcx import Path, PathComplex, PathMorphism, Vertex, inclusion_bottom, inclusion_top

from helpers import certificate_outcome, certificate_over_the_ring, certify_one_step_by_matrices, outcome

NAMES = [Vertex(s) for s in "abcde"]


def random_unvalidated_complex(rng: random.Random, ring) -> PathComplex:
    """Up to 6 random paths of 1..3 vertices, mostly on the declared vertices, with weights
    on about 90% of the declared ones: paths may be irregular, miss their truncations and
    use undeclared or unweighted vertices."""
    declared = rng.sample(NAMES, rng.randint(1, 5))
    pick = lambda: rng.choice(declared if rng.random() < 0.9 else NAMES)  # noqa: E731
    paths = [Path(tuple(pick() for _ in range(rng.randint(1, 3)))) for _ in range(rng.randint(1, 6))]
    weights = {v: rng.choice([1, 1, -1, 2, 3]) for v in declared if rng.random() < 0.9}
    return PathComplex.build(declared, paths, weights, ring)


def random_unvalidated_pairs(count: int):
    """(ring, f, g) for count random pairs of vertex maps, each leaving a source vertex out
    with probability 0.05, between two unvalidated complexes over Z, Q or Z/5."""
    rng = random.Random(3)
    for _ in range(count):
        ring = rng.choice([ZZ, QQ, Zmod(5)])
        source, target = random_unvalidated_complex(rng, ring), random_unvalidated_complex(rng, ring)
        maps = [{v: rng.choice(target.store.vertices) for v in source.store.vertices if rng.random() < 0.95} for _ in "fg"]
        yield ring, PathMorphism(source, target, maps[0]), PathMorphism(source, target, maps[1])


def test_every_call_returns_or_raises_a_wph_error():
    outcomes, bare = Counter(), []
    for _, f, g in random_unvalidated_pairs(1000):
        pc = f.source
        calls = {
            "homology": lambda: homology(pc, 3),
            "emit": lambda: wio.emit(pc),
            "validate": pc.validate,
            "morphism": lambda: verify_path_morphism(f),
            "one-step": lambda: one_step_homotopy_pathcx(f, g),
            "certificate": lambda: chain_homotopy_certificate(f, g, 2),
            "degenerate certificate": lambda: chain_homotopy_certificate(f, g, 2, allow_degenerate=True),
            "cylinder certificate": lambda: chain_homotopy_certificate(inclusion_bottom(pc), inclusion_top(pc), 2),
            "certify_one_step": lambda: certify_one_step(f, g, 2),
            "prism": lambda: verify_prism_identity(pc, [c for bucket in pc.store.regular_codes for c in bucket]),
            "cylinder homology": lambda: homology(pc.cylinder(), 3),
        }
        for name, call in calls.items():
            try:
                call()
                outcomes[name] += 1
            except WphError:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure this test looks for
                bare.append((name, repr(exc), f.source, f.target, f.vertex_map, g.vertex_map))
    assert bare == []
    # every call gets past the refusals on 100 inputs or more, so the probe reaches the work behind them
    assert min(outcomes.values()) >= 100, outcomes


def test_the_certificate_gives_its_reference_outcome_on_unvalidated_complexes():
    # certify_one_step leaves out the one-step check, which the run over Q on the support
    # complexes needs, so over Q only the whole certificate is compared
    for ring, f, g in random_unvalidated_pairs(1000):
        if ring != QQ:
            for n in (0, 2):
                assert outcome(certify_one_step, f, g, n) == outcome(certify_one_step_by_matrices, f, g, n), (f, g, n)
        want = certificate_outcome(certificate_over_the_ring, f, g, 2)
        assert certificate_outcome(chain_homotopy_certificate, f, g, 2) == want, (f, g)
