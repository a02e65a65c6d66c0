"""Runtime caps and modes for the exhaustive algorithms.

Every search in the library is exhaustive at desk scale; the caps below
bound where exhaustion is allowed to run.  Raising a cap is always safe
for correctness, only for patience.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    """Size caps, evaluation mode and seed for randomized sampling.

    cap_universe bounds any algorithm that walks all subsets of a
    universe (2**n work).  cap_oracle bounds enumeration of directed
    subsets of a poset.  cap_hom bounds how many morphisms a hom-set
    enumerator may yield, cap_iso the poset size fed to isomorphism
    search.  cap_family bounds family sizes in relation enumeration.
    cap_cells bounds the element pairs n1*n2 of the origin posets
    whose induced spaces a hom-set enumeration may search, and the
    family cells whose subsets the powerset oracle scans.  cap_members
    bounds the members of an induced space, counted before any is built
    (chain(19) has 2**19 - 1).
    oracle makes ``validate_cf`` enumerate every chunk instead of the
    greatest one, makes ``way_below`` and ``is_scott_continuous``
    quantify over every directed subset (within cap_oracle) wherever
    the config reaches them, and makes the CLI re-derive way-below
    literally.
    """

    cap_universe: int = 16
    cap_family: int = 64
    cap_hom: int = 20000
    cap_iso: int = 12
    cap_oracle: int = 12
    cap_cells: int = 16
    cap_members: int = 1 << 19
    oracle: bool = False
    seed: int | None = None

    def __post_init__(self):
        for name in ("cap_universe", "cap_family", "cap_hom", "cap_iso", "cap_oracle",
                     "cap_cells", "cap_members"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def with_updates(self, **kw):
        return replace(self, **kw)


DEFAULT_CONFIG = RunConfig()


def resolve(config):
    """Fall back to the default configuration when none is supplied."""
    return DEFAULT_CONFIG if config is None else config
