"""Finding records and the rule-code catalogue of ``repro lint``.

Codes are grouped into four families, each guarding one repo invariant
(see the rule modules under :mod:`repro.lint.rules` for the rationale
and the precise detection logic):

``RL1``
    Backend-seam: no numpy imports or raw dtype literals outside
    ``engine/backend.py`` in the seam scope.
``RL2``
    Determinism: no global-state / wall-clock / unseeded randomness in
    library code.
``RL4``
    Kernel purity: transition kernels stay on array-API-standard ops;
    non-standard conveniences stay behind ``require_engine_loops``.
``RL5``
    Fingerprint hygiene: no unordered iteration or order-sensitive
    serialisation feeding the content-address hashing paths.

Selectors (``--select``/``--ignore``/waivers) match codes by prefix:
``RL4`` selects ``RL401``, ``RL402`` and ``RL403``; ``all`` matches
everything.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

#: Every rule code with a one-line description.  The CLI prints this
#: table and selector validation checks prefixes against it.
RULE_CODES: dict[str, str] = {
    "RL000": "file could not be parsed (syntax error)",
    "RL101": "numpy import outside the backend seam",
    "RL102": "dynamic numpy import (__import__/import_module) in seam scope",
    "RL103": "raw np./numpy. dtype literal outside engine/backend.py",
    "RL201": "np.random global-state call",
    "RL202": "stdlib `random` import in library code",
    "RL203": "wall-clock nondeterminism (time.time/datetime.now) call",
    "RL204": "default_rng()/SeedSequence() without an explicit seed",
    "RL401": "non-array-API-standard op in a transition kernel",
    "RL402": "in-place mutation (out=/scatter) in a transition kernel",
    "RL403": "non-standard op in a class not gated by require_engine_loops",
    "RL501": "unordered set/dict/glob iteration in a fingerprint path",
    "RL502": "json.dumps without sort_keys=True in a fingerprint path",
}

#: Family prefixes with the invariant each one guards (for --help and
#: the README table).
RULE_FAMILIES: dict[str, str] = {
    "RL1": "backend seam (engine/backend.py is the only numpy site)",
    "RL2": "determinism (seeded, host-drawn, wall-clock-free library code)",
    "RL4": "kernel purity (array-API-standard transition kernels)",
    "RL5": "fingerprint hygiene (order-independent cache keys)",
}


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file position."""

    path: pathlib.Path
    relpath: str
    line: int
    code: str
    message: str
    col: int = field(default=0)

    def sort_key(self):
        return (self.relpath, self.line, self.col, self.code)

    def location(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col + 1}"


def normalise_selector(selector: str) -> str:
    """Canonical (upper-case, stripped) form of a code selector."""
    return selector.strip().upper()


def selector_matches(selector: str, code: str) -> bool:
    """Prefix semantics: ``RL4`` matches ``RL401``; ``ALL`` matches all."""
    selector = normalise_selector(selector)
    return selector == "ALL" or code.upper().startswith(selector)


def validate_selectors(selectors) -> list[str]:
    """Normalise ``selectors`` and reject ones matching no known code."""
    out = []
    for selector in selectors:
        canon = normalise_selector(selector)
        if not canon:
            continue
        if canon != "ALL" and not any(
            code.startswith(canon) for code in RULE_CODES
        ):
            known = ", ".join(sorted(RULE_FAMILIES))
            raise ValueError(
                f"unknown rule selector {selector!r} "
                f"(families: {known}; see RULE_CODES for full codes)"
            )
        out.append(canon)
    return out
