"""Finding records and the rule-code catalogue of ``repro lint``.

Codes are grouped into two families, each guarding one repo invariant
(see the rule modules under :mod:`repro.lint.rules` for the rationale
and the precise detection logic):

``RL2``
    Determinism: no global-state / wall-clock / unseeded randomness in
    library code.
``RL5``
    Fingerprint hygiene: no unordered iteration or order-sensitive
    serialisation feeding the content-address hashing paths.

Selectors (``--select``/``--ignore``/waivers) match codes by prefix:
``RL2`` selects ``RL201`` through ``RL204``; ``all`` matches
everything.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

#: Every rule code with a one-line description.  The CLI prints this
#: table and selector validation checks prefixes against it.
RULE_CODES: dict[str, str] = {
    "RL000": "file could not be parsed (syntax error)",
    "RL201": "np.random global-state call",
    "RL202": "stdlib `random` import in library code",
    "RL203": "wall-clock nondeterminism (time.time/datetime.now) call",
    "RL204": "default_rng()/SeedSequence() without an explicit seed",
    "RL501": "unordered set/dict/glob iteration in a fingerprint path",
    "RL502": "json.dumps without sort_keys=True in a fingerprint path",
}

#: Family prefixes with the invariant each one guards (for --help and
#: the README table).
RULE_FAMILIES: dict[str, str] = {
    "RL2": "determinism (seeded, wall-clock-free library code)",
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
    """Prefix semantics: ``RL2`` matches ``RL201``; ``ALL`` matches all."""
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
