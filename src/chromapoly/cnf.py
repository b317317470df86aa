"""CNF instances with counting semantics, and the assignment-enumeration
model counter that serves as the oracle side of every reduction check.

Files are DIMACS-style with an extra header comment::

    c semantics nae3
    p cnf 3 1
    1 2 3 0

Semantics tags: ``nae<w>`` (not-all-equal, width w >= 3), ``<a>of<2a>``
(exactly a true literals per width-2a clause), ``monotone2sat`` (width-2
clauses, no negated literals, at least one true).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import check_budget

_NAE = re.compile(r"^nae(\d+)$")
_ALPHA = re.compile(r"^(\d+)of(\d+)$")
_MONOTONE = ("monotone2sat", "monotone_2sat", "monotone-2sat")


@dataclass(frozen=True)
class CnfInstance:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    semantics: str

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(
                f"variable count must be nonnegative, got {self.num_vars}")
        object.__setattr__(self, "semantics", _canonical_tag(self.semantics))
        width = clause_width(self.semantics)
        for clause in self.clauses:
            if width is not None and len(clause) != width:
                raise ValueError(
                    f"clause {clause} has width {len(clause)}, "
                    f"semantics {self.semantics} requires {width}")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
                if var in seen:
                    raise ValueError(f"repeated variable {var} in clause {clause}")
                seen.add(var)
            if self.semantics in _MONOTONE and any(lit < 0 for lit in clause):
                raise ValueError("monotone clauses cannot contain negated literals")


def _canonical_tag(tag: str) -> str:
    t = tag.strip().lower()
    if t in _MONOTONE:
        return "monotone2sat"
    m = _NAE.match(t)
    if m:
        if int(m.group(1)) < 3:
            raise ValueError("not-all-equal width must be at least 3")
        return t
    m = _ALPHA.match(t)
    if m:
        a, w = int(m.group(1)), int(m.group(2))
        if w != 2 * a:
            raise ValueError(f"semantics {tag!r}: clause width must be twice the threshold")
        return t
    raise ValueError(f"unknown semantics tag: {tag!r}")


def clause_width(tag: str) -> int | None:
    m = _NAE.match(tag)
    if m:
        return int(m.group(1))
    m = _ALPHA.match(tag)
    if m:
        return int(m.group(2))
    if tag in _MONOTONE:
        return 2
    return None


def alpha_of(tag: str) -> int:
    m = _ALPHA.match(tag)
    if not m:
        raise ValueError(f"semantics {tag!r} has no threshold")
    return int(m.group(1))


def parse_cnf(text: str) -> CnfInstance:
    semantics = None
    header = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "semantics":
                semantics = parts[2]
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        try:
            nums = [int(t) for t in line.split()]
        except ValueError:
            raise ValueError(f"malformed clause line: {line!r}") from None
        if not nums or nums[-1] != 0:
            raise ValueError(f"clause line must end with 0: {line!r}")
        clauses.append(tuple(nums[:-1]))
    if header is None:
        raise ValueError("missing 'p cnf' header")
    if semantics is None:
        raise ValueError("missing 'c semantics' line")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return CnfInstance(num_vars, tuple(clauses), semantics)


def _clause_ok(clause: tuple[int, ...], assignment: int, semantics: str) -> bool:
    values = [((assignment >> (abs(lit) - 1)) & 1) ^ (1 if lit < 0 else 0)
              for lit in clause]
    if semantics.startswith("nae"):
        return 0 < sum(values) < len(values)
    if semantics == "monotone2sat":
        return any(values)
    return sum(values) == alpha_of(semantics)


def count_models(cnf: CnfInstance) -> int:
    """Exact model count under the instance's semantics, by enumeration."""
    cost = 2 ** cnf.num_vars
    check_budget(cost, "assignment enumeration")
    total = 0
    for assignment in range(cost):
        if all(_clause_ok(cl, assignment, cnf.semantics) for cl in cnf.clauses):
            total += 1
    return total
