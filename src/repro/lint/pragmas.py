"""Suppression pragmas: ``# reprolint: disable=RL001``.

Three scopes, mirroring the suppression policy in
``docs/STATIC_ANALYSIS.md``:

* ``# reprolint: disable=RL001,RL002`` — trailing comment: suppress the
  listed rules on *that line* (the line the violation is reported on,
  which for a multi-line statement is where it starts).
* ``# reprolint: disable-next=RL001`` — on its own line: suppress on the
  following line (for lines too long to carry a trailing comment).
* ``# reprolint: disable-file=RL001`` — anywhere at column 0: suppress
  the listed rules for the whole file (reserved for modules whose *job*
  is the exempted behaviour, e.g. wall-clock observability).

``disable=all`` is accepted in every scope.  Pragmas are parsed from the
token stream, not regexes over raw lines, so string literals containing
the pragma text are never misread as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable(?:-next|-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+)"
)

#: The wildcard accepted in place of a rule list.
ALL = "all"


def _parse_rules(raw: str) -> FrozenSet[str]:
    return frozenset(
        part.strip().upper() if part.strip() != ALL else ALL
        for part in raw.split(",")
        if part.strip()
    )


@dataclass
class PragmaIndex:
    """Per-file suppression table, queried once per candidate violation."""

    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    file_rules: Set[str] = field(default_factory=set)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True iff ``code`` is disabled on ``line`` (or file-wide)."""
        if ALL in self.file_rules or code in self.file_rules:
            return True
        rules = self.line_rules.get(line)
        if rules is None:
            return False
        return ALL in rules or code in rules


def parse_pragmas(source: str) -> PragmaIndex:
    """Build the suppression index for one module's source text.

    Tolerates source that fails to tokenize (the engine reports a parse
    error separately); in that case nothing is suppressed.
    """
    index = PragmaIndex()
    if "reprolint" not in source:
        return index  # no comment can match: skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return index
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        rules = _parse_rules(match.group("rules"))
        scope = match.group("scope")
        line = token.start[0]
        if scope == "disable-file":
            index.file_rules |= rules
        elif scope == "disable-next":
            index.line_rules.setdefault(line + 1, set()).update(rules)
        else:
            index.line_rules.setdefault(line, set()).update(rules)
    return index
