"""Linter configuration: which rules a run enables.

A rule's scopes and thresholds are module constants next to the rule
that reads them (:mod:`repro.analysis.rules`,
:mod:`repro.analysis.project.rules`), so the one setting a run chooses
is its rule selection — what ``repro-spatial lint --rules`` sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Immutable linter settings.

    Attributes
    ----------
    select:
        Rule codes to run, or ``None`` for every registered rule.
    """

    select: Optional[FrozenSet[str]] = None

    def wants(self, rule_code: str) -> bool:
        """True when ``rule_code`` is enabled by this configuration."""
        return self.select is None or rule_code in self.select


#: Every rule enabled: the repository's standing configuration (what
#: CI enforces).
DEFAULT_CONFIG = LintConfig()
