"""The rule packs: importing this package populates the rule registry.

``perfile`` holds the single-file rules (RL001–RL008, RL010): one AST
node at a time, judged during the engine's one walk of each file.
``program`` holds the rules that weigh many nodes together
(RL012–RL018): facts recorded during that same walk, judged against
the :class:`~repro.lint.index.ProgramIndex` in pass 2 (RL014 judges
each scope of one file as soon as its walk ends). ``common`` is the small
shared AST toolkit. Rationale per rule id lives in
docs/static-analysis.md.
"""

from __future__ import annotations

from . import perfile  # noqa: F401 - importing registers RL001–RL008, RL010
from . import program  # noqa: F401 - importing registers RL012–RL018

__all__ = []  # rules are reached through the registry, not imports
