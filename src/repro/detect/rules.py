"""The detection-rule grammar: condition expressions over epoch statistics.

A rule's ``when`` clause is a boolean expression over the per-epoch
statistics the :class:`~repro.core.query.QueryEngine` computes from one
sealed sketch's cached :class:`~repro.core.query.QuerySnapshot`.  The
grammar is deliberately small — StreaMon-style event conditions, nothing
Turing-complete:

.. code-block:: text

    expr       := or_expr
    or_expr    := and_expr ( "or" and_expr )*
    and_expr   := not_expr ( "and" not_expr )*
    not_expr   := "not" not_expr | "(" expr ")" | comparison
    comparison := metric cmp
    metric     := NAME [ ":" param ] [ "(" feature ")" ]
    cmp        := (">" | ">=" | "<" | "<=") NUMBER          # absolute
                | "spikes" [">"] NUMBER "x" ["baseline"]     # v > N * baseline
                | "drops"  [">"] NUMBER "%" ["baseline"]     # v < (1 - N/100) * baseline
                | "rises"  [">"] NUMBER "%" ["baseline"]     # v > (1 + N/100) * baseline

so ``entropy(src) drops > 30% and cardinality spikes > 4x baseline``
parses to an :class:`And` of two baseline-relative comparisons.  The
optional ``(feature)`` tag is informational — it names the key feature
the operator had in mind and is carried into events/reports; the
pipeline evaluates every rule against the one key stream it monitors.

Metric names (``resolve_metrics`` in :mod:`repro.detect.pipeline` maps
them onto the batch query engine): ``entropy[:base]``,
``cardinality``/``f0``, ``l1``, ``l2``, ``f2``, ``moment:p``,
``packets``, ``hh_count[:fraction]``, ``max_share[:fraction]`` and
``total_change[:phi]`` (the only one that needs the previous epoch's
sketch — rules that skip it keep the pipeline subtract-free).

Baselines are per-rule, per-metric exponential moving averages learned
from *non-triggering* epochs only: once a rule's condition goes true its
baselines freeze, so a ramping attack cannot drag its own reference up
epoch by epoch.  A baseline-relative comparison evaluates ``False``
until the baseline has seen ``min_baseline_epochs`` samples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError


class RuleSyntaxError(ConfigurationError):
    """A ``when`` clause that does not parse."""


# --------------------------------------------------------------------- #
# tokenizer
# --------------------------------------------------------------------- #

_TOKEN = re.compile(r"""
    (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?::\d+(?:\.\d+)?)?)
  | (?P<op>>=|<=|>|<)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)

#: Keywords the parser consumes (lowercased NAME tokens).
_KEYWORDS = frozenset({"and", "or", "not", "spikes", "drops", "rises",
                       "baseline", "x"})

#: Metric families the pipeline can evaluate (prefix before ``:param``).
KNOWN_METRICS = frozenset({
    "entropy", "cardinality", "f0", "l1", "l2", "f2", "moment", "packets",
    "hh_count", "max_share", "total_change",
})


@dataclass(frozen=True)
class _Token:
    kind: str          # number | name | op | lparen | rparen
    text: str
    position: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise RuleSyntaxError(
                f"unexpected character {match.group()!r} at column "
                f"{match.start()} in {source!r}")
        tokens.append(_Token(kind, match.group(), match.start()))
    return tokens


# --------------------------------------------------------------------- #
# AST
# --------------------------------------------------------------------- #

class Condition:
    """Base expression node."""

    def evaluate(self, values: Mapping[str, Optional[float]],
                 baselines: Mapping[str, Optional[float]]) -> bool:
        raise NotImplementedError

    def metrics(self) -> FrozenSet[str]:
        """Every metric spec this expression reads."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


#: Comparison kinds and their evaluation against (value, baseline).
_ABSOLUTE_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass(frozen=True)
class Comparison(Condition):
    """One ``metric cmp`` leaf.

    ``op`` is one of ``> >= < <=`` (absolute threshold), ``spikes``
    (value > ``threshold`` x baseline), ``drops`` (value below baseline
    by more than ``threshold`` percent) or ``rises`` (above baseline by
    more than ``threshold`` percent).
    """

    metric: str                       # e.g. "cardinality", "moment:1.5"
    op: str
    threshold: float
    feature: Optional[str] = None     # informational tag, e.g. "src"

    def __post_init__(self) -> None:
        family = self.metric.partition(":")[0]
        if family not in KNOWN_METRICS:
            raise RuleSyntaxError(
                f"unknown metric {self.metric!r} (know: "
                f"{', '.join(sorted(KNOWN_METRICS))})")
        if self.op in ("spikes",) and self.threshold <= 0:
            raise RuleSyntaxError(
                f"spike ratio must be > 0, got {self.threshold}")
        if self.op in ("drops", "rises") and not 0 < self.threshold < 1000:
            raise RuleSyntaxError(
                f"percent change must be in (0, 1000), "
                f"got {self.threshold}")

    def evaluate(self, values: Mapping[str, Optional[float]],
                 baselines: Mapping[str, Optional[float]]) -> bool:
        value = values.get(self.metric)
        if value is None:
            return False
        if self.op in _ABSOLUTE_OPS:
            return _ABSOLUTE_OPS[self.op](value, self.threshold)
        baseline = baselines.get(self.metric)
        if baseline is None:
            return False    # baseline still warming up
        if self.op == "spikes":
            return value > self.threshold * baseline
        if self.op == "drops":
            return value < (1.0 - self.threshold / 100.0) * baseline
        if self.op == "rises":
            return value > (1.0 + self.threshold / 100.0) * baseline
        raise RuleSyntaxError(f"unknown operator {self.op!r}")

    def metrics(self) -> FrozenSet[str]:
        return frozenset({self.metric})

    def describe(self) -> str:
        name = self.metric if self.feature is None \
            else f"{self.metric}({self.feature})"
        if self.op == "spikes":
            return f"{name} spikes > {self.threshold:g}x baseline"
        if self.op in ("drops", "rises"):
            return f"{name} {self.op} > {self.threshold:g}%"
        return f"{name} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class And(Condition):
    children: Tuple[Condition, ...]

    def evaluate(self, values, baselines) -> bool:
        return all(c.evaluate(values, baselines) for c in self.children)

    def metrics(self) -> FrozenSet[str]:
        return frozenset().union(*(c.metrics() for c in self.children))

    def describe(self) -> str:
        return " and ".join(
            f"({c.describe()})" if isinstance(c, Or) else c.describe()
            for c in self.children)


@dataclass(frozen=True)
class Or(Condition):
    children: Tuple[Condition, ...]

    def evaluate(self, values, baselines) -> bool:
        return any(c.evaluate(values, baselines) for c in self.children)

    def metrics(self) -> FrozenSet[str]:
        return frozenset().union(*(c.metrics() for c in self.children))

    def describe(self) -> str:
        return " or ".join(c.describe() for c in self.children)


@dataclass(frozen=True)
class Not(Condition):
    child: Condition

    def evaluate(self, values, baselines) -> bool:
        return not self.child.evaluate(values, baselines)

    def metrics(self) -> FrozenSet[str]:
        return self.child.metrics()

    def describe(self) -> str:
        inner = self.child.describe()
        if isinstance(self.child, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"


# --------------------------------------------------------------------- #
# recursive-descent parser
# --------------------------------------------------------------------- #

class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    # -- token helpers -------------------------------------------------- #

    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise RuleSyntaxError(
                f"unexpected end of expression in {self.source!r}")
        self.index += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return (token is not None and token.kind == "name"
                and token.text.lower() in words)

    def _expect_keyword(self, *words: str) -> str:
        token = self._next()
        if token.kind != "name" or token.text.lower() not in words:
            raise RuleSyntaxError(
                f"expected {' or '.join(words)!s} at column "
                f"{token.position} in {self.source!r}, got {token.text!r}")
        return token.text.lower()

    # -- grammar -------------------------------------------------------- #

    def parse(self) -> Condition:
        expr = self._or()
        trailing = self._peek()
        if trailing is not None:
            raise RuleSyntaxError(
                f"trailing input {trailing.text!r} at column "
                f"{trailing.position} in {self.source!r}")
        return expr

    def _or(self) -> Condition:
        children = [self._and()]
        while self._at_keyword("or"):
            self._next()
            children.append(self._and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and(self) -> Condition:
        children = [self._not()]
        while self._at_keyword("and"):
            self._next()
            children.append(self._not())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _not(self) -> Condition:
        if self._at_keyword("not"):
            self._next()
            return Not(self._not())
        token = self._peek()
        if token is not None and token.kind == "lparen":
            self._next()
            expr = self._or()
            closing = self._next()
            if closing.kind != "rparen":
                raise RuleSyntaxError(
                    f"expected ')' at column {closing.position} in "
                    f"{self.source!r}, got {closing.text!r}")
            return expr
        return self._comparison()

    def _comparison(self) -> Comparison:
        token = self._next()
        if token.kind != "name" or token.text.lower() in _KEYWORDS:
            raise RuleSyntaxError(
                f"expected a metric name at column {token.position} in "
                f"{self.source!r}, got {token.text!r}")
        metric = token.text.lower()
        feature = self._feature_tag()
        return self._operator(metric, feature)

    def _feature_tag(self) -> Optional[str]:
        # `entropy(src)` — a parenthesized NAME directly after the metric.
        token = self._peek()
        if token is None or token.kind != "lparen":
            return None
        inner = self.tokens[self.index + 1] \
            if self.index + 1 < len(self.tokens) else None
        closing = self.tokens[self.index + 2] \
            if self.index + 2 < len(self.tokens) else None
        if (inner is None or closing is None or inner.kind != "name"
                or closing.kind != "rparen"):
            raise RuleSyntaxError(
                f"expected a feature tag like '(src)' at column "
                f"{token.position} in {self.source!r}")
        self.index += 3
        return inner.text.lower()

    def _number(self, what: str) -> float:
        token = self._next()
        if token.kind != "number":
            raise RuleSyntaxError(
                f"expected {what} at column {token.position} in "
                f"{self.source!r}, got {token.text!r}")
        return float(token.text)

    def _operator(self, metric: str, feature: Optional[str]) -> Comparison:
        token = self._next()
        if token.kind == "op":
            return Comparison(metric, token.text, self._number("a number"),
                              feature=feature)
        if token.kind != "name":
            raise RuleSyntaxError(
                f"expected an operator at column {token.position} in "
                f"{self.source!r}, got {token.text!r}")
        word = token.text.lower()
        if word == "spikes":
            if self._peek() is not None and self._peek().kind == "op":
                self._next()    # optional '>' sugar: "spikes > 4x"
            ratio = self._number("a ratio like '4x'")
            self._expect_keyword("x")
            if self._at_keyword("baseline"):
                self._next()
            return Comparison(metric, "spikes", ratio, feature=feature)
        if word in ("drops", "rises"):
            if self._peek() is not None and self._peek().kind == "op":
                self._next()    # optional '>' sugar: "drops > 30%"
            percent = self._number("a percentage like '30'")
            # '%' is not a token; accept an optional bare 'baseline' tail.
            if self._at_keyword("baseline"):
                self._next()
            return Comparison(metric, word, percent, feature=feature)
        raise RuleSyntaxError(
            f"unknown operator {token.text!r} at column {token.position} "
            f"in {self.source!r}")


def parse_condition(source: str) -> Condition:
    """Parse a ``when`` clause into an evaluable :class:`Condition`.

    The ``%`` sign after percentages is optional noise: the tokenizer
    strips it (``drops > 30%`` and ``drops > 30`` are the same tree).
    """
    cleaned = source.replace("%", " ")
    if not cleaned.strip():
        raise RuleSyntaxError("empty rule condition")
    return _Parser(cleaned).parse()


# --------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------- #

class Baseline:
    """Per-metric EWMA reference learned from non-triggering epochs."""

    __slots__ = ("alpha", "min_epochs", "value", "samples")

    def __init__(self, alpha: float = 0.3, min_epochs: int = 1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"baseline alpha must be in (0, 1], got {alpha}")
        if min_epochs < 1:
            raise ConfigurationError(
                f"min_baseline_epochs must be >= 1, got {min_epochs}")
        self.alpha = alpha
        self.min_epochs = min_epochs
        self.value: Optional[float] = None
        self.samples = 0

    @property
    def ready(self) -> bool:
        return self.samples >= self.min_epochs

    def current(self) -> Optional[float]:
        return self.value if self.ready else None

    def observe(self, value: float) -> None:
        if self.value is None:
            self.value = float(value)
        else:
            self.value += self.alpha * (float(value) - self.value)
        self.samples += 1


# --------------------------------------------------------------------- #
# rules
# --------------------------------------------------------------------- #

#: Actions a rule may request on CONFIRMED epochs.
KNOWN_ACTIONS = ("zoom", "recover")


@dataclass
class Rule:
    """One detection rule: a parsed condition plus its state-machine and
    baseline configuration.

    Parameters
    ----------
    name:
        Unique rule identifier (used in events, metrics labels, reports).
    when:
        The condition source text (kept for reports; parsed once).
    confirm_epochs:
        Consecutive triggering epochs before TRIGGERED becomes CONFIRMED
        (1 = confirm on the first hot epoch).
    cooldown_epochs:
        Consecutive quiet epochs in RECOVERING before returning to IDLE.
    min_baseline_epochs:
        Baseline-relative comparisons stay ``False`` until the baseline
        has absorbed this many clean epochs.
    baseline_alpha:
        EWMA weight of each new clean epoch.
    actions:
        Subset of :data:`KNOWN_ACTIONS` to run while CONFIRMED.
    """

    name: str
    when: str
    confirm_epochs: int = 2
    cooldown_epochs: int = 2
    min_baseline_epochs: int = 1
    baseline_alpha: float = 0.3
    actions: Tuple[str, ...] = KNOWN_ACTIONS
    condition: Condition = field(init=False, repr=False)
    _baselines: Dict[str, Baseline] = field(init=False, repr=False,
                                            default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("rule needs a non-empty name")
        if self.confirm_epochs < 1:
            raise ConfigurationError(
                f"confirm_epochs must be >= 1, got {self.confirm_epochs}")
        if self.cooldown_epochs < 1:
            raise ConfigurationError(
                f"cooldown_epochs must be >= 1, got {self.cooldown_epochs}")
        self.actions = tuple(self.actions)
        for action in self.actions:
            if action not in KNOWN_ACTIONS:
                raise ConfigurationError(
                    f"unknown action {action!r} for rule {self.name!r} "
                    f"(know: {', '.join(KNOWN_ACTIONS)})")
        self.condition = parse_condition(self.when)

    # -- metric plumbing ------------------------------------------------ #

    def metrics(self) -> FrozenSet[str]:
        return self.condition.metrics()

    def baselines(self) -> Dict[str, Optional[float]]:
        """Current per-metric baseline values (``None`` while warming)."""
        return {metric: baseline.current()
                for metric, baseline in self._baselines.items()}

    def evaluate(self, values: Mapping[str, Optional[float]]) -> bool:
        """Evaluate the condition and maintain baselines.

        Baselines absorb this epoch's values only when the condition did
        *not* trigger, so an attack cannot ratchet its own reference up.
        """
        for metric in self.metrics():
            if metric not in self._baselines:
                self._baselines[metric] = Baseline(
                    alpha=self.baseline_alpha,
                    min_epochs=self.min_baseline_epochs)
        triggering = self.condition.evaluate(values, self.baselines())
        if not triggering:
            for metric, baseline in self._baselines.items():
                value = values.get(metric)
                if value is not None:
                    baseline.observe(value)
        return triggering

    def reset(self) -> None:
        """Forget learned baselines (trace boundary)."""
        self._baselines.clear()


__all__ = [
    "Baseline",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Condition",
    "KNOWN_ACTIONS",
    "KNOWN_METRICS",
    "Rule",
    "RuleSyntaxError",
    "parse_condition",
]
