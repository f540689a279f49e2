"""Arithmetic predicates between terms (Section 2.1).

The paper allows *restricted* arithmetic predicates ``u = v``,
``u != v`` and ``u < v`` between a variable and a constant or between
two co-occurring variables.  We represent them as normalized value
objects; ``>`` and ``>=``/``<=`` inputs are normalized away so that
equality of predicate objects coincides with logical equality of the
atomic constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .terms import Constant, Term, Variable, make_term

#: Operators kept after normalization.
NORMAL_OPS = ("<", "=", "!=")

_SWAP = {">": "<", ">=": "<="}


@dataclass(frozen=True, slots=True)
class Comparison:
    """An atomic order constraint ``left op right`` with op in {<, =, !=}.

    Commutative operators (``=``, ``!=``) store their operands sorted so
    that ``x = y`` and ``y = x`` are the same object value.
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        op, left, right = self.op, make_term(self.left), make_term(self.right)
        if op in _SWAP:
            op = _SWAP[op]
            left, right = right, left
        if op == "<=":
            raise ValueError(
                "non-strict comparisons are not part of the predicate "
                "language; decompose '<=' into '<' or '=' covers"
            )
        if op not in NORMAL_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")
        if op in ("=", "!=") and _term_key(right) < _term_key(left):
            left, right = right, left
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def terms(self) -> Tuple[Term, Term]:
        """The two operand terms."""
        return (self.left, self.right)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Variables among the operands."""
        return tuple(t for t in self.terms if isinstance(t, Variable))

    def negation_disjuncts(self) -> Tuple["Comparison", ...]:
        """Atomic disjuncts equivalent to the negation of this predicate.

        Over a totally ordered domain: ``not (a < b)`` is
        ``a = b or b < a``; ``not (a = b)`` is ``a < b or b < a``;
        ``not (a != b)`` is ``a = b``.
        """
        a, b = self.left, self.right
        if self.op == "<":
            return (Comparison("=", a, b), Comparison("<", b, a))
        if self.op == "=":
            return (Comparison("<", a, b), Comparison("<", b, a))
        return (Comparison("=", a, b),)

    def evaluate(self, left_value, right_value) -> bool:
        """Evaluate against concrete Python values (``<`` is
        :func:`value_less`)."""
        if self.op == "<":
            return value_less(left_value, right_value)
        if self.op == "=":
            return left_value == right_value
        return left_value != right_value

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def __repr__(self) -> str:
        return f"Comparison({self})"


def value_less(left, right) -> bool:
    """``left < right`` over the ordered domain of constant values.

    Values of one type compare natively.  A pair Python cannot order
    (an int and a str) orders by type name, then by text, so a mixed
    active domain stays totally ordered — the one rule every engine
    applies to a predicate such as ``x < 3`` over ``'1'``.

    >>> value_less(7, 3), value_less("1", 3), value_less(3, "1")
    (False, False, True)
    """
    try:
        return left < right
    except TypeError:
        return (type(left).__name__, str(left)) < (
            type(right).__name__, str(right)
        )


def _term_key(term: Term) -> tuple:
    if isinstance(term, Variable):
        return (0, term.name)
    value = term.value
    return (1, type(value).__name__, str(value))


def comparison(left, op: str, right) -> Comparison:
    """Convenience constructor: ``comparison('x', '<', 'y')``."""
    return Comparison(op, make_term(left), make_term(right))


def trichotomy(left: Term, right: Term) -> Tuple[Comparison, Comparison, Comparison]:
    """The three mutually exclusive order types of a term pair.

    Used to build the canonical coverage ``C<(q)`` (Section 2.1): for
    each co-occurring pair one of ``u < v``, ``u = v``, ``u > v`` holds.
    """
    return (
        Comparison("<", left, right),
        Comparison("=", left, right),
        Comparison("<", right, left),
    )


def constants_order_consistent(pred: Comparison) -> bool:
    """For a predicate between two constants, check it against reality.

    Returns True when at least one operand is a variable (nothing to
    check), otherwise evaluates the comparison on the constant values.
    """
    if isinstance(pred.left, Constant) and isinstance(pred.right, Constant):
        return pred.evaluate(pred.left.value, pred.right.value)
    return True
