"""SQL subset parser for the Section 6.8 evaluation queries.

Grammar (case-insensitive keywords)::

    query     := SELECT select_list FROM name
                 [WHERE disjunction]
                 [GROUP BY column_list]
                 [ORDER BY expression [ASC | DESC] (, expression [ASC | DESC])*]
                 [LIMIT integer]
                 [APPROX_TOPK '(' number ')']

ORDER BY parses without LIMIT, but the executor answers top-k queries
only and rejects it, after a scan or a GROUP BY, with
:class:`~repro.errors.UnsupportedQueryError`.  GROUP BY without ORDER BY
returns its groups by count descending, the lower key first, cut at the
LIMIT: the rows of ``ORDER BY <count alias> DESC LIMIT k``.
    select    := expression [AS name]
               | COUNT([*]) [AS name]
               | (SUM | MIN | MAX | AVG) '(' expression ')' [AS name]
    disjunction := conjunction (OR conjunction)*
    conjunction := predicate (AND predicate)*
    predicate := NOT predicate | '(' disjunction ')' | sum (cmp sum)?
    sum       := product (('+'|'-') product)*
    product   := atom (('*'|'/') atom)*
    atom      := number | string | column | '(' sum ')'

This covers all four Section 6.8 queries, e.g.::

    SELECT id FROM tweets WHERE tweet_time < 0.5
        ORDER BY retweet_count DESC LIMIT 50
    SELECT uid, COUNT() AS num_tweets FROM tweets
        GROUP BY uid ORDER BY num_tweets DESC LIMIT 50
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.engine.expressions import BinaryOp, Column, Expression, Literal, Not
from repro.errors import SqlSyntaxError

_TOKEN_PATTERN = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<string>'[^']*')"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<>|[-+*/()=<>,])"
    r"|(?P<star>\*)"
    r")"
)

_KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "order",
    "by",
    "limit",
    "asc",
    "desc",
    "and",
    "or",
    "not",
    "as",
    "count",
    "sum",
    "min",
    "max",
    "avg",
    "approx_topk",
}


#: Aggregate functions usable in GROUP BY select lists.
AGGREGATES = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list.

    ``aggregate`` names the aggregate function when the item is one
    (COUNT/SUM/MIN/MAX/AVG); COUNT takes no argument expression.
    """

    expression: Expression | None
    alias: str
    aggregate: str | None = None

    @property
    def is_count(self) -> bool:
        return self.aggregate == "count"

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass
class Query:
    """Parsed representation of a query.

    ``order_by_keys`` holds every ORDER BY key as (expression, descending)
    in priority order; ``order_by`` / ``order_desc`` mirror the first key
    for the common single-key case.
    """

    table: str
    select: list[SelectItem]
    where: Expression | None = None
    group_by: list[str] = field(default_factory=list)
    order_by: Expression | None = None
    order_desc: bool = False
    limit: int | None = None
    order_by_keys: list[tuple[Expression, bool]] = field(default_factory=list)
    #: Minimum acceptable recall from an APPROX_TOPK(r) clause; None means
    #: the query did not opt in (the session default applies).
    recall_target: float | None = None


class _Tokens:
    def __init__(self, text: str):
        self.items: list[str] = []
        position = 0
        while position < len(text):
            match = _TOKEN_PATTERN.match(text, position)
            if match is None:
                raise SqlSyntaxError(
                    f"cannot tokenize SQL at position {position}: "
                    f"{text[position:position + 20]!r}"
                )
            token = match.group().strip()
            if token:
                self.items.append(token)
            position = match.end()
        self.position = 0

    def peek(self) -> str | None:
        if self.position < len(self.items):
            return self.items[self.position]
        return None

    def peek_keyword(self) -> str | None:
        token = self.peek()
        return token.lower() if token and token.lower() in _KEYWORDS else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of query")
        self.position += 1
        return token

    def expect(self, keyword: str) -> None:
        token = self.next()
        if token.lower() != keyword:
            raise SqlSyntaxError(f"expected {keyword.upper()!r}, got {token!r}")

    def accept(self, keyword: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() == keyword:
            self.position += 1
            return True
        return False


def parse(sql: str) -> Query:
    """Parse a SQL string into a :class:`Query`."""
    tokens = _Tokens(sql.strip().rstrip(";"))
    tokens.expect("select")
    select = _parse_select_list(tokens)
    tokens.expect("from")
    table = tokens.next()

    where = None
    group_by: list[str] = []
    order_by_keys: list[tuple] = []
    limit = None
    recall_target = None
    while tokens.peek() is not None:
        keyword = tokens.next().lower()
        if keyword == "where":
            where = _parse_disjunction(tokens)
        elif keyword == "group":
            tokens.expect("by")
            group_by = [tokens.next()]
            while tokens.accept(","):
                group_by.append(tokens.next())
        elif keyword == "order":
            tokens.expect("by")
            order_by_keys.append(_parse_order_key(tokens))
            while tokens.accept(","):
                order_by_keys.append(_parse_order_key(tokens))
        elif keyword == "limit":
            # "-1" tokenizes as "-", "1"; reassemble so the executor can
            # reject negative limits with a typed InvalidParameterError
            # instead of this parser leaking a bare ValueError.
            sign = -1 if tokens.accept("-") else 1
            token = tokens.next()
            try:
                limit = sign * int(token)
            except ValueError:
                raise SqlSyntaxError(
                    f"LIMIT expects an integer, got {token!r}"
                ) from None
        elif keyword == "approx_topk":
            tokens.expect("(")
            token = tokens.next()
            try:
                recall_target = float(token)
            except ValueError:
                raise SqlSyntaxError(
                    f"APPROX_TOPK expects a number, got {token!r}"
                ) from None
            if not 0.0 < recall_target <= 1.0:
                raise SqlSyntaxError(
                    f"APPROX_TOPK recall target must be in (0, 1], got {token}"
                )
            tokens.expect(")")
        else:
            raise SqlSyntaxError(f"unexpected token {keyword!r}")
    first_key = order_by_keys[0] if order_by_keys else (None, False)
    return Query(
        table=table,
        select=select,
        where=where,
        group_by=group_by,
        order_by=first_key[0],
        order_desc=first_key[1],
        limit=limit,
        order_by_keys=order_by_keys,
        recall_target=recall_target,
    )


def _parse_order_key(tokens: _Tokens) -> tuple:
    expression = _parse_sum(tokens)
    descending = False
    if tokens.accept("desc"):
        descending = True
    else:
        tokens.accept("asc")
    return (expression, descending)


def _parse_select_list(tokens: _Tokens) -> list[SelectItem]:
    items = [_parse_select_item(tokens)]
    while tokens.accept(","):
        items.append(_parse_select_item(tokens))
    return items


def _parse_select_item(tokens: _Tokens) -> SelectItem:
    token = tokens.peek()
    if token is not None and token.lower() in AGGREGATES:
        aggregate = tokens.next().lower()
        tokens.expect("(")
        if aggregate == "count":
            tokens.accept("*")
            argument = None
        else:
            argument = _parse_sum(tokens)
        tokens.expect(")")
        alias = aggregate
        if tokens.accept("as"):
            alias = tokens.next()
        return SelectItem(expression=argument, alias=alias, aggregate=aggregate)
    expression = _parse_sum(tokens)
    alias = str(expression)
    if tokens.accept("as"):
        alias = tokens.next()
    elif isinstance(expression, Column):
        alias = expression.name
    return SelectItem(expression=expression, alias=alias)


def _parse_disjunction(tokens: _Tokens) -> Expression:
    left = _parse_conjunction(tokens)
    while tokens.accept("or"):
        left = BinaryOp("or", left, _parse_conjunction(tokens))
    return left


def _parse_conjunction(tokens: _Tokens) -> Expression:
    left = _parse_predicate(tokens)
    while tokens.accept("and"):
        left = BinaryOp("and", left, _parse_predicate(tokens))
    return left


def _parse_predicate(tokens: _Tokens) -> Expression:
    if tokens.accept("not"):
        return Not(_parse_predicate(tokens))
    # A parenthesis may open a boolean group or an arithmetic expression;
    # resolve by attempting the boolean parse first.
    if tokens.peek() == "(":
        saved = tokens.position
        tokens.next()
        try:
            inner = _parse_disjunction(tokens)
            if tokens.peek() == ")":
                tokens.next()
                # Only treat it as a boolean group when not followed by an
                # arithmetic/comparison continuation.
                if tokens.peek() not in set("+-*/<>=") and tokens.peek() not in (
                    "<=",
                    ">=",
                    "!=",
                ):
                    return inner
        except SqlSyntaxError:
            pass
        tokens.position = saved
    left = _parse_sum(tokens)
    operator = tokens.peek()
    if operator in ("<", "<=", ">", ">=", "=", "!=", "<>"):
        tokens.next()
        if operator == "<>":
            operator = "!="
        right = _parse_sum(tokens)
        return BinaryOp(operator, left, right)
    return left


def _parse_sum(tokens: _Tokens) -> Expression:
    left = _parse_product(tokens)
    while tokens.peek() in ("+", "-"):
        operator = tokens.next()
        left = BinaryOp(operator, left, _parse_product(tokens))
    return left


def _parse_product(tokens: _Tokens) -> Expression:
    left = _parse_atom(tokens)
    while tokens.peek() in ("*", "/"):
        operator = tokens.next()
        left = BinaryOp(operator, left, _parse_atom(tokens))
    return left


def _parse_atom(tokens: _Tokens) -> Expression:
    token = tokens.next()
    if token == "(":
        inner = _parse_sum(tokens)
        closing = tokens.next()
        if closing != ")":
            raise SqlSyntaxError(f"expected ')', got {closing!r}")
        return inner
    if token.startswith("'") and token.endswith("'"):
        return Literal(token[1:-1])
    if re.fullmatch(r"\d+\.\d*|\.\d+", token):
        return Literal(float(token))
    if token.isdigit():
        return Literal(int(token))
    if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
        if token.lower() in _KEYWORDS:
            raise SqlSyntaxError(f"unexpected keyword {token!r} in expression")
        return Column(token)
    raise SqlSyntaxError(f"unexpected token {token!r} in expression")
