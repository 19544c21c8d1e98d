"""Arithmetic in the recursive tower of binary fields, nimber oracles, and
an order/primitivity verification engine with factored Fermat-number data."""

from .errors import (
    ArithmeticFault,
    DivideByZero,
    ExactDivError,
    LevelError,
    LevelMismatch,
    MissingFactorization,
    NimtowerError,
    NotAnExponent,
    NotInField,
    OutOfOracleRange,
    ParseError,
    ValidationError,
    ZeroElement,
    ZeroInverse,
    ZeroToZero,
)
from .fermat import (
    FactoredOrder,
    FermatFactorization,
    builtin_factor_table,
    fermat_number,
    group_order,
    load_factor_table,
)
from .orders import (
    AlphaChain,
    alpha_chain,
    is_primitive,
    minimal_subfield_exponent,
    multiplicative_order,
)
from .report import CheckRecord, VerificationReport
from .tower import TowerElement, format_element, generator, parse_hex, random_element

__all__ = [
    "AlphaChain",
    "ArithmeticFault",
    "CheckRecord",
    "DivideByZero",
    "ExactDivError",
    "FactoredOrder",
    "FermatFactorization",
    "LevelError",
    "LevelMismatch",
    "MissingFactorization",
    "NimtowerError",
    "NotAnExponent",
    "NotInField",
    "OutOfOracleRange",
    "ParseError",
    "TowerElement",
    "ValidationError",
    "VerificationReport",
    "ZeroElement",
    "ZeroInverse",
    "ZeroToZero",
    "alpha_chain",
    "builtin_factor_table",
    "fermat_number",
    "format_element",
    "generator",
    "group_order",
    "is_primitive",
    "load_factor_table",
    "minimal_subfield_exponent",
    "multiplicative_order",
    "parse_hex",
    "random_element",
]
