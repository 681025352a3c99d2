"""Exact invariants of polynomial map germs from the plane of their unfoldings.

The package computes, over Q, the image equation of a one-parameter unfolding
of a map germ (C^n, S) -> (C^(n+1), 0), the ideal recording where the
parameter projection fails to be transverse to the level sets of that
equation, and the numerical invariants derived from it: the image Milnor
number (two independent routes), the Bruce-Roberts number, the Ae-codimension
read off a one-parameter stable unfolding, and a machine-checked
stable/unstable verdict.
"""

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ParseError, ResourceLimitError
from .poly import VariableContext, Polynomial
from .gb import Ideal, local_colength, INFINITE, EMPTY
from .syzygy import (
    syzygy_basis, kernel_fields, tangent_fields, parameter_part, ideal_quotient,
)
from .invariants import (
    MapGermSpec, ImageEquation, InvariantReport, SamuelResult, SliceResult,
    LCIdeal, image_equation, ft_ideal, ft_codim, ft_dimension,
    samuel_multiplicity, image_milnor_number, milnor_number,
    slice_milnor_total, bruce_roberts_number, ae_codimension, lc_ideal,
    euler_degree, euler_ideal_identity, full_report,
)

__all__ = [
    "ComputeConfig",
    "DEFAULT_CONFIG",
    "GermInputError",
    "ParseError",
    "ResourceLimitError",
    "VariableContext",
    "Polynomial",
    "Ideal",
    "local_colength",
    "INFINITE",
    "EMPTY",
    "syzygy_basis",
    "kernel_fields",
    "tangent_fields",
    "parameter_part",
    "ideal_quotient",
    "MapGermSpec",
    "ImageEquation",
    "InvariantReport",
    "SamuelResult",
    "SliceResult",
    "LCIdeal",
    "image_equation",
    "ft_ideal",
    "ft_codim",
    "ft_dimension",
    "samuel_multiplicity",
    "image_milnor_number",
    "milnor_number",
    "slice_milnor_total",
    "bruce_roberts_number",
    "ae_codimension",
    "lc_ideal",
    "euler_degree",
    "euler_ideal_identity",
    "full_report",
]
