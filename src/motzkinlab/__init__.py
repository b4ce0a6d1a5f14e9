"""motzkinlab: a mechanical verifier, in exact integer arithmetic, for the
identities, divisibilities, congruences, and conjectures that tie together
Motzkin, central trinomial, Schroder, Delannoy, and Narayana numbers and
their polynomial and q-analogues.

The sequences, polynomials, and q-objects exported here are the ones the
claims, the ``seq`` command, and the scripts read."""

from .claims import CLAIMS, NonIntegral, s_quotient, t_quotient
from .polynomials import Poly, big_schroder_poly, q_binomial, q_integer, s_poly, w_poly
from .reports import (ParamRange, VerificationReport, reports_to_csv,
                      reports_to_json)
from .sequences import (catalan, central_trinomial, delannoy,
                        gen_motzkin, gen_trinomial, motzkin, motzkin_analog_w,
                        narayana, schroder_large, schroder_little, w_coeff)
from .verify import (SUITES, UnknownClaim, UnknownSuite, run_suite,
                     verify_claim)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS", "NonIntegral", "ParamRange", "Poly", "SUITES",
    "UnknownClaim", "UnknownSuite", "VerificationReport", "__version__",
    "big_schroder_poly", "catalan", "central_trinomial", "delannoy",
    "gen_motzkin", "gen_trinomial", "motzkin", "motzkin_analog_w", "narayana",
    "q_binomial", "q_integer", "reports_to_csv", "reports_to_json",
    "run_suite", "s_poly", "s_quotient", "schroder_large", "schroder_little",
    "t_quotient", "verify_claim", "w_coeff", "w_poly",
]
