"""motzkinlab: exact combinatorial sequences (Motzkin, central trinomial,
Schroder, Delannoy, Narayana, and relatives), exact polynomial/q-object
arithmetic, and a mechanical verifier for the identities, divisibilities,
congruences, and conjectures that tie them together."""

from .claims import CLAIMS, NonIntegral, s_quotient, t_quotient
from .polynomials import (NotDivisible, Poly, big_schroder_poly, cyclotomic,
                          q_binomial, q_integer, s_poly, w_poly)
from .quadratic import MismatchedExtension, Quadratic
from .reports import (ParamRange, VerificationReport, reports_from_json,
                      reports_to_csv, reports_to_json)
from .sequences import (TrinomialParams, binomial, catalan, central_trinomial,
                        delannoy, gen_motzkin, gen_trinomial, motzkin,
                        motzkin_analog_w, narayana, schroder_large,
                        schroder_little, w_coeff)
from .verify import (SUITES, UnknownClaim, UnknownSuite, run_suite,
                     verify_claim)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS", "MismatchedExtension", "NonIntegral", "NotDivisible",
    "ParamRange", "Poly", "Quadratic", "SUITES", "TrinomialParams",
    "UnknownClaim", "UnknownSuite", "VerificationReport", "__version__",
    "big_schroder_poly", "binomial", "catalan", "central_trinomial",
    "cyclotomic", "delannoy", "gen_motzkin", "gen_trinomial", "motzkin",
    "motzkin_analog_w", "narayana", "q_binomial", "q_integer",
    "reports_from_json", "reports_to_csv", "reports_to_json", "run_suite",
    "s_poly", "s_quotient", "schroder_large", "schroder_little",
    "t_quotient", "verify_claim", "w_coeff", "w_poly",
]
