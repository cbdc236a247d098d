"""Transferable designated-verifier signatures over a prime field.

A signer and a designated verifier share symmetric keys; signatures verify
only against a per-message receipt the verifier can derive, yet any holder
can extract the receiving keys from an accepting signature and re-verify.
A three-party session makes a signed value transferable through an
information-checking layer without giving the middle party the keys.

Layout:
    field         prime-field arithmetic (pure Python, any odd prime)
    sss           the public weights; 2-of-2 sharing as (f(w0), f(w1)) pairs
    keyed hashes  hashing.py: domain-separated hash/PRF into the field
    two_party     sign / verify / extract / forgery + simulator surfaces
    three_party   the seven-round signing-and-transfer session
    net_sim       deterministic synchronous network with adversary hooks
    stats         Monte Carlo + exhaustive experiment harness
    cli           command-line front end
"""

from .errors import (
    DegenerateExtraction,
    DegenerateWeights,
    EmptyExperiment,
    LengthMismatch,
    MalformedSignature,
    ModulusMismatch,
    PrimeTooLarge,
    RoleMismatch,
    ScheduleViolation,
    SilmarilsError,
    UnknownStrategy,
    ZeroInverse,
)
from .field import (
    BACKEND,
    SECURE_PRIME_VALUE,
    FieldElement,
    OpCounter,
    Prime,
    count_field_ops,
)
from .hashing import PairKey
from .rng import Rng
from .sss import Weights, reconstruct
from .two_party import (
    KeyMaterial,
    Params,
    Signature,
    dv_forge,
    extract_params,
    keygen,
    public_r_forge,
    public_receipt,
    sign,
    sign_accepted,
    verify,
    verify_public_r,
    verify_with_receipt,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DegenerateExtraction",
    "DegenerateWeights",
    "EmptyExperiment",
    "FieldElement",
    "KeyMaterial",
    "LengthMismatch",
    "MalformedSignature",
    "ModulusMismatch",
    "OpCounter",
    "PairKey",
    "Params",
    "Prime",
    "PrimeTooLarge",
    "Rng",
    "RoleMismatch",
    "ScheduleViolation",
    "SECURE_PRIME_VALUE",
    "Signature",
    "SilmarilsError",
    "UnknownStrategy",
    "Weights",
    "ZeroInverse",
    "__version__",
    "count_field_ops",
    "dv_forge",
    "extract_params",
    "keygen",
    "public_r_forge",
    "public_receipt",
    "reconstruct",
    "sign",
    "sign_accepted",
    "verify",
    "verify_public_r",
    "verify_with_receipt",
]
