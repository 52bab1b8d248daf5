"""Simulated certificates, keys, and sealed payloads."""

from .certificates import (
    CertificateAuthority,
    CertificateError,
    KeyPair,
    NodeCertificate,
)
from .sealed import SealedPayload, SealError, seal

__all__ = [
    "CertificateAuthority",
    "CertificateError",
    "KeyPair",
    "NodeCertificate",
    "SealError",
    "SealedPayload",
    "seal",
]
