"""Exception types shared across the package.

Every failure raised by qgbounds derives from QGraphError and carries a
stable ``code`` (the class name), so the command line tool can emit
machine-readable diagnostics without string matching.
"""

from __future__ import annotations


class QGraphError(Exception):
    """Base class for all qgbounds failures."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_json(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        if self.context:
            out["context"] = {k: _plain(v) for k, v in self.context.items()}
        return out


def _plain(v):
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


# -- metric graph data ------------------------------------------------------

class NonpositiveLength(QGraphError):
    """A length that is not positive, or whose float is not finite and positive."""


class UnknownEndpoint(QGraphError):
    pass


class Disconnected(QGraphError):
    pass


class LoopPresent(QGraphError):
    pass


class UnknownFamily(QGraphError):
    pass


class BadParameter(QGraphError):
    pass


class ParseError(QGraphError):
    pass


class NoRotation(QGraphError):
    pass


class NotBridgeless(QGraphError):
    pass


# -- discrete spectra -------------------------------------------------------

class NotSymmetric(QGraphError):
    pass


class NoConvergence(QGraphError):
    pass


class TooLarge(QGraphError):
    pass


# -- covers -----------------------------------------------------------------

class NotUniform(QGraphError):
    pass


class DisconnectedElement(QGraphError):
    pass


class BadSpec(QGraphError):
    pass


# -- bounds -----------------------------------------------------------------

class EtaUnavailable(QGraphError):
    pass


# -- oracles ----------------------------------------------------------------

class NotEquilateral(QGraphError):
    pass


class IncommensurableLengths(QGraphError):
    pass


class ThresholdExceeded(QGraphError):
    pass


class MeshTooCoarse(QGraphError):
    pass


class UnknownKind(QGraphError):
    pass
