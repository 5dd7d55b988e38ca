"""Cryptographic service catalog, overhead cost model, and Poisson risk model.

Two security services protect data that leaves an access point: a
confidentiality service (block/stream ciphers) and an integrity service
(hash functions).  Each service offers a small ladder of algorithms,
calibrated once on a reference machine (1 core at 2.2 GHz, 100 MB of
data).  Strength and speed pull in opposite directions: the slowest
algorithm of a service defines strength level 1.0 and weaker algorithms
get proportionally smaller levels.

:func:`survival` is the one breach formula under :class:`RiskModel`'s Poisson attacks;
:func:`seeco.evaluator.cost_tables` prices every crossing payload by it.

All functions here are pure and all types immutable; they are safe to
share across threads.  :class:`CryptoAlgorithm` reads its numbers as
:mod:`seeco.platform`'s constructors do, so :func:`load_catalog` only maps keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

from .platform import exact_int, finite_fields, reading

REF_FREQUENCY_GHZ = 2.2
REF_DATA_MB = 100.0


class Service(str, Enum):
    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"


@dataclass(frozen=True)
class CryptoAlgorithm:
    """One cipher or hash with its reference-machine calibration.

    ``level`` is the normalized strength in (0, 1]; 1.0 marks the
    strongest (and slowest) algorithm of its service.  ``speed_mb_s``
    is the measured throughput on the reference machine.
    """

    id: int
    service: Service
    name: str
    level: float
    speed_mb_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", exact_int(self.id, "CryptoAlgorithm.id"))
        level, speed = finite_fields(self, "level", "speed_mb_s")
        if self.id < 1:
            raise ValueError(f"algorithm id must be >= 1, got {self.id}")
        if not 0.0 < level <= 1.0:
            raise ValueError(f"level must be in (0, 1], got {self.level}")
        if not speed > 0.0:
            raise ValueError(f"speed must be positive, got {self.speed_mb_s}")

    @property
    def ref_cost_s(self) -> float:
        """Seconds to process the reference 100 MB on the reference machine.

        Costs are derived from speeds so that cost * speed = 100 MB holds
        exactly; the calibration tables are speed-authoritative.
        """
        return REF_DATA_MB / self.speed_mb_s


@dataclass(frozen=True)
class SecurityCatalog:
    """The algorithm ladders for both services, calibrated on the reference machine.

    Ladders are ordered by id (1..N).  The built-in default ladder has
    five algorithms per service; smaller calibrated sets are allowed so
    that desk-scale exhaustive searches stay tractable.
    """

    confidentiality: tuple[CryptoAlgorithm, ...]
    integrity: tuple[CryptoAlgorithm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "confidentiality", tuple(self.confidentiality))
        object.__setattr__(self, "integrity", tuple(self.integrity))
        for service, algs in ((Service.CONFIDENTIALITY, self.confidentiality),
                              (Service.INTEGRITY, self.integrity)):
            if not algs:
                raise ValueError(f"{service.value} ladder is empty")
            if [a.id for a in algs] != list(range(1, len(algs) + 1)):
                raise ValueError(f"{service.value} ids must be contiguous 1..N")
            if any(a.service is not service for a in algs):
                raise ValueError(f"{service.value} ladder holds a mis-tagged algorithm")
            if sum(1 for a in algs if a.level == 1.0) != 1:
                raise ValueError(f"{service.value} needs exactly one level-1.0 algorithm")
            by_speed = sorted(algs, key=lambda a: a.speed_mb_s)
            for slow, fast in zip(by_speed, by_speed[1:]):
                if not slow.level > fast.level:
                    raise ValueError(
                        f"{service.value}: level must strictly decrease as speed "
                        f"increases ({slow.name} vs {fast.name})")

    def algorithms(self, service: Service) -> tuple[CryptoAlgorithm, ...]:
        return self.confidentiality if service is Service.CONFIDENTIALITY else self.integrity

    def algorithm(self, service: Service, alg_id: int) -> CryptoAlgorithm:
        algs = self.algorithms(service)
        if not 1 <= alg_id <= len(algs):
            raise ValueError(f"{service.value} id {alg_id} outside 1..{len(algs)}")
        return algs[alg_id - 1]

    def level_count(self, service: Service) -> int:
        return len(self.algorithms(service))

    def strongest_id(self, service: Service) -> int:
        """Id of the level-1.0 algorithm of a service."""
        return next(a.id for a in self.algorithms(service) if a.level == 1.0)


@dataclass(frozen=True)
class RiskModel:
    """Poisson attack-arrival rates per service.

    Authentication is modeled at full strength with negligible cost, so
    it adds no risk factor and has no rate here.
    """

    lambda_conf: float = 2.5
    lambda_integ: float = 1.8

    def __post_init__(self) -> None:
        # finite rates keep a level-1.0 payload's survival exp(-rate * 0) at exactly 1
        if min(finite_fields(self, "lambda_conf", "lambda_integ")) < 0.0:
            raise ValueError(f"attack rates must be non-negative, got {self}")


def level_from_cost(cost_s: float, slowest_cost_s: float) -> float:
    """Strength level of an algorithm relative to its service's slowest one.

    Levels are proportional to reference cost; the slowest algorithm
    (``cost_s == slowest_cost_s``) defines level 1.0.
    """
    if cost_s <= 0.0 or slowest_cost_s <= 0.0:
        raise ValueError("costs must be positive")
    if cost_s > slowest_cost_s:
        raise ValueError(
            f"cost {cost_s} exceeds the slowest cost {slowest_cost_s}; "
            "the slowest algorithm defines level 1.0")
    return cost_s / slowest_cost_s


def overhead(alg: CryptoAlgorithm, cores: int, frequency_ghz: float, data_mb: float) -> float:
    """Seconds to run ``alg`` over ``data_mb`` on a machine with the given CPU.

    Linear in data size, inversely proportional to core count and to
    frequency; anchored at the reference machine, hence the 2.2 GHz
    constant in the numerator.  Zero data costs zero.
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if frequency_ghz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_ghz}")
    if data_mb < 0.0:
        raise ValueError(f"data size must be non-negative, got {data_mb}")
    return (data_mb * REF_FREQUENCY_GHZ) / (alg.speed_mb_s * frequency_ghz * cores)


def survival(level: float, attack_rate: float) -> float:
    """Probability exp(-rate * (1 - level)) that a service at strength ``level`` in
    [0, 1] survives Poisson attacks at ``attack_rate``; exactly 1 at level 1 and a finite rate."""
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must be in [0, 1], got {level}")
    if attack_rate < 0.0:
        raise ValueError(f"attack rate must be non-negative, got {attack_rate}")
    return math.exp(-attack_rate * (1.0 - level))


# Reference calibration: five ciphers and five hashes measured on a
# single 2.2 GHz core over 100 MB.  Levels are stored to the two
# printed decimals rather than recomputed, so downstream risk numbers
# match the calibration tables' granularity.
_DEFAULT_CONFIDENTIALITY = (
    (1, "IDEA", 1.0, 11.76),
    (2, "DES", 0.85, 13.83),
    (3, "AES", 0.53, 22.03),
    (4, "Blowfish", 0.56, 20.87),
    (5, "RC4", 0.32, 37.17),
)
_DEFAULT_INTEGRITY = (
    (1, "TIGER", 1.0, 75.76),
    (2, "RipeMD160", 0.75, 101.01),
    (3, "SHA-1", 0.69, 109.89),
    (4, "RipeMD128", 0.63, 119.05),
    (5, "MD5", 0.44, 172.41),
)


def default_catalog() -> SecurityCatalog:
    """The built-in ten-algorithm catalog."""
    return SecurityCatalog(
        confidentiality=tuple(
            CryptoAlgorithm(i, Service.CONFIDENTIALITY, name, level, speed)
            for i, name, level, speed in _DEFAULT_CONFIDENTIALITY),
        integrity=tuple(
            CryptoAlgorithm(i, Service.INTEGRITY, name, level, speed)
            for i, name, level, speed in _DEFAULT_INTEGRITY),
    )


def save_catalog(catalog: SecurityCatalog, path: str | Path) -> None:
    """Write each algorithm's fields but ``service``; a non-finite number raises ``ValueError``."""
    payload = {svc.value: [{k: v for k, v in asdict(a).items() if k != "service"}
                           for a in catalog.algorithms(svc)] for svc in Service}
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def load_catalog(path: str | Path) -> SecurityCatalog:
    """Load an alternative calibrated algorithm set.

    The reference machine is fixed at (1 core, 2.2 GHz, 100 MB); files
    carry only the per-algorithm id, name, level and speed, and other
    keys are ignored.
    """
    with reading(path, "catalog") as payload:
        return SecurityCatalog(**{
            service.value: tuple(
                CryptoAlgorithm(e["id"], service, str(e["name"]), e["level"], e["speed_mb_s"])
                for e in payload[service.value])
            for service in Service})
