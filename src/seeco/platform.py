"""Mobile-edge resource model: device, access points, VMs, radio links.

The compute fabric is one mobile device (MD) plus M wireless access
points, each hosting one or more VMs.  Index 0 always denotes the MD;
edge access points are numbered 1..M.  Task placements travel through
the optimizer as single bytes (see :func:`decode_location`), so every
byte in [0x01, 0xFF] must decode to a real VM on any platform, and a
platform holds at most 15 access points of at most 15 VMs each.

Link rates follow Shannon capacity over the configured bandwidth and
SNR; transfers between VMs inside one access point are free, transfers
between different access points share a fixed backhaul bandwidth.

All values are immutable and all functions pure.  Times divide by these
numbers, so each constructor reads them through :func:`finite_float` and
:func:`exact_int` and refuses what is not positive; loaders only map keys.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path

BITS_PER_MB = 8e6


@dataclass(frozen=True)
class VmSpec:
    """One VM: raw clock, core count, and effective compute rate.

    ``capability_ghz`` is what execution time divides by (giga-cycles
    per second actually delivered); ``frequency_ghz``/``cores`` drive
    the cryptographic overhead model.
    """

    frequency_ghz: float
    cores: int
    capability_ghz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "cores", exact_int(self.cores, "VmSpec.cores"))
        if min(finite_fields(self, "frequency_ghz", "capability_ghz")) <= 0.0:
            raise ValueError(f"frequency and capability must be positive, got {self}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")


@dataclass(frozen=True)
class RadioParams:
    """Wireless channel between the MD and one access point."""

    b_ul_mhz: float
    b_dl_mhz: float
    p_tx_w: float     # MD transmit power
    p_ap_w: float     # AP transmit power
    h_ul: float       # uplink channel gain
    h_dl: float       # downlink channel gain
    noise_w: float

    def __post_init__(self) -> None:
        names = ("b_ul_mhz", "b_dl_mhz", "p_tx_w", "p_ap_w", "h_ul", "h_dl", "noise_w")
        if min(finite_fields(self, *names)) <= 0.0:
            raise ValueError(f"radio parameters must be strictly positive, got {self}")


@dataclass(frozen=True)
class MobileDevice:
    """The energy-constrained client whose consumption is the objective."""

    vm: VmSpec
    p_comp_w: float   # power while computing
    p_ul_w: float     # power while transmitting
    p_dl_w: float     # power while receiving

    def __post_init__(self) -> None:
        if min(finite_fields(self, "p_comp_w", "p_ul_w", "p_dl_w")) <= 0.0:
            raise ValueError("device powers must be strictly positive")


@dataclass(frozen=True)
class AccessPoint:
    vms: tuple[VmSpec, ...]
    radio: RadioParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "vms", tuple(self.vms))
        if not self.vms:
            raise ValueError("access point needs at least one VM")
        if len(self.vms) > 0x0F:  # the low nibble of a placement byte
            raise ValueError(f"{len(self.vms)} VMs on an access point; at most 15 fit a byte")


@dataclass(frozen=True)
class Platform:
    md: MobileDevice
    aps: tuple[AccessPoint, ...]
    inter_ap_bandwidth_mb_s: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "aps", tuple(self.aps))
        if len(self.aps) > 0x0F:  # the high nibble of a placement byte
            raise ValueError(f"{len(self.aps)} access points; at most 15 fit a byte")
        if finite_fields(self, "inter_ap_bandwidth_mb_s")[0] <= 0.0:
            raise ValueError("inter-AP bandwidth must be strictly positive")

    @property
    def num_aps(self) -> int:
        return len(self.aps)

    def vm_count(self, ap: int) -> int:
        return 1 if ap == 0 else len(self.aps[ap - 1].vms)

    def vm_at(self, ap: int, k: int) -> VmSpec:
        """VM ``k`` (1-based) of access point ``ap``; ap 0 is the MD itself."""
        if ap == 0:
            if k != 1:
                raise ValueError("the mobile device hosts exactly one VM")
            return self.md.vm
        if not 1 <= ap <= self.num_aps:
            raise ValueError(f"access point {ap} outside 0..{self.num_aps}")
        vms = self.aps[ap - 1].vms
        if not 1 <= k <= len(vms):
            raise ValueError(f"vm {k} outside 1..{len(vms)} on access point {ap}")
        return vms[k - 1]

    def radio(self, ap: int) -> RadioParams:
        if not 1 <= ap <= self.num_aps:
            raise ValueError(f"access point {ap} outside 1..{self.num_aps}")
        return self.aps[ap - 1].radio


def uplink_rate(radio: RadioParams) -> float:
    """MD-to-AP Shannon rate in MB/s (1 MB = 8e6 bits)."""
    snr = radio.p_tx_w * radio.h_ul / radio.noise_w
    return radio.b_ul_mhz * 1e6 * math.log2(1.0 + snr) / BITS_PER_MB


def downlink_rate(radio: RadioParams) -> float:
    """AP-to-MD Shannon rate in MB/s."""
    snr = radio.p_ap_w * radio.h_dl / radio.noise_w
    return radio.b_dl_mhz * 1e6 * math.log2(1.0 + snr) / BITS_PER_MB


def decode_location(byte: int, platform: Platform) -> tuple[int, int]:
    """Decode a placement byte into (access point, vm index).

    High nibble selects the access point modulo M+1, low nibble selects
    the VM modulo the AP's VM count; the wraparound makes every byte in
    [0x01, 0xFF] decode to an existing VM, so randomly drawn or mutated
    genes never need repair.  0x01 always means the MD.
    """
    if not 0x01 <= byte <= 0xFF:
        raise ValueError(f"location byte must be in [0x01, 0xFF], got {byte:#04x}")
    ap = (byte >> 4) % (platform.num_aps + 1)
    k = 1 + ((byte & 0x0F) - 1) % platform.vm_count(ap)
    return ap, k


MD_LOCATION = 0x01


def encode_location(ap: int, k: int) -> int:
    """Inverse of :func:`decode_location` for directly addressable slots.

    The byte encoding reaches access points 0..15 and VM indices 1..15;
    (0, 1) encodes to 0x01.
    """
    if not 0 <= ap <= 0x0F:
        raise ValueError(f"access point {ap} not encodable in one nibble")
    if not 1 <= k <= 0x0F:
        raise ValueError(f"vm index {k} not encodable in one nibble")
    return (ap << 4) | k


def default_radio() -> RadioParams:
    """20 MHz channels with equal up/down gains.

    Calibrated so the uplink SNR is exactly 7, i.e. an uplink rate of
    7.5 MB/s; with the AP transmitting at ten times the MD's power the
    downlink comes out at about 15.37 MB/s.
    """
    return RadioParams(
        b_ul_mhz=20.0,
        b_dl_mhz=20.0,
        p_tx_w=0.1,
        p_ap_w=1.0,
        h_ul=7e-8,
        h_dl=7e-8,
        noise_w=1e-9,
    )


_EDGE_VM_TEMPLATE = (
    # (capability GHz, cores); frequency follows capability
    (2.3, 4),
    (3.1, 8),
    (2.2, 16),
)


def default_platform(num_servers: int = 3) -> Platform:
    """The reference setup: a 2.36 GHz MD and ``num_servers`` one-VM APs.

    Server specs cycle through the three-entry template, so platforms of
    different sizes nest: the first k servers are identical across any
    two platforms with >= k servers.
    """
    if num_servers < 0:
        raise ValueError(f"server count must be >= 0, got {num_servers}")
    md = MobileDevice(
        vm=VmSpec(frequency_ghz=2.36, cores=1, capability_ghz=2.36),
        p_comp_w=0.5,
        p_ul_w=0.1,
        p_dl_w=0.05,
    )
    aps = []
    for i in range(num_servers):
        cap, cores = _EDGE_VM_TEMPLATE[i % len(_EDGE_VM_TEMPLATE)]
        aps.append(AccessPoint(
            vms=(VmSpec(frequency_ghz=cap, cores=cores, capability_ghz=cap),),
            radio=default_radio(),
        ))
    return Platform(md=md, aps=tuple(aps))


def finite_float(value, where: str) -> float:
    """``float(value)``, refusing NaN, ``±inf`` and overflow however ``value`` is spelled.

    ``where`` names the source in the error message.  A NaN deadline or
    cost compares False against everything, so it would pass every check.
    """
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r} in {where}")
    return x


def finite_fields(obj, *names: str) -> list[float]:
    """Store each named field of the frozen ``obj`` as :func:`finite_float` reads it; return them."""
    values = []
    for name in names:
        x = getattr(obj, name)
        if type(x) is not float or not math.isfinite(x):  # else finite_float(x) is x
            x = finite_float(x, f"{type(obj).__name__}.{name}")
            object.__setattr__(obj, name, x)
        values.append(x)
    return values


def exact_int(value, where: str) -> int:
    """``value`` as an ``int``, refusing bools and numbers with a fractional part.

    ``where`` names the source in the error message.  ``int`` would read
    ``2.5`` as 2 and ``true`` as 1.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r} in {where}")
    return value


def read_json(path: str | Path, kind: str):
    """Parse a JSON file, refusing ``NaN``, ``Infinity`` and overflowing numbers.

    Python's ``json`` accepts those literals.  The same values written as
    strings (``"NaN"``, ``"inf"``), which ``float`` also reads, are left
    to the constructors, which read every number through :func:`finite_float`.
    """
    finite = partial(finite_float, where=f"{kind} file {path}")
    try:
        return json.loads(Path(path).read_text(), parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}") from exc


@contextmanager
def reading(path: str | Path, kind: str):
    """Yield a ``kind`` file's :func:`read_json` payload; errors building from it name the file."""
    payload = read_json(path, kind)
    try:
        yield payload
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from exc


def save_platform(platform: Platform, path: str | Path) -> None:
    """Write indented JSON keyed by field names; a non-finite number raises ``ValueError``."""
    Path(path).write_text(json.dumps(asdict(platform), indent=2, allow_nan=False) + "\n")


def load_platform(path: str | Path) -> Platform:
    """Read a :func:`save_platform` file; unknown keys are ignored, except in a radio."""
    vm = itemgetter("frequency_ghz", "cores", "capability_ghz")
    with reading(path, "platform") as payload:
        md = payload["md"]
        return Platform(
            md=MobileDevice(VmSpec(*vm(md["vm"])), md["p_comp_w"], md["p_ul_w"], md["p_dl_w"]),
            aps=tuple(AccessPoint(vms=tuple(VmSpec(*vm(v)) for v in ap["vms"]),
                                  radio=RadioParams(**ap["radio"]))
                      for ap in payload["aps"]),
            inter_ap_bandwidth_mb_s=payload["inter_ap_bandwidth_mb_s"],
        )
