"""Declarative description of one experiment point.

A :class:`Scenario` freezes everything that defines a single link
experiment -- where (site), the geometry (distance, depths, orientation),
the hardware (devices, waterproof case), the motion, the transmission
scheme, the modem build options, how many packets to run and which seed to
use.  It replaces the long positional-argument signature the benchmark
harness used to thread through ``build_link_pair`` + ``LinkSession``:

>>> from repro.experiments import Scenario, run_scenario
>>> scenario = Scenario(site="lake", distance_m=10.0, num_packets=5, seed=3)
>>> stats = run_scenario(scenario)          # doctest: +SKIP

Scenarios are frozen dataclasses: hashable, picklable (so they can cross
process boundaries in :class:`~repro.experiments.runner.ExperimentRunner`)
and serializable to plain dictionaries via :meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`.  :meth:`Scenario.scenario_hash` gives a stable
content hash used to key the runner's on-disk result cache; it and the
canonical JSON text it covers (:meth:`Scenario.canonical_json`) are
computed once per instance.

Catalog entries (sites, devices, cases, motion presets, fixed-band
schemes) may be given either as the catalog objects themselves or as their
string keys; strings are resolved eagerly so a typo fails at construction
time, not deep inside a worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.channel.motion import MOTION_PRESETS, STATIC_MOTION, MotionModel
from repro.core.baselines import FIXED_BAND_SCHEMES, FixedBandScheme
from repro.core.config import OFDMConfig, ProtocolConfig
from repro.core.modem import AquaModem
from repro.devices.case import CASE_CATALOG, SOFT_POUCH, WaterproofCase
from repro.devices.models import DEVICE_CATALOG, GALAXY_S9, DeviceModel
from repro.devices.response import FrequencyResponse, ResponseNotch
from repro.environments.factory import build_link_pair
from repro.environments.sites import LAKE, SITE_CATALOG, Site
from repro.link.session import LinkSession, LinkStatistics

#: Scheme keys accepted by :class:`Scenario` (mirroring the CLI spellings).
SCHEME_CATALOG: dict[str, FixedBandScheme | str] = {
    "adaptive": "adaptive",
    "fixed-3k": FIXED_BAND_SCHEMES[0],
    "fixed-1.5k": FIXED_BAND_SCHEMES[1],
    "fixed-0.5k": FIXED_BAND_SCHEMES[2],
}


def _canonical(data: dict) -> str:
    """The sorted-key JSON text :func:`content_hash` hashes."""
    return json.dumps(data, sort_keys=True, default=str)


def _text_hash(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def content_hash(data: dict) -> str:
    """Stable 16-hex-digit hash of a JSON-safe dictionary.

    The cache key used by :class:`~repro.experiments.runner.\
    ExperimentRunner`; shared by every scenario flavour so the keying
    scheme cannot drift between them.
    """
    return _text_hash(_canonical(data))


def _resolve(value, catalog: dict, kind: str):
    """Resolve a catalog key to its object, passing objects through."""
    if isinstance(value, str):
        try:
            return catalog[value]
        except KeyError:
            raise ValueError(
                f"unknown {kind} {value!r}; known: {', '.join(sorted(catalog))}"
            ) from None
    return value


def _catalog_key(value, catalog: dict) -> str | None:
    """Return the catalog key of ``value`` or ``None`` if it is custom.

    Resolved scenarios hold the catalog objects themselves, so identity
    finds them without comparing every field; no catalog holds two equal
    entries, so the equality scan behind it gives the same key.
    """
    for key, entry in catalog.items():
        if entry is value:
            return key
    for key, entry in catalog.items():
        if entry == value:
            return key
    return None


def _serialize_catalog_value(value, catalog: dict) -> str | dict:
    """Serialize a catalog object: its key when known, its fields otherwise."""
    key = _catalog_key(value, catalog)
    return key if key is not None else dataclasses.asdict(value)


def _deserialize_catalog_value(data, catalog: dict, cls, kind: str):
    if isinstance(data, str):
        return _resolve(data, catalog, kind)
    return cls(**data)


def _response_from_dict(data: dict) -> FrequencyResponse:
    """Rebuild a frequency response from its ``dataclasses.asdict`` form."""
    return FrequencyResponse(
        anchor_frequencies_hz=tuple(data["anchor_frequencies_hz"]),
        anchor_gains_db=tuple(data["anchor_gains_db"]),
        notches=tuple(ResponseNotch(**notch) for notch in data.get("notches", ())),
        label=data.get("label", ""),
    )


def _device_from_dict(data) -> DeviceModel:
    if isinstance(data, str):
        return _resolve(data, DEVICE_CATALOG, "device")
    data = dict(data)
    data["speaker_response"] = _response_from_dict(data["speaker_response"])
    data["microphone_response"] = _response_from_dict(data["microphone_response"])
    return DeviceModel(**data)


def _case_from_dict(data) -> WaterproofCase:
    if isinstance(data, str):
        return _resolve(data, CASE_CATALOG, "case")
    data = dict(data)
    data["response"] = _response_from_dict(data["response"])
    return WaterproofCase(**data)


@dataclass(frozen=True)
class ModemSpec:
    """Declarative modem build options for a scenario.

    Only the options the evaluation actually varies are exposed; everything
    else keeps the paper's defaults.  :meth:`build` constructs the
    corresponding :class:`~repro.core.modem.AquaModem`.

    Attributes
    ----------
    payload_bits:
        Payload size per packet (16 bits in the messaging app; the
        differential-coding study uses 192-bit bursts).
    use_differential, use_interleaving, use_equalizer:
        Modem feature toggles (the ablation knobs of Fig. 14 / Table 2).
    subcarrier_spacing_hz:
        Alternative subcarrier spacing (Fig. 17); ``None`` keeps 50 Hz.
    """

    payload_bits: int = 16
    use_differential: bool = True
    use_interleaving: bool = True
    use_equalizer: bool = True
    subcarrier_spacing_hz: float | None = None

    def build(self) -> AquaModem:
        """Construct the modem this spec describes."""
        ofdm = OFDMConfig()
        if self.subcarrier_spacing_hz is not None:
            ofdm = ofdm.with_subcarrier_spacing(self.subcarrier_spacing_hz)
        protocol = ProtocolConfig(payload_bits=self.payload_bits)
        return AquaModem(
            ofdm_config=ofdm,
            protocol_config=protocol,
            use_differential=self.use_differential,
            use_interleaving=self.use_interleaving,
            use_equalizer=self.use_equalizer,
        )

    def to_dict(self) -> dict:
        """Plain-dictionary form (JSON-safe), in field order."""
        return {
            "payload_bits": self.payload_bits,
            "use_differential": self.use_differential,
            "use_interleaving": self.use_interleaving,
            "use_equalizer": self.use_equalizer,
            "subcarrier_spacing_hz": self.subcarrier_spacing_hz,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModemSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment point.

    Attributes
    ----------
    site:
        Evaluation site (a :class:`~repro.environments.sites.Site` or a
        ``SITE_CATALOG`` key such as ``"lake"``).
    distance_m:
        Horizontal transmitter-receiver separation in metres.
    tx_depth_m, rx_depth_m:
        Device depths; ``rx_depth_m=None`` mirrors the transmitter depth.
    orientation_deg:
        Azimuth offset between the devices.
    motion:
        Motion model (object or ``MOTION_PRESETS`` key).
    tx_device, rx_device:
        Device models (objects or ``DEVICE_CATALOG`` keys).
    case:
        Waterproof case used on both ends (object or ``CASE_CATALOG`` key).
    scheme:
        ``"adaptive"``, a ``SCHEME_CATALOG`` key (``"fixed-3k"`` ...), or a
        :class:`~repro.core.baselines.FixedBandScheme`.
    modem:
        Modem build options (:class:`ModemSpec`).
    num_packets:
        Number of protocol exchanges to run.
    seed:
        Base seed; the channel pair uses ``seed`` and the link session
        ``seed + 1``, exactly like the original benchmark harness.
    label:
        Optional human-readable tag carried through to records and tables.
    """

    site: Site | str = LAKE
    distance_m: float = 5.0
    tx_depth_m: float = 1.0
    rx_depth_m: float | None = None
    orientation_deg: float = 0.0
    motion: MotionModel | str = STATIC_MOTION
    tx_device: DeviceModel | str = GALAXY_S9
    rx_device: DeviceModel | str = GALAXY_S9
    case: WaterproofCase | str = SOFT_POUCH
    scheme: FixedBandScheme | str = "adaptive"
    modem: ModemSpec = field(default_factory=ModemSpec)
    num_packets: int = 25
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        set_ = lambda name, value: object.__setattr__(self, name, value)
        set_("site", _resolve(self.site, SITE_CATALOG, "site"))
        set_("motion", _resolve(self.motion, MOTION_PRESETS, "motion preset"))
        set_("tx_device", _resolve(self.tx_device, DEVICE_CATALOG, "device"))
        set_("rx_device", _resolve(self.rx_device, DEVICE_CATALOG, "device"))
        set_("case", _resolve(self.case, CASE_CATALOG, "case"))
        if isinstance(self.scheme, str):
            set_("scheme", _resolve(self.scheme, SCHEME_CATALOG, "scheme"))
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")
        if self.distance_m > self.site.max_range_m:
            raise ValueError(
                f"distance {self.distance_m} m exceeds the usable range of the "
                f"{self.site.name} site ({self.site.max_range_m} m)"
            )
        if self.num_packets <= 0:
            raise ValueError("num_packets must be positive")

    # ----------------------------------------------------------- identity
    @property
    def scheme_key(self) -> str:
        """Canonical scheme spelling (``"adaptive"``, ``"fixed-3k"``, ...)."""
        key = _catalog_key(self.scheme, SCHEME_CATALOG)
        return key if key is not None else self.scheme.name

    def replace(self, **changes) -> "Scenario":
        """Return a copy with some fields changed (strings are resolved)."""
        return dataclasses.replace(self, **changes)

    def matches(self, **criteria) -> bool:
        """Whether this scenario matches every given field value.

        Catalog keys are accepted for ``site``, ``motion``, ``tx_device``,
        ``rx_device``, ``case`` and ``scheme``, so
        ``scenario.matches(site="lake", scheme="adaptive")`` works without
        importing the catalog objects.
        """
        catalogs = {
            "site": SITE_CATALOG,
            "motion": MOTION_PRESETS,
            "tx_device": DEVICE_CATALOG,
            "rx_device": DEVICE_CATALOG,
            "case": CASE_CATALOG,
            "scheme": SCHEME_CATALOG,
        }
        for name, wanted in criteria.items():
            if not hasattr(self, name):
                raise AttributeError(f"Scenario has no field {name!r}")
            if name in catalogs and isinstance(wanted, str):
                wanted = _resolve(wanted, catalogs[name], name)
            if getattr(self, name) != wanted:
                return False
        return True

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """JSON-safe dictionary form; catalog objects become their keys."""
        return {
            "site": _serialize_catalog_value(self.site, SITE_CATALOG),
            "distance_m": self.distance_m,
            "tx_depth_m": self.tx_depth_m,
            "rx_depth_m": self.rx_depth_m,
            "orientation_deg": self.orientation_deg,
            "motion": _serialize_catalog_value(self.motion, MOTION_PRESETS),
            "tx_device": _serialize_catalog_value(self.tx_device, DEVICE_CATALOG),
            "rx_device": _serialize_catalog_value(self.rx_device, DEVICE_CATALOG),
            "case": _serialize_catalog_value(self.case, CASE_CATALOG),
            "scheme": _serialize_catalog_value(self.scheme, SCHEME_CATALOG),
            "modem": self.modem.to_dict(),
            "num_packets": self.num_packets,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        data = dict(data)
        data["site"] = _deserialize_catalog_value(data["site"], SITE_CATALOG, Site, "site")
        data["motion"] = _deserialize_catalog_value(
            data["motion"], MOTION_PRESETS, MotionModel, "motion preset"
        )
        data["tx_device"] = _device_from_dict(data["tx_device"])
        data["rx_device"] = _device_from_dict(data["rx_device"])
        data["case"] = _case_from_dict(data["case"])
        data["scheme"] = _deserialize_catalog_value(
            data["scheme"], SCHEME_CATALOG, FixedBandScheme, "scheme"
        )
        data["modem"] = ModemSpec.from_dict(data["modem"])
        return cls(**data)

    def canonical_json(self) -> str:
        """Sorted-key JSON text of :meth:`to_dict`, the text the hash covers.

        Serialized once per instance: the ``.npz`` artifact stores this
        text and keys its table of distinct scenarios on it.
        """
        text = self.__dict__.get("_canonical_json")
        if text is None:
            text = _canonical(self.to_dict())
            object.__setattr__(self, "_canonical_json", text)
        return text

    def scenario_hash(self) -> str:
        """Stable content hash of this scenario (cache key).

        :func:`content_hash` of :meth:`to_dict`, computed once per
        instance from :meth:`canonical_json`: a service job checks each
        decoded scenario against its manifest hash, and the runner's cache
        lookup then reuses that hash.
        """
        digest = self.__dict__.get("_scenario_hash")
        if digest is None:
            digest = _text_hash(self.canonical_json())
            object.__setattr__(self, "_scenario_hash", digest)
        return digest

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            self.label or None,
            self.site.name,
            f"{self.distance_m:g} m",
            f"depth {self.tx_depth_m:g} m",
            self.motion.name if self.motion.name != "static" else None,
            f"{self.orientation_deg:g} deg" if self.orientation_deg else None,
            self.scheme_key,
            f"{self.num_packets} pkt",
            f"seed {self.seed}",
        ]
        return " | ".join(p for p in parts if p)

    # ------------------------------------------------------------ running
    def build_session(self, modem: AquaModem | None = None) -> LinkSession:
        """Construct the channel pair and link session for this scenario.

        ``modem`` overrides the modem built from :attr:`modem`; callers that
        need a pre-built :class:`AquaModem` (outside what
        :class:`ModemSpec` can describe) pass it here so the channel/session
        wiring stays in one place.
        """
        forward, backward = build_link_pair(
            site=self.site,
            distance_m=self.distance_m,
            seed=self.seed,
            tx_depth_m=self.tx_depth_m,
            rx_depth_m=self.rx_depth_m,
            motion=self.motion,
            orientation_deg=self.orientation_deg,
            tx_device=self.tx_device,
            rx_device=self.rx_device,
            tx_case=self.case,
            rx_case=self.case,
        )
        return LinkSession(
            forward,
            backward,
            modem=modem if modem is not None else self.modem.build(),
            scheme=self.scheme,
            seed=self.seed + 1,
        )

    def run(self) -> LinkStatistics:
        """Run the scenario in this process and return its statistics."""
        return self.build_session().run_packets(self.num_packets)


def run_scenario(scenario: Scenario) -> LinkStatistics:
    """Run one scenario and return its :class:`LinkStatistics`.

    Module-level function (rather than a bound method) so it can be shipped
    to :class:`concurrent.futures.ProcessPoolExecutor` workers by name.
    """
    return scenario.run()
