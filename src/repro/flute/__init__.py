"""A small in-process FLUTE/ALC-like file delivery substrate.

The paper motivates its study with FLUTE [13] over ALC [9]: massively
scalable file broadcasting with no back channel, where reliability comes
entirely from FEC.  This subpackage provides the pieces needed to exercise
the FEC codes and transmission models in that context without a network:

* :mod:`repro.flute.lct` / :mod:`repro.flute.alc` -- binary LCT headers and
  ALC packets (header + FEC payload ID + payload).
* :mod:`repro.flute.oti` -- FEC Object Transmission Information (the code
  parameters a receiver needs, including the PRNG seed for LDGM codes).
* :mod:`repro.flute.blocking` -- the source-block partitioning algorithm.
* :mod:`repro.flute.fdt` -- File Delivery Table instances (XML, as in FLUTE).
* :mod:`repro.flute.sender` / :mod:`repro.flute.receiver` -- sessions that
  encode/packetise an object and decode/reassemble it.
* :mod:`repro.flute.session` -- an in-process delivery harness connecting a
  sender to receivers through any :class:`repro.channel.LossModel`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "alc": "AlcPacket",
    "blocking": "BlockingStructure compute_blocking",
    "fdt": "FdtInstance FileEntry",
    "lct": "LctHeader",
    "oti": "FecObjectTransmissionInformation",
    "receiver": "FluteReceiver",
    "sender": "FluteSender",
    "session": "DeliveryReport deliver_object",
})

__all__ = [
    "LctHeader",
    "AlcPacket",
    "FecObjectTransmissionInformation",
    "BlockingStructure",
    "compute_blocking",
    "FdtInstance",
    "FileEntry",
    "FluteSender",
    "FluteReceiver",
    "DeliveryReport",
    "deliver_object",
]
