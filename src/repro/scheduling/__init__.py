"""Packet transmission scheduling (the paper's Tx/Rx models).

A transmission model decides in which order the ``n`` encoding packets of an
object are put on the wire.  Section 4 of the paper evaluates six of them:

* ``tx_model_1`` -- source packets sequentially, then parity sequentially.
* ``tx_model_2`` -- source packets sequentially, then parity randomly.
* ``tx_model_3`` -- parity packets sequentially, then source randomly.
* ``tx_model_4`` -- everything in a fully random order.
* ``tx_model_5`` -- interleaving (per-block round robin for RSE, proportional
  source/parity interleaving for LDGM).
* ``tx_model_6`` -- a random 20% of the source packets mixed randomly with
  all parity packets (the rest of the source packets are never sent).

Section 5 additionally defines a *reception* model, ``rx_model_1``: the
receiver first obtains a configurable number of source packets, then all
parity packets in random order.  Reception models are expressed with the
same interface and simulated over a perfect channel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "TransmissionModel",
    "interleaver": "block_interleave proportional_interleave",
    "registry": "available_tx_models make_tx_model register_tx_model",
    "rx_models": "RxModel1",
    "tx_models": "TxModel1 TxModel2 TxModel3 TxModel4 TxModel5 TxModel6",
})

__all__ = [
    "TransmissionModel",
    "TxModel1",
    "TxModel2",
    "TxModel3",
    "TxModel4",
    "TxModel5",
    "TxModel6",
    "RxModel1",
    "block_interleave",
    "proportional_interleave",
    "make_tx_model",
    "register_tx_model",
    "available_tx_models",
]
