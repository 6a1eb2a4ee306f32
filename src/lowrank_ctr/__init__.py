"""Low-rank compression toolkit for click-through-rate models.

Subpackages are organized by concern:

* ``linalg``     eigen/SVD via LAPACK with fixed order and signs, tensor-train
* ``stats``      streaming first/second moment accumulators and activation taps
* ``nn``         a numpy DeepFM with manual gradients
* ``checkpoint`` binary model serialization
* ``compress``   output-PCA, SVD and tensor-train compression operators
* ``train``      Adam, training / calibration / fine-tuning, pipeline runner
* ``data``       TSV loading, dictionaries, splits, synthetic generator
* ``metrics``    AUC / LogLoss, parameter accounting, throughput benchmark
* ``cli``        command-line entry points
"""

__version__ = "0.1.0"
