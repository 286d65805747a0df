"""Online signature verification.

Subpackages cover the full pipeline: SVC-format signature files
(``svc``), protocol splits and pair lists (``dataset``), time-function
extraction (``features``), the recurrent verifier (``lstm``,
``siamese``), an elastic-distance baseline (``dtw``), score evaluation
(``metrics``), and synthetic corpus generation (``synth``).
"""

import os

# OpenBLAS reads this when numpy loads it, which for the console script and
# ``python -m sigver.cli`` is after this line. Threaded BLAS splits long
# sums (training's weight gradients) by thread count, so the same seed
# would write different models on hosts with different core counts. An
# explicit setting wins; cli.main warns about it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
