"""Self-evolving multi-modal image fusion toolkit.

A classical fusion-algorithm bank produces candidates, a no-reference /
full-reference metric suite picks the per-pair relative optimal solution,
and compact CNN fusers train toward (and eventually beat) that solution.
A profiling harness reports parameters, FLOPs, model bytes and latency.
"""

from .errors import EvoFuseError  # noqa: F401
from .evolution import (  # noqa: F401
    SolutionBank,
    evaluate_candidates,
    init_bank,
    load_bank,
    save_bank,
    select_optimal,
    update_bank,
)
from .fusion import DEFAULT_ALGOS, FusionCandidate, REGISTRY, run_bank  # noqa: F401
from .image import (  # noqa: F401
    ImageGray,
    ImagePair,
    Task,
    filter2_same,
    load_pgm,
    save_pgm,
)
from .metrics import (  # noqa: F401
    QualityScores,
    avg_gradient,
    brenner,
    combined_score,
    entropy,
    mutual_information,
    psnr,
    ssim,
    viff,
)
from .niqe import (  # noqa: F401
    NiqeModel,
    default_niqe_model,
    fit_niqe_model,
    load_niqe_model,
    niqe_score,
    save_niqe_model,
)
from .training import (  # noqa: F401
    TaskWeights,
    TrainConfig,
    adapt_task,
    adam_step,
    evolve,
    loss_to_optimal,
    supervised_loss,
    train,
    train_common,
)

__version__ = "0.1.0"
