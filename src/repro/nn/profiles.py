"""Paper-scale model profiles: the variable inventories of Table 1.

The performance plane never materializes paper-scale arrays (the LM
embedding alone is 406M elements); it works from these profiles, which
record for every variable its element count, whether its gradient is
sparse, and its per-worker alpha (fraction of rows touched per iteration).

Inventories are reconstructed from the paper and the models it cites:

* **ResNet-50** -- the real He et al. bottleneck structure (conv + fc,
  batch-norm folded), scaled so total elements match the paper's 23.8M;
  the fc layer is kept at exactly 2,049,000 elements because the paper
  calls it out ("the largest variable ... has 2.05 million elements").
* **Inception-v3** -- stem + inception towers + fc, scaled to 25.6M.
* **LM** -- Jozefowicz et al. big LSTM: a (512+512)x8192 CIFG-style kernel
  plus a 2048x512 projection (9.4M dense), and input embedding + softmax
  weights + softmax bias over the 793,471-word One-Billion-Word vocabulary
  (813.3M sparse).
* **NMT** -- GNMT-style encoder/decoder stack (94.1M dense) with encoder
  and decoder embeddings over a 36,572-token vocabulary (74.9M sparse).

Per-variable alpha values are set so the element-weighted model alpha
(with dense variables contributing alpha = 1) reproduces the paper's
alpha_model column: 1, 1, 0.02, 0.65.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

FLOAT_BYTES = 4


@dataclass(frozen=True)
class VariableProfile:
    """Size/sparsity descriptor of one model variable."""

    name: str
    num_elements: int
    is_sparse: bool = False
    alpha: float = 1.0  # per-worker fraction of rows touched per iteration
    rows: Optional[int] = None  # leading dim; needed to bound partitioning

    def __post_init__(self):
        if self.num_elements <= 0:
            raise ValueError(f"{self.name}: num_elements must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"{self.name}: alpha must be in (0, 1]")
        if self.is_sparse and self.rows is None:
            raise ValueError(f"{self.name}: sparse variables must define rows")

    @property
    def nbytes(self) -> int:
        return self.num_elements * FLOAT_BYTES

    @property
    def grad_nbytes(self) -> int:
        """Bytes of gradient one worker produces for this variable."""
        if self.is_sparse:
            return int(round(self.alpha * self.num_elements)) * FLOAT_BYTES
        return self.nbytes


@dataclass(frozen=True)
class ModelProfile:
    """A model as the performance plane sees it."""

    name: str
    variables: List[VariableProfile]
    batch_per_gpu: int
    units_per_sample: int  # 1 for images; tokens per sentence for NLP
    unit: str  # "images" or "words"
    gpu_time_per_iter: float  # fwd+bwd seconds on one GPU (calibrated)

    @property
    def dense_variables(self) -> List[VariableProfile]:
        return [v for v in self.variables if not v.is_sparse]

    @property
    def sparse_variables(self) -> List[VariableProfile]:
        return [v for v in self.variables if v.is_sparse]

    @property
    def dense_elements(self) -> int:
        return sum(v.num_elements for v in self.dense_variables)

    @property
    def sparse_elements(self) -> int:
        return sum(v.num_elements for v in self.sparse_variables)

    @property
    def total_elements(self) -> int:
        return self.dense_elements + self.sparse_elements

    @property
    def alpha_model(self) -> float:
        """Element-weighted alpha (dense variables count as alpha = 1).

        This is the paper's alpha_model (Table 1): "a weighted sum of
        alpha values of variables in the model, where the weight of each
        variable is proportional to its number of elements."
        """
        total = self.total_elements
        weighted = sum(v.alpha * v.num_elements for v in self.variables)
        return weighted / total

    def units_per_iteration(self, num_gpus: int) -> int:
        return self.batch_per_gpu * self.units_per_sample * num_gpus

    def get_variable(self, name: str) -> VariableProfile:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"no variable named {name!r} in profile {self.name}")


# ----------------------------------------------------------------------
# ResNet-50
# ----------------------------------------------------------------------
def _resnet50_raw_inventory() -> List[VariableProfile]:
    """The genuine bottleneck-structure conv inventory (no batch norm)."""
    out: List[VariableProfile] = [VariableProfile("conv1", 7 * 7 * 3 * 64)]
    stage_defs = [  # (num_blocks, in_ch, mid_ch, out_ch)
        (3, 64, 64, 256),
        (4, 256, 128, 512),
        (6, 512, 256, 1024),
        (3, 1024, 512, 2048),
    ]
    for s, (blocks, in_ch, mid, out_ch) in enumerate(stage_defs):
        for b in range(blocks):
            block_in = in_ch if b == 0 else out_ch
            prefix = f"stage{s + 1}/block{b + 1}"
            out.append(VariableProfile(f"{prefix}/conv_a", block_in * mid))
            out.append(VariableProfile(f"{prefix}/conv_b", 3 * 3 * mid * mid))
            out.append(VariableProfile(f"{prefix}/conv_c", mid * out_ch))
            if b == 0:
                out.append(
                    VariableProfile(f"{prefix}/downsample", block_in * out_ch)
                )
    return out


def _scale_inventory(variables: List[VariableProfile], target_total: int,
                     keep: Dict[str, int]) -> List[VariableProfile]:
    """Scale element counts so they sum to *target_total*.

    Entries named in *keep* are pinned to an exact size (the paper calls
    out the fc layer sizes explicitly); everything else scales uniformly.
    """
    pinned = sum(keep.values())
    flexible = sum(v.num_elements for v in variables if v.name not in keep)
    factor = (target_total - pinned) / flexible
    scaled = []
    for v in variables:
        if v.name in keep:
            scaled.append(VariableProfile(v.name, keep[v.name], v.is_sparse,
                                          v.alpha, v.rows))
        else:
            scaled.append(
                VariableProfile(v.name, max(1, round(v.num_elements * factor)),
                                v.is_sparse, v.alpha, v.rows)
            )
    return scaled


def resnet50_profile() -> ModelProfile:
    """Table 1 row 1: dense 23.8M elements, batch 64/GPU."""
    inventory = _resnet50_raw_inventory()
    inventory.append(VariableProfile("fc", 2048 * 1000 + 1000))
    inventory = _scale_inventory(
        inventory, 23_800_000, keep={"fc": 2_049_000}
    )
    return ModelProfile(
        name="resnet50",
        variables=inventory,
        batch_per_gpu=64,
        units_per_sample=1,
        unit="images",
        gpu_time_per_iter=0.335,  # ~191 images/s on one GPU (paper Fig. 9)
    )


# ----------------------------------------------------------------------
# Inception-v3
# ----------------------------------------------------------------------
def _inception_raw_inventory() -> List[VariableProfile]:
    out: List[VariableProfile] = [
        VariableProfile("stem/conv1", 3 * 3 * 3 * 32),
        VariableProfile("stem/conv2", 3 * 3 * 32 * 32),
        VariableProfile("stem/conv3", 3 * 3 * 32 * 64),
        VariableProfile("stem/conv4", 1 * 1 * 64 * 80),
        VariableProfile("stem/conv5", 3 * 3 * 80 * 192),
    ]
    # Inception towers: (count, in_ch, branch channel descriptions)
    module_defs = [
        ("mixed_a", 3, 288, [64, 96, 48, 64]),
        ("mixed_b", 5, 768, [192, 160, 128, 192]),
        ("mixed_c", 2, 2048, [320, 384, 448, 192]),
    ]
    for label, count, in_ch, branches in module_defs:
        for m in range(count):
            for b, ch in enumerate(branches):
                out.append(
                    VariableProfile(f"{label}{m + 1}/branch{b}/conv1x1",
                                    in_ch * ch)
                )
                out.append(
                    VariableProfile(f"{label}{m + 1}/branch{b}/conv3x3",
                                    3 * 3 * ch * ch)
                )
    return out


def inception_v3_profile() -> ModelProfile:
    """Table 1 row 2: dense 25.6M elements, batch 64/GPU."""
    inventory = _inception_raw_inventory()
    inventory.append(VariableProfile("fc", 2048 * 1000 + 1000))
    inventory = _scale_inventory(
        inventory, 25_600_000, keep={"fc": 2_049_000}
    )
    return ModelProfile(
        name="inception_v3",
        variables=inventory,
        batch_per_gpu=64,
        units_per_sample=1,
        unit="images",
        gpu_time_per_iter=0.473,  # ~135 images/s on one GPU (paper Fig. 9)
    )


# ----------------------------------------------------------------------
# LM (Jozefowicz et al. big LSTM on One-Billion-Word)
# ----------------------------------------------------------------------
LM_VOCAB = 793_471
LM_EMB_DIM = 512
LM_SEQ_LEN = 20

# Sparse per-variable alpha chosen so the element-weighted model alpha
# (dense contributing 1.0) lands on the paper's 0.02 -- see module test.
LM_SPARSE_ALPHA = 0.0087


def lm_profile() -> ModelProfile:
    """Table 1 row 3: dense 9.4M, sparse 813.3M, alpha_model 0.02."""
    dense = [
        VariableProfile("lstm/kernel", (LM_EMB_DIM + LM_EMB_DIM) * 4 * 2048),
        VariableProfile("lstm/projection", 2048 * LM_EMB_DIM),
        VariableProfile("lstm/bias", 4 * 2048),
    ]
    sparse = [
        VariableProfile("embedding", LM_VOCAB * LM_EMB_DIM, is_sparse=True,
                        alpha=LM_SPARSE_ALPHA, rows=LM_VOCAB),
        VariableProfile("softmax/weights", LM_VOCAB * LM_EMB_DIM,
                        is_sparse=True, alpha=LM_SPARSE_ALPHA, rows=LM_VOCAB),
        VariableProfile("softmax/bias", LM_VOCAB, is_sparse=True,
                        alpha=LM_SPARSE_ALPHA, rows=LM_VOCAB),
    ]
    return ModelProfile(
        name="lm",
        variables=dense + sparse,
        batch_per_gpu=128,
        units_per_sample=LM_SEQ_LEN,
        unit="words",
        gpu_time_per_iter=0.088,  # ~29k words/s on one GPU (paper Fig. 9)
    )


# ----------------------------------------------------------------------
# NMT (GNMT-style, WMT En-De)
# ----------------------------------------------------------------------
# Sparse total is 74.9M elements = 3 vocabulary-shaped variables (encoder
# embedding, decoder embedding, sampled-softmax weights) of V x 1024 each
# -> V = 24,381 sub-word units.
NMT_VOCAB = 24_381
NMT_DIM = 1024
NMT_SEQ_LEN = 25

# Per-variable alphas: a 128-sentence x 25-token batch touches ~6% of the
# 24,381-entry vocabulary after Zipf repetition; sampled softmax draws a
# somewhat larger candidate set (~9% of rows).  These values are the ones
# consistent with the paper's *measured throughput scaling* (Figure 8(d):
# Horovod NMT iteration time grows linearly in worker count with slope
# ~41 ms/worker, which pins total sparse alpha*elements at ~5.2M).  The
# paper's Table 1 reports alpha_model = 0.65 for NMT; under our
# element-weighted definition these alphas give ~0.59 -- the paper's
# weighting cannot be reproduced exactly from the published counts.
# ``examples/calibrate.py`` prints the resulting throughput beside the
# paper's.
NMT_EMB_ALPHA = 0.06
NMT_SOFTMAX_ALPHA = 0.09


def nmt_profile() -> ModelProfile:
    """Table 1 row 4: dense 94.1M, sparse 74.9M, alpha_model 0.65."""
    dense: List[VariableProfile] = []
    # Bidirectional first encoder layer + uni encoder layers.
    dense.append(VariableProfile("encoder/bi_fw/kernel",
                                 (NMT_DIM + NMT_DIM) * 4 * NMT_DIM))
    dense.append(VariableProfile("encoder/bi_bw/kernel",
                                 (NMT_DIM + NMT_DIM) * 4 * NMT_DIM))
    for layer in range(2, 6):
        in_dim = 2 * NMT_DIM if layer == 2 else NMT_DIM
        dense.append(
            VariableProfile(f"encoder/layer{layer}/kernel",
                            (in_dim + NMT_DIM) * 4 * NMT_DIM)
        )
    # Decoder layers (first takes attention context concatenated).
    for layer in range(1, 6):
        in_dim = 2 * NMT_DIM if layer == 1 else NMT_DIM
        dense.append(
            VariableProfile(f"decoder/layer{layer}/kernel",
                            (in_dim + NMT_DIM) * 4 * NMT_DIM)
        )
    dense.append(VariableProfile("attention/kernel", 2 * NMT_DIM * NMT_DIM))
    dense = _scale_inventory(dense, 94_100_000, keep={})
    sparse = [
        VariableProfile("encoder/embedding", NMT_VOCAB * NMT_DIM,
                        is_sparse=True, alpha=NMT_EMB_ALPHA,
                        rows=NMT_VOCAB),
        VariableProfile("decoder/embedding", NMT_VOCAB * NMT_DIM,
                        is_sparse=True, alpha=NMT_EMB_ALPHA,
                        rows=NMT_VOCAB),
        VariableProfile("softmax/weights", NMT_VOCAB * NMT_DIM,
                        is_sparse=True, alpha=NMT_SOFTMAX_ALPHA,
                        rows=NMT_VOCAB),
    ]
    return ModelProfile(
        name="nmt",
        variables=dense + sparse,
        batch_per_gpu=128,
        units_per_sample=NMT_SEQ_LEN,
        unit="words",
        gpu_time_per_iter=0.289,  # ~11k words/s on one GPU (paper Fig. 9)
    )


# ----------------------------------------------------------------------
# Constructed LM for the sparsity-degree sweep (Table 6)
# ----------------------------------------------------------------------
# The paper controls the sparsity degree through the number of words per
# data instance ("length"), with a reduced vocabulary.  These are the
# exact (length, alpha) pairs of Table 6.  Note the alpha column here is
# the *sparse-variable* alpha, not the element-weighted alpha_model of
# Table 1: with the constructed LM's 9.4M of dense LSTM weights, an
# element-weighted alpha could never reach Table 6's 0.04 floor.  The
# column is physically consistent as per-worker sparse alpha over a
# 3,200-word vocabulary: a 128-instance batch of length 1 touches at most
# 128/3200 = 0.04 of the rows -- exactly the length-1 entry -- and a
# length-120 batch (15,360 draws) covers the whole vocabulary (alpha 1.0).
TABLE6_ALPHA = {
    120: 1.0, 60: 0.52, 30: 0.28, 15: 0.16, 8: 0.1, 4: 0.07, 1: 0.04,
}

CONSTRUCTED_LM_VOCAB = 3_200
CONSTRUCTED_LM_DIM = 512


def constructed_lm_profile(length: int) -> ModelProfile:
    """LM variant with sparsity controlled by instance length (sec. 6.6)."""
    if length not in TABLE6_ALPHA:
        raise ValueError(
            f"length must be one of {sorted(TABLE6_ALPHA)}, got {length}"
        )
    alpha_var = TABLE6_ALPHA[length]
    dense = [
        VariableProfile("lstm/kernel", (512 + 512) * 4 * 2048),
        VariableProfile("lstm/projection", 2048 * 512),
        VariableProfile("lstm/bias", 4 * 2048),
    ]
    sparse = [
        VariableProfile("embedding",
                        CONSTRUCTED_LM_VOCAB * CONSTRUCTED_LM_DIM,
                        is_sparse=True, alpha=alpha_var,
                        rows=CONSTRUCTED_LM_VOCAB),
        VariableProfile("softmax/weights",
                        CONSTRUCTED_LM_VOCAB * CONSTRUCTED_LM_DIM,
                        is_sparse=True, alpha=alpha_var,
                        rows=CONSTRUCTED_LM_VOCAB),
    ]
    # Compute time grows with instance length (more unrolled steps).
    base_step_time = 0.0035
    return ModelProfile(
        name=f"constructed_lm_len{length}",
        variables=dense + sparse,
        batch_per_gpu=128,
        units_per_sample=length,
        unit="words",
        gpu_time_per_iter=0.02 + base_step_time * length,
    )


def PAPER_PROFILES() -> Dict[str, ModelProfile]:
    """The four Table 1 models keyed by name."""
    return {
        "resnet50": resnet50_profile(),
        "inception_v3": inception_v3_profile(),
        "lm": lm_profile(),
        "nmt": nmt_profile(),
    }
