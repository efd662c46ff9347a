/**
 * @file
 * Self-supervised pretraining baselines (paper Table 8).
 *
 * The paper compares MTL against GPT-style and BERT-style pretraining of
 * the cost model on unlabeled schedule sequences, finding both inferior
 * for this small-input regime. We reproduce the two pretext tasks on the
 * TLP backbone:
 *   - GPT-style:  causal next-primitive-embedding prediction;
 *   - BERT-style: masked-primitive reconstruction.
 * The label columns of the input set are ignored — only features are
 * used. After pretraining, fine-tune with trainTlpNet as usual.
 */
#pragma once

#include "models/tlp_model.h"

namespace tlp::model {

/** BERT row-masking probability. */
inline constexpr double kBertMaskProb = 0.15;

/** Pretraining options. */
struct PretrainOptions
{
    int epochs = 3;
    int batch_size = 128;
    double lr = 1e-3;
    uint64_t seed = 0x9e7;
    bool verbose = false;
    /** Recovery policy, fault injection and health sink of the
     *  supervisor that checks every step. */
    SupervisorOptions supervisor;
};

/** GPT-style causal pretraining of @p net's backbone. @return loss. */
double gptPretrain(TlpNet &net, const data::LabeledSet &set,
                   const PretrainOptions &options);

/** BERT-style masked pretraining of @p net's backbone. @return loss. */
double bertPretrain(TlpNet &net, const data::LabeledSet &set,
                    const PretrainOptions &options);

} // namespace tlp::model
