/**
 * @file
 * Primitive-sequence score memo for the scoring hot path
 * (DESIGN.md §13).
 *
 * Evolutionary search re-scores survivors every generation, so many
 * scoreStates candidates have been scored before. The cache memoizes
 * each candidate's score, keyed by a 128-bit content hash of the
 * PrimitiveSeq (two independent fnv1a-style walks; a primary-hash
 * collision with a mismatched secondary is treated as a miss, so a
 * 64-bit collision cannot silently serve the wrong candidate's score).
 * Feature rows are not kept: extraction costs a few percent of a row's
 * forward, so a cached row would save next to nothing.
 *
 * Determinism contract: the cache is an accelerator, never an oracle —
 * scores are pure per-row functions of (features, params, task), so
 * cached and uncached runs predict bit-identically; eviction is
 * deterministic FIFO in insertion order. Each memo carries its task and
 * the owning parameter fingerprint ("epoch"): retraining or hot-swapping
 * the net invalidates it.
 *
 * Storage is fully preallocated at construction (entry array,
 * open-addressed index with tombstone-triggered in-place rebuild), so
 * steady-state find/insert/evict performs zero heap allocations — the TU
 * is declared hot in tools/lint_manifest.txt.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/primitive.h"

namespace tlp::model {

/** 128-bit content key of a PrimitiveSeq. */
struct SeqKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool
    operator==(const SeqKey &other) const
    {
        return lo == other.lo && hi == other.hi;
    }
};

/** Both hash walks in one pass over @p seq. */
SeqKey seqKeyOf(const sched::PrimitiveSeq &seq);

/** Bounded FIFO memo of per-task scores, keyed by SeqKey. */
class FeatureCache
{
  public:
    /**
     * Hit/miss accounting (monotonic; reset never). feature_hits and
     * bypasses always read 0; they stay for the perfbench harness.
     */
    struct Stats
    {
        uint64_t score_hits = 0;    ///< memoized score reused
        uint64_t feature_hits = 0;  ///< always 0 (no rows are cached)
        uint64_t misses = 0;        ///< looked up, scored by a forward
        uint64_t evictions = 0;     ///< FIFO evictions performed
        uint64_t bypasses = 0;      ///< always 0 (nothing bypasses)
    };

    /** At most @p capacity entries. */
    explicit FeatureCache(int64_t capacity);

    int64_t capacity() const { return capacity_; }

    /** Live entries (monotone up to capacity; eviction reuses slots). */
    int64_t size() const { return size_; }

    /** Slot of @p key, or -1. Does not touch the stats counters. */
    int64_t find(const SeqKey &key) const;

    /**
     * Claim a slot for @p key (FIFO-evicting the oldest entry at
     * capacity) and return it, with no score memo. Counts an eviction
     * when one happened. @p key must not already be present.
     */
    int64_t insert(const SeqKey &key);

    /** Memoized score of (slot, task, epoch) into @p out, if present. */
    bool scoreAt(int64_t slot, int task, uint64_t epoch,
                 double *out) const;

    /** Memoize @p score for (slot, task, epoch). */
    void storeScore(int64_t slot, int task, uint64_t epoch, double score);

    const Stats &stats() const { return stats_; }
    void noteScoreHit() { ++stats_.score_hits; }
    void noteMiss() { ++stats_.misses; }

  private:
    struct Entry
    {
        SeqKey key;
        int score_task = -1;        ///< -1 = no score memo
        uint64_t score_epoch = 0;   ///< params fingerprint of the memo
        double score = 0.0;
    };

    /** Index table values: 0 = empty, -1 = tombstone, else slot + 1. */
    int64_t probeFind(const SeqKey &key) const;
    void tableInsert(const SeqKey &key, int64_t slot);
    void tableErase(const SeqKey &key);
    void rebuildTable();

    int64_t capacity_;
    int64_t size_ = 0;
    int64_t next_evict_ = 0;     ///< FIFO cursor once full
    int64_t tombstones_ = 0;
    std::vector<Entry> entries_;
    std::vector<int64_t> table_; ///< open-addressed, power-of-two sized
    uint64_t mask_ = 0;
    Stats stats_;
};

} // namespace tlp::model
