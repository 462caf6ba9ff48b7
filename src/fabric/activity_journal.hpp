/**
 * @file
 * Per-design activity journal: deferred element materialisation.
 *
 * Eagerly materialising every element a tenant design configures —
 * variation sampling plus a slab insert per element, then a timeline
 * replay per activity flip — is the dominant cost of tenancy turnover
 * in fleet-scale campaigns, even though most configured elements are
 * never measured. The journal removes the AgingStore from the
 * load/wipe path entirely: a design load or wipe appends one
 * (timeline-position, activity) *run* per key whose activity actually
 * flips, in O(1) per key, and the element is materialised only at
 * first observation (a Route/Tdc bind, an element() read, a
 * service-wear sweep). Materialisation replays the recorded runs
 * against the device's AgingTimeline with the same per-segment /
 * pre-reduced arithmetic an eagerly materialised element would have
 * used at each flip, so aged delays are bit-identical — laziness is
 * unobservable except through materializedCount()-class diagnostics.
 *
 * Layout: a dense entry vector plus a 4-byte open-addressing index.
 * `entries_` holds one record per key in insertion order; keys are
 * never erased (consuming a key at materialisation marks its entry
 * spent). The first two runs — the whole configure/release
 * lifecycle of a typical unmeasured tenancy — live INLINE in the
 * entry, so the record path allocates nothing per key; third and
 * later runs (mitigation flip churn) spill into a linked arena whose
 * garbage is bounded by the number of flips ever recorded. `index_`
 * is a power-of-two table of entry position + 1 (0 = empty),
 * linear-probed at no more than half load. Growth re-inserts the
 * entries into a wider index in entry order; an entry keeps its
 * position for life. The index layout is therefore a pure
 * function of the entry order and the index size, and a restore that
 * re-inserts the saved entries at the saved size rebuilds it exactly
 * — only the entries travel in a checkpoint.
 *
 * Thread-safety: none. All writers (design load/wipe, element
 * materialisation) run in exclusive phases by the Device's existing
 * contract; the concurrent measurement fan-out only syncs handles
 * whose journal entries were consumed at bind time.
 */

#ifndef PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP
#define PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP

#include <cstdint>
#include <type_traits>
#include <vector>

#include "fabric/routing_element.hpp"

namespace pentimento::util {
class SnapshotWriter;
class SnapshotReader;
} // namespace pentimento::util

namespace pentimento::fabric {

/** One constant-activity run of a journaled (deferred) element. */
struct JournalRun
{
    /** Closed-segment timeline position the run starts at. */
    std::uint32_t from = 0;
    /** Activity in effect from `from` until the next run (or now). */
    ElementActivity activity;
};

/**
 * Keyed flip log for elements that are configured but not yet
 * materialised.
 */
class ActivityJournal
{
  public:
    /**
     * Journaled activity currently in effect for a key. Unused for
     * keys never journaled or already consumed (consumed keys are
     * materialised — the Device consults its live-activity arrays for
     * those, never the journal).
     */
    ElementActivity current(std::uint64_t key) const;

    /**
     * Append a run iff it is a flip: `key` behaves as `activity` from
     * timeline position `pos` on. Returns false (and records nothing)
     * when `activity` already equals the key's current journaled
     * activity — including the released/never-journaled case — so the
     * caller can mirror the eager path's flip detection with a single
     * probe per key. `pos` is the position the flip boundary WILL
     * have once the caller closes the open segment (callers
     * anticipate it as position() + openPending(), then close iff any
     * flip was recorded — exactly the eager close condition).
     * Recording against a consumed (materialised) key is a caller
     * bug and fatals: its activity lives in the device's live arrays.
     *
     * Header-inline: one call per configured key per design load and
     * wipe IS the tenancy-turnover hot path, and the two-inline-run
     * entry keeps the common case to one index probe and one entry.
     */
    bool
    recordIfChanged(std::uint64_t key, ElementActivity activity,
                    std::uint32_t pos)
    {
        // Keep the load factor under 1/2 so probe runs stay short
        // (grown up front: this is the record path's single probe).
        if (2 * (entries_.size() + 1) > index_.size()) {
            grow();
        }
        std::uint32_t &cell = index_[probe(key)];
        if (cell == 0) {
            if (activity == ElementActivity{}) {
                // Releasing a never-journaled key: no flip.
                return false;
            }
            entries_.push_back(
                Entry{key, 1, 0, 0, {pack(pos, activity), RawRun{}}});
            cell = static_cast<std::uint32_t>(entries_.size());
            ++active_;
            if (cached_min_ != kNpos && pos < cached_min_) {
                cached_min_ = pos;
            }
            return true;
        }
        Entry &entry = entries_[cell - 1];
        if (entry.count <= 2) {
            if (sameActivity(entry.runs[entry.count - 1], activity)) {
                return false;
            }
            if (entry.count < 2) {
                entry.runs[1] = pack(pos, activity);
                entry.count = 2;
                return true;
            }
        }
        return recordOverflow(entry, activity, pos);
    }

    /**
     * Move a key's runs out, oldest first, and mark the key consumed
     * (it is being materialised). Returns an empty vector for keys
     * never journaled.
     */
    std::vector<JournalRun> consume(std::uint64_t key);

    /** Number of keys journaled and not yet consumed. */
    std::size_t activeKeyCount() const { return active_; }

    /** Keys journaled and not yet consumed, in first-record order. */
    std::vector<std::uint64_t> activeKeys() const;

    /**
     * Smallest timeline position any active key still needs for its
     * replay (the compaction pin). Returns `fallback` when no key is
     * active. O(1) while no key has been consumed since the last
     * query (the memoised min only falls or rebases); recomputed
     * lazily otherwise.
     */
    std::uint32_t minActivePosition(std::uint32_t fallback) const;

    /**
     * Shift every active run's position down by `delta` after the
     * timeline dropped `delta` consumed segments.
     */
    void rebase(std::uint32_t delta);

    /**
     * Serialize the journal into the writer's current chunk: index
     * size, active count, the spill arena with its chain links, then
     * every entry in order (spent markers included — recording
     * against a consumed key must still be detected after a restore).
     * Counts and positions are LEB128 varints, and a run's duty is
     * written only when it is not 0.5. The compaction pin is a memo
     * and is not saved: a restored journal recomputes it.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a fresh journal from the reader's current chunk
     * and rebuild the index at the saved size. `positions` is the
     * restored timeline's closed-segment count. Corruption (a
     * duplicate key, an index too small or too large for its entries,
     * a broken chain link, an impossible count, a bad varint, a run
     * past `positions` or out of order within its key, a duty outside
     * [0, 1]) poisons the reader and leaves the journal empty;
     * returns ok().
     */
    bool restoreState(util::SnapshotReader &reader,
                      std::uint64_t positions);

  private:
    static constexpr std::uint32_t kNpos =
        static_cast<std::uint32_t>(-1);
    /** Entry::count value marking a consumed (materialised) key. */
    static constexpr std::uint32_t kSpent =
        static_cast<std::uint32_t>(-2);
    /** Index size the first record allocates. */
    static constexpr std::size_t kMinIndex = 256;

    /**
     * Trivially-copyable JournalRun so the Entry stays a POD and
     * entries_ relocates by memcpy when it grows.
     */
    struct RawRun
    {
        std::uint32_t from;
        Activity kind;
        double duty_one;
    };

    static RawRun
    pack(std::uint32_t from, const ElementActivity &activity)
    {
        return RawRun{from, activity.kind, activity.duty_one};
    }

    static JournalRun
    unpack(const RawRun &raw)
    {
        return JournalRun{raw.from,
                          ElementActivity{raw.kind, raw.duty_one}};
    }

    static bool
    sameActivity(const RawRun &raw, const ElementActivity &activity)
    {
        return raw.kind == activity.kind &&
               raw.duty_one == activity.duty_one;
    }

    /**
     * One journaled key. The first two runs are inline — a tenancy
     * that configures and releases a key never touches the arena —
     * and runs three and up chain through arena nodes at `head`/
     * `tail` (meaningful only when count > 2; zero elsewhere).
     * count == kSpent marks a consumed key.
     */
    struct Entry
    {
        std::uint64_t key;
        std::uint32_t count;
        std::uint32_t head;
        std::uint32_t tail;
        RawRun runs[2];
    };
    static_assert(std::is_trivially_copyable_v<Entry>);

    /** Arena node: an overflow run plus its chain link. */
    struct Node
    {
        RawRun run;
        std::uint32_t next;
    };

    static std::uint64_t
    hashKey(std::uint64_t key)
    {
        // splitmix64 finaliser, as in the AgingStore index.
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        return key ^ (key >> 31);
    }

    /** Smallest index size holding `keys` entries at 1/2 load. */
    static std::size_t indexSizeFor(std::size_t keys);

    /** Probe for key; returns its index cell or the empty cell to
     *  fill. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = hashKey(key) & mask;
        while (index_[i] != 0 && entries_[index_[i] - 1].key != key) {
            i = (i + 1) & mask;
        }
        return i;
    }

    /** Widen (or bootstrap) the index to fit one more entry. */
    void grow();

    /** Cold path of recordIfChanged: spent-key fatal and third-and-up
     *  runs (arena spill). */
    bool recordOverflow(Entry &entry, const ElementActivity &activity,
                        std::uint32_t pos);

    /** The key's most recent run (count != 0 and not spent). */
    const RawRun &lastRun(const Entry &entry) const;

    /** Index cell value (entry position + 1) of `key` while it is
     *  active; 0 for keys never journaled or already consumed. */
    std::uint32_t activeCell(std::uint64_t key) const;

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> index_;
    std::vector<Node> arena_;
    std::size_t active_ = 0;
    /** Memoised minActivePosition: first-run positions only fall
     *  (rebase) or extend (new keys), so the min is maintained O(1)
     *  until a consume() may raise it — then it recomputes lazily.
     *  kNpos = unknown (recompute on next query). */
    mutable std::uint32_t cached_min_ = kNpos;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_ACTIVITY_JOURNAL_HPP
