#include "fabric/activity_journal.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::fabric {

std::size_t
ActivityJournal::indexSizeFor(std::size_t keys)
{
    std::size_t size = kMinIndex;
    while (2 * keys > size) {
        size *= 2;
    }
    return size;
}

void
ActivityJournal::grow()
{
    // Only the 4-byte index is rebuilt: the entries stay where they
    // are, and re-inserting them in entry order gives the same layout
    // a restore rebuilds.
    const std::size_t grown = indexSizeFor(entries_.size() + 1);
    index_.assign(grown, 0);
    const std::size_t mask = grown - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
        std::size_t i = hashKey(entries_[e].key) & mask;
        while (index_[i] != 0) {
            i = (i + 1) & mask;
        }
        index_[i] = static_cast<std::uint32_t>(e + 1);
    }
}

const ActivityJournal::RawRun &
ActivityJournal::lastRun(const Entry &entry) const
{
    if (entry.count <= 2) {
        return entry.runs[entry.count - 1];
    }
    return arena_[entry.tail].run;
}

std::uint32_t
ActivityJournal::activeCell(std::uint64_t key) const
{
    if (index_.empty()) {
        return 0;
    }
    const std::uint32_t cell = index_[probe(key)];
    return cell != 0 && entries_[cell - 1].count != kSpent ? cell : 0;
}

ElementActivity
ActivityJournal::current(std::uint64_t key) const
{
    const std::uint32_t cell = activeCell(key);
    if (cell == 0) {
        return ElementActivity{};
    }
    const RawRun &last = lastRun(entries_[cell - 1]);
    return ElementActivity{last.kind, last.duty_one};
}

bool
ActivityJournal::recordOverflow(Entry &entry,
                                const ElementActivity &activity,
                                std::uint32_t pos)
{
    if (entry.count == kSpent) {
        util::fatal("ActivityJournal: flip recorded for a consumed "
                    "(materialised) key");
    }
    if (entry.count > 2 &&
        sameActivity(arena_[entry.tail].run, activity)) {
        return false;
    }
    const auto node = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(Node{pack(pos, activity), kNpos});
    if (entry.count > 2) {
        arena_[entry.tail].next = node;
    } else {
        entry.head = node;
    }
    entry.tail = node;
    ++entry.count;
    return true;
}

std::vector<JournalRun>
ActivityJournal::consume(std::uint64_t key)
{
    std::vector<JournalRun> runs;
    const std::uint32_t cell = activeCell(key);
    if (cell == 0) {
        return runs;
    }
    Entry &entry = entries_[cell - 1];
    runs.reserve(entry.count);
    runs.push_back(unpack(entry.runs[0]));
    if (entry.count >= 2) {
        runs.push_back(unpack(entry.runs[1]));
    }
    if (entry.count > 2) {
        for (std::uint32_t i = entry.head; i != kNpos;
             i = arena_[i].next) {
            runs.push_back(unpack(arena_[i].run));
        }
    }
    // Invalidate the memoised min only when this key attained it
    // (its first-run position is still intact here) — an observation
    // burst consuming thousands of non-pin keys must not force an
    // O(entries) rescan per subsequent compaction query.
    if (entry.runs[0].from == cached_min_) {
        cached_min_ = kNpos;
    }
    entry.count = kSpent;
    entry.head = 0;
    entry.tail = 0;
    --active_;
    return runs;
}

std::vector<std::uint64_t>
ActivityJournal::activeKeys() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(active_);
    for (const Entry &entry : entries_) {
        if (entry.count != kSpent) {
            keys.push_back(entry.key);
        }
    }
    return keys;
}

std::uint32_t
ActivityJournal::minActivePosition(std::uint32_t fallback) const
{
    if (active_ == 0) {
        return fallback;
    }
    if (cached_min_ == kNpos) {
        std::uint32_t min_pos = static_cast<std::uint32_t>(-2);
        for (const Entry &entry : entries_) {
            if (entry.count != kSpent) {
                min_pos = std::min(min_pos, entry.runs[0].from);
            }
        }
        cached_min_ = min_pos;
    }
    return std::min(cached_min_, fallback);
}

void
ActivityJournal::rebase(std::uint32_t delta)
{
    if (delta == 0) {
        return;
    }
    if (cached_min_ != kNpos) {
        cached_min_ -= delta;
    }
    for (Entry &entry : entries_) {
        if (entry.count == kSpent) {
            continue;
        }
        entry.runs[0].from -= delta;
        if (entry.count >= 2) {
            entry.runs[1].from -= delta;
        }
        if (entry.count > 2) {
            for (std::uint32_t i = entry.head; i != kNpos;
                 i = arena_[i].next) {
                arena_[i].run.from -= delta;
            }
        }
    }
}

namespace {

/** Kind-byte flag: the run's duty is exactly 0.5 and is not written. */
constexpr std::uint8_t kHalfDuty = 0x80;

/** Fewest bytes an arena node / an entry can encode to. */
constexpr std::size_t kMinNodeBytes = 3;  // position, kind, link
constexpr std::size_t kMinEntryBytes = 9; // key, count

} // namespace

void
ActivityJournal::saveState(util::SnapshotWriter &writer) const
{
    const auto saveRun = [&writer](const RawRun &run) {
        writer.varint(run.from);
        const bool half = run.duty_one == 0.5;
        writer.u8(static_cast<std::uint8_t>(run.kind) |
                  (half ? kHalfDuty : 0));
        if (!half) {
            writer.f64(run.duty_one);
        }
    };
    writer.varint(index_.size());
    writer.varint(active_);
    writer.varint(arena_.size());
    for (const Node &node : arena_) {
        saveRun(node.run);
        // Link + 1, so the chain end (kNpos) is the one-byte 0.
        writer.varint(node.next == kNpos ? 0 : std::uint64_t{node.next} + 1);
    }
    writer.varint(entries_.size());
    for (const Entry &entry : entries_) {
        writer.u64(entry.key);
        if (entry.count == kSpent) {
            writer.varint(0);
            continue;
        }
        writer.varint(entry.count);
        saveRun(entry.runs[0]);
        if (entry.count >= 2) {
            saveRun(entry.runs[1]);
        }
        if (entry.count > 2) {
            writer.varint(entry.head);
            writer.varint(entry.tail);
        }
    }
}

bool
ActivityJournal::restoreState(util::SnapshotReader &reader,
                              std::uint64_t positions)
{
    // A run may start at most at the restored timeline's end: replay
    // reads the closed segments between consecutive run starts.
    const std::uint64_t max_from = std::min<std::uint64_t>(
        positions, std::numeric_limits<std::uint32_t>::max());
    const auto readRun = [&reader, max_from]() {
        const std::uint64_t from = reader.varint();
        const std::uint8_t kind = reader.u8();
        const double duty_one =
            (kind & kHalfDuty) != 0 ? 0.5 : reader.f64();
        const std::uint8_t activity = kind & ~kHalfDuty;
        if (reader.ok() &&
            (from > max_from ||
             activity > static_cast<std::uint8_t>(Activity::Toggle) ||
             !(duty_one >= 0.0 && duty_one <= 1.0))) {
            reader.fail("snapshot: journal run is out of range");
        }
        return RawRun{static_cast<std::uint32_t>(from),
                      static_cast<Activity>(activity), duty_one};
    };

    const std::uint64_t index_size = reader.varint();
    const std::uint64_t active = reader.varint();
    const std::uint64_t arena_size = reader.varint();
    if (reader.ok() && arena_size > reader.remaining() / kMinNodeBytes) {
        reader.fail("snapshot: journal arena count overruns the chunk");
    }
    if (!reader.ok()) {
        return false;
    }
    std::vector<Node> arena;
    arena.reserve(arena_size);
    for (std::uint64_t i = 0; i < arena_size && reader.ok(); ++i) {
        const RawRun run = readRun();
        const std::uint64_t link = reader.varint();
        if (reader.ok() && link > arena_size) {
            reader.fail("snapshot: journal arena link out of range");
        }
        arena.push_back(
            Node{run, link == 0 ? kNpos
                                : static_cast<std::uint32_t>(link - 1)});
    }
    const std::uint64_t entry_count = reader.varint();
    if (reader.ok() && entry_count > reader.remaining() / kMinEntryBytes) {
        reader.fail("snapshot: journal entry count overruns the chunk");
    }
    if (!reader.ok()) {
        return false;
    }
    // The index must be one live growth could have left: a power of
    // two at most half full (a full table would never end a probe)
    // and no wider than one more entry needs (so a crafted size
    // cannot reach the allocator).
    if (index_size != 0 &&
        ((index_size & (index_size - 1)) != 0 || index_size < kMinIndex)) {
        reader.fail("snapshot: journal index size is not a table size");
        return false;
    }
    if (2 * entry_count > index_size) {
        reader.fail("snapshot: journal holds more entries than half "
                    "its index");
        return false;
    }
    if (index_size > indexSizeFor(entry_count + 1)) {
        reader.fail("snapshot: journal index is larger than its "
                    "entries need");
        return false;
    }

    // A spilled chain must run head → tail through exactly count - 2
    // nodes no other chain owns, then end: consume() and rebase()
    // walk it to kNpos, so a cycle would never end and a shared node
    // would be rebased twice. Its runs must continue the inline ones
    // in timeline order, as replay expects.
    std::vector<std::uint8_t> owned(arena_size);
    const auto claimChain = [&](const Entry &entry) {
        std::uint32_t node = entry.head;
        std::uint32_t last = kNpos;
        std::uint32_t from = entry.runs[1].from;
        for (std::uint32_t k = 2; k < entry.count; ++k) {
            if (node >= arena_size || owned[node] != 0 ||
                arena[node].run.from < from) {
                return false;
            }
            owned[node] = 1;
            from = arena[node].run.from;
            last = node;
            node = arena[node].next;
        }
        return node == kNpos && last == entry.tail;
    };

    std::vector<Entry> entries;
    entries.reserve(entry_count);
    std::uint64_t seen_active = 0;
    for (std::uint64_t n = 0; n < entry_count && reader.ok(); ++n) {
        Entry entry{reader.u64(), kSpent, 0, 0, {}};
        const std::uint64_t count = reader.varint();
        if (count >= kSpent) {
            reader.fail("snapshot: journal entry run count is out of "
                        "range");
        } else if (count != 0) {
            entry.count = static_cast<std::uint32_t>(count);
            entry.runs[0] = readRun();
            if (count >= 2) {
                entry.runs[1] = readRun();
                if (reader.ok() &&
                    entry.runs[1].from < entry.runs[0].from) {
                    reader.fail("snapshot: journal runs are out of "
                                "order");
                }
            }
            if (count > 2) {
                entry.head = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(reader.varint(), kNpos));
                entry.tail = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(reader.varint(), kNpos));
                if (reader.ok() && !claimChain(entry)) {
                    reader.fail("snapshot: journal spill chain is "
                                "broken");
                }
            }
            ++seen_active;
        }
        entries.push_back(entry);
    }
    if (!reader.ok()) {
        return false;
    }
    if (seen_active != active) {
        reader.fail("snapshot: journal active-key count mismatch");
        return false;
    }

    entries_ = std::move(entries);
    index_.assign(index_size, 0);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
        const std::size_t cell = probe(entries_[e].key);
        if (index_[cell] != 0) {
            *this = ActivityJournal{};
            reader.fail("snapshot: journal key is duplicated");
            return false;
        }
        index_[cell] = static_cast<std::uint32_t>(e + 1);
    }
    arena_ = std::move(arena);
    active_ = active;
    return true;
}

} // namespace pentimento::fabric
