#include "check/dpor.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "runtime/fiber.hpp"

namespace mm::check {

using runtime::ConfigError;
using runtime::FiberStackRecycler;
using runtime::footprints_dependent;
using runtime::SimConfig;
using runtime::SimRuntime;
using runtime::StateHash;
using runtime::StepFootprint;

void validate_explorable(const SimConfig& config) {
  if (config.n() > 64)
    throw ConfigError{"explorer requires n <= 64 (process sets are 64-bit masks)"};
  for (const auto b : config.byzantine)
    if (b != 0)
      throw ConfigError{"explorer does not support Byzantine processes: adversary "
                        "interposition has no dependency class in "
                        "footprints_dependent yet (sample it with chaos campaigns "
                        "instead)"};
  if (config.link_type != runtime::LinkType::kReliable)
    throw ConfigError{"explorer requires reliable links: lossy links draw from the "
                      "link stream in send order, entangling independent sends. "
                      "Bounded adversarial loss is explorable through "
                      "explore_faults.drop_budget"};
  if (config.min_delay != config.max_delay || config.max_delay > 1)
    throw ConfigError{"explorer requires a fixed message delay of 0 or 1 "
                      "(min_delay == max_delay <= 1): variable delays consume link "
                      "randomness in send order, and a delay >= 2 breaks the "
                      "commutation of a send with an unrelated step (the relative "
                      "delay left after the pair differs between orders)"};
  if (config.partition.has_value())
    throw ConfigError{"explorer does not support clock-indexed partition windows "
                      "(delivery re-draws make every crossing send clock-"
                      "dependent); use explore_faults.partition_mask, whose "
                      "toggles the explorer schedules itself"};
  for (const auto& c : config.crash_at)
    if (c.has_value() && *c != 0)
      throw ConfigError{"explorer supports crash plans only at step 0 (initially-"
                        "dead processes): a crash at step t makes every step before "
                        "t dependent on the clock. For a crash at an explorer-"
                        "chosen step, list the process in explore_faults.crashes"};
}

namespace {

constexpr std::uint64_t pid_bit(Pid p) noexcept { return 1ULL << p.index(); }

/// A retired branch of a node: the process and the footprint of the step it
/// performed when its branch was explored (needed to decide what wakes it).
struct SleepEntry {
  Pid pid;
  StepFootprint step;
};

/// A process asleep for the current branch. `step` points into the owning
/// node's slept_siblings, which stay put for the whole attempt: siblings are
/// only added between attempts, and moving a Node keeps its vectors'
/// buffers.
struct Sleeper {
  Pid pid;
  const StepFootprint* step;
};

/// A vector whose popped or cleared elements stay constructed, so each keeps
/// its own vectors' capacity for the next push: the walker's nodes, sleep
/// entries and aggregates stop allocating once the walk has been as deep
/// and as wide as it gets.
template <class T>
class ReusedVec {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  T& operator[](std::size_t i) noexcept { return items_[i]; }
  T& back() noexcept { return items_[size_ - 1]; }
  T* begin() noexcept { return items_.data(); }
  T* end() noexcept { return items_.data() + size_; }

  /// A new last element, holding whatever its last user left in it.
  T& push() {
    if (size_ == items_.size()) items_.emplace_back();
    return items_[size_++];
  }
  void pop_back() noexcept { --size_; }
  void clear() noexcept { size_ = 0; }

 private:
  std::vector<T> items_;
  std::size_t size_ = 0;
};

/// Append-only storage in fixed-size chunks, addressed by a 32-bit index.
/// Growth adds a chunk and never moves what is stored, so a walk's peak
/// memory is what the cache holds rather than twice that during a copy.
/// clear() keeps the chunks for the next walk.
template <class T>
class ChunkArena {
 public:
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  T& operator[](std::uint32_t i) noexcept { return chunks_[i >> kBits][i & kMask]; }
  const T& operator[](std::uint32_t i) const noexcept { return chunks_[i >> kBits][i & kMask]; }

  std::uint32_t push_back(const T& v) {
    MM_ASSERT_MSG(size_ != kFull, "DPOR state cache arena exhausted (2^32 records)");
    if ((size_ >> kBits) == chunks_.size())
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunk));
    (*this)[size_] = v;
    return size_++;
  }
  void clear() noexcept { size_ = 0; }

 private:
  static constexpr std::uint32_t kBits = 12;
  static constexpr std::uint32_t kChunk = 1U << kBits;
  static constexpr std::uint32_t kMask = kChunk - 1;
  static constexpr std::uint32_t kFull = ~std::uint32_t{0};
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

/// The state cache: every decision point the walk opened, keyed by the
/// canonical state hash. An open-addressing slot table (linear probing on
/// the already-mixed low word, grown at half load) maps a state to its
/// chain of entries, kept in insertion order so a probe meets them in the
/// order they were opened. A closed entry packs its subtree's per-pid
/// aggregate into two arenas: one record per pid with the destinations as a
/// mask and the flags and fault masks inline, and the register keys, reads
/// then writes, in a shared key arena.
class StateCache {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Entry {
    std::uint64_t sleep_mask = 0;
    std::uint32_t next = kNone;  ///< the state's next entry, in insertion order
    std::uint32_t agg = kNone;   ///< first packed footprint; kNone while open
    std::uint32_t agg_size = 0;

    /// The owning node is still on the exploration stack.
    [[nodiscard]] bool open() const noexcept { return agg == kNone; }
  };
  static_assert(sizeof(Entry) == 24, "docs/RUNTIME.md gives the entry size");

  StateCache() : slots_(kInitialSlots) {}

  /// Forget every state, keeping the slot table's size and the arenas'
  /// chunks. The table's size only shapes the probe sequences: a cleared
  /// cache finds, opens and chains entries exactly as a fresh one does.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    occupied_ = 0;
    entries_.clear();
    packed_.clear();
    keys_.clear();
  }

  /// The slot holding `h`'s chain, or the empty slot where open() would
  /// put it. Valid until the next open().
  [[nodiscard]] std::size_t find(StateHash h) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h.lo) & mask;
    while (slots_[i].head != kNone && (slots_[i].lo != h.lo || slots_[i].hi != h.hi))
      i = (i + 1) & mask;
    return i;
  }

  /// First entry of the chain at `slot` (kNone for an unseen state).
  [[nodiscard]] std::uint32_t head(std::size_t slot) const noexcept {
    return slots_[slot].head;
  }
  [[nodiscard]] const Entry& entry(std::uint32_t e) const noexcept { return entries_[e]; }

  /// Append an open entry to the chain at `slot`, which find(h) returned.
  std::uint32_t open(std::size_t slot, StateHash h, const Entry& e) {
    const std::uint32_t id = entries_.push_back(e);
    Slot& s = slots_[slot];
    if (s.head != kNone) {
      entries_[s.tail].next = id;
      s.tail = id;
      return id;
    }
    s = Slot{h.lo, h.hi, id, id};
    if (2 * ++occupied_ > slots_.size()) grow();
    return id;
  }

  /// Close entry `e` with its subtree's per-pid aggregate.
  void close(std::uint32_t e, std::span<const StepFootprint> agg) {
    Entry& entry = entries_[e];
    entry.agg = packed_.size();
    entry.agg_size = static_cast<std::uint32_t>(agg.size());
    for (const StepFootprint& f : agg) {
      MM_ASSERT(f.pid.value() <= 0xffff);
      Packed p{};
      p.keys = keys_.size();
      for (const runtime::RegKey k : f.reads) keys_.push_back(k);
      for (const runtime::RegKey k : f.writes) keys_.push_back(k);
      p.n_reads = static_cast<std::uint32_t>(f.reads.size());
      p.n_writes = static_cast<std::uint32_t>(f.writes.size());
      for (const Pid d : f.send_to) p.send_mask |= pid_bit(d);
      p.crash_mask = f.crash_mask;
      p.drop_mask = f.drop_mask;
      p.part_mask = f.part_mask;
      p.pid = static_cast<std::uint16_t>(f.pid.value());
      p.flags = static_cast<std::uint8_t>(
          (f.drained ? kDrained : 0) | (f.drew_rand ? kDrewRand : 0) |
          (f.observed_clock ? kObservedClock : 0) | (f.finishes ? kFinishes : 0) |
          (f.part_toggle ? kPartToggle : 0));
      packed_.push_back(p);
    }
  }

  /// Unpack closed entry `e`'s aggregate into `out`, whose elements keep
  /// their vectors' capacity from one hit to the next.
  std::span<const StepFootprint> unpack(std::uint32_t e,
                                        std::vector<StepFootprint>& out) const {
    const Entry& entry = entries_[e];
    if (out.size() < entry.agg_size) out.resize(entry.agg_size);
    for (std::uint32_t i = 0; i < entry.agg_size; ++i) {
      const Packed& p = packed_[entry.agg + i];
      StepFootprint& f = out[i];
      f.clear(Pid{p.pid});
      std::uint32_t k = p.keys;
      for (const std::uint32_t end = k + p.n_reads; k != end; ++k)
        f.reads.push_back(keys_[k]);
      for (const std::uint32_t end = k + p.n_writes; k != end; ++k)
        f.writes.push_back(keys_[k]);
      for (std::uint64_t m = p.send_mask; m != 0; m &= m - 1)
        f.send_to.push_back(Pid{static_cast<std::uint32_t>(std::countr_zero(m))});
      f.drained = (p.flags & kDrained) != 0;
      f.drew_rand = (p.flags & kDrewRand) != 0;
      f.observed_clock = (p.flags & kObservedClock) != 0;
      f.finishes = (p.flags & kFinishes) != 0;
      f.part_toggle = (p.flags & kPartToggle) != 0;
      f.crash_mask = p.crash_mask;
      f.drop_mask = p.drop_mask;
      f.part_mask = p.part_mask;
    }
    return {out.data(), entry.agg_size};
  }

 private:
  struct Slot {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint32_t head = kNone;  ///< kNone: empty
    std::uint32_t tail = kNone;
  };

  /// One pid's aggregate footprint in a closed entry.
  struct Packed {
    std::uint64_t send_mask;
    std::uint64_t crash_mask;
    std::uint64_t drop_mask;
    std::uint64_t part_mask;
    std::uint32_t keys;  ///< first key in keys_: n_reads reads, then n_writes writes
    std::uint32_t n_reads;
    std::uint32_t n_writes;
    std::uint16_t pid;
    std::uint8_t flags;
  };

  static constexpr std::uint8_t kDrained = 1;
  static constexpr std::uint8_t kDrewRand = 2;
  static constexpr std::uint8_t kObservedClock = 4;
  static constexpr std::uint8_t kFinishes = 8;
  static constexpr std::uint8_t kPartToggle = 16;
  static constexpr std::size_t kInitialSlots = 1024;

  void grow() {
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    for (const Slot& s : old)
      if (s.head != kNone) slots_[find(StateHash{s.lo, s.hi})] = s;
  }

  std::vector<Slot> slots_;
  std::size_t occupied_ = 0;  ///< occupied slots
  ChunkArena<Entry> entries_;
  ChunkArena<Packed> packed_;
  ChunkArena<runtime::RegKey> keys_;
};

/// One decision point on the exploration stack.
struct Node {
  std::uint64_t enabled_mask = 0;  ///< runnable pids at this point
  std::uint64_t backtrack_mask = 0;  ///< pids the race scan demands we try
  std::uint64_t done_mask = 0;       ///< pids whose branches are fully explored
  std::uint64_t sleep_entry_mask = 0;
  ReusedVec<SleepEntry> slept_siblings;  ///< retired branches (sleep for later ones)
  Pid chosen = Pid::none();
  StepFootprint step;            ///< footprint of executing `chosen` (this branch)
  ReusedVec<StepFootprint> agg;  ///< per-pid union over the explored subtree
  std::uint32_t cache_entry = StateCache::kNone;  ///< the state's entry, if it opened one
};

static_assert(std::is_nothrow_move_constructible_v<Node>,
              "stack_ growth must move nodes, or Sleeper pointers dangle");

/// Union `s` into the per-pid aggregate; a new pid's footprint is copied
/// into a reused element, keeping that element's capacity.
void merge_agg(ReusedVec<StepFootprint>& agg, const StepFootprint& s) {
  for (StepFootprint& a : agg) {
    if (a.pid == s.pid) {
      a.merge(s);
      return;
    }
  }
  agg.push() = s;
}

void merge_agg_all(ReusedVec<StepFootprint>& agg, std::span<const StepFootprint> other) {
  for (const StepFootprint& s : other) merge_agg(agg, s);
}

// Vector clocks are rows of n_procs entries in one flat buffer.
bool clock_leq(const std::uint32_t* a, const std::uint32_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] > b[i]) return false;
  return true;
}

void clock_join(std::uint32_t* into, const std::uint32_t* other, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) into[i] = std::max(into[i], other[i]);
}

using MakeFn = std::function<std::unique_ptr<SimRuntime>()>;
using VerifyFn = std::function<void(SimRuntime&)>;

// ---------------------------------------------------------------------------
// The DPOR walker
// ---------------------------------------------------------------------------

class Walker {
 public:
  /// `n_procs` is the schedule width (real processes, then fault
  /// pseudo-processes). `fault_fps` holds the static footprints of the
  /// pseudo-processes, indexed by pseudo offset (pid = n_real + offset):
  /// what a fault WOULD touch is known without executing it, which is what
  /// lets the race scan schedule never-fired faults (see the
  /// enabled-and-dependent clause in race_scan).
  ///
  /// Inside a FiberStackRecycler scope the walker adopts the buffers the
  /// last walk on the thread parked (stack nodes, state cache, scan and
  /// sleep scratch), and parks them again when it is destroyed.
  Walker(const MakeFn& make, const VerifyFn& verify, const DporOptions& opt,
         std::size_t n_procs, std::size_t n_real, std::vector<StepFootprint> fault_fps)
      : make_(make),
        verify_(verify),
        opt_(opt),
        n_procs_(n_procs),
        n_real_(n_real),
        fault_fps_(std::move(fault_fps)),
        storage_(take_storage()),
        stack_(storage_->stack),
        cache_(storage_->cache),
        hit_agg_(storage_->hit_agg),
        cur_sleep_(storage_->cur_sleep),
        scan_(storage_->scan),
        finals_(storage_->finals) {
    for (std::size_t j = 0; j < fault_fps_.size(); ++j)
      pseudo_mask_ |= 1ULL << (n_real_ + j);
  }

  ~Walker() { FiberStackRecycler::park(storage_); }
  Walker(const Walker&) = delete;
  Walker& operator=(const Walker&) = delete;

  ExploreResult run() {
    result_.all_runs_completed = true;
    Exhaustiveness covered = Exhaustiveness::kBudgetTruncated;
    while (result_.runs < opt_.max_runs) {
      attempt();
      if (!advance()) {
        covered = Exhaustiveness::kFull;
        break;
      }
    }
    detail::finish_result(result_, covered, finals_);
    return std::move(result_);
  }

 private:
  /// Why the policy ended an attempt early (kNone: it ran to the end).
  enum class Stop : std::uint8_t { kNone, kSleepBlocked, kCacheHit };

  // -- one schedule replay ---------------------------------------------------

  void attempt() {
    auto rt = make_();
    rt->set_footprint_recording(true);
    if (opt_.idle_slice_collapse) rt->set_idle_slice_collapse(true);
    rt_ = rt.get();
    depth_ = 0;
    cur_sleep_.clear();
    pending_ = false;
    stop_ = Stop::kNone;
    pruned_agg_ = {};
    rt->set_schedule_policy([this](const std::vector<Pid>& runnable) { return decide(runnable); });

    const bool completed = rt->run_until_all_done(opt_.max_steps_per_run);
    const bool aborted = stop_ != Stop::kNone;
    if (stop_ == Stop::kSleepBlocked) {
      ++result_.runs_pruned_by_sleep_set;
    } else if (stop_ == Stop::kCacheHit) {
      ++result_.runs_pruned_by_state_cache;
      // The pruned subtree counts as explored below the current node.
      if (!stack_.empty()) merge_agg_all(stack_.back().agg, pruned_agg_);
    }
    finish_pending_step();
    StateHash final_state{};
    if (completed) final_state = rt->state_hash();
    rt->shutdown();
    rt->rethrow_process_error();
    if (!aborted) {
      if (completed)
        finals_.push_back(final_state);
      else
        result_.all_runs_completed = false;
      verify_(*rt);
    }
    ++result_.runs;
    race_scan(pruned_agg_);
    if (pseudo_mask_ != 0 && !stack_.empty()) {
      // Terminal fault placements: a fault still enabled past its last
      // dependent step never meets the race scan, yet firing it still
      // changes the final state (budget, toggle flags, queue contents), so
      // the final-state set — and any oracle reading metrics — would
      // diverge from the DFS baseline without this. Demand every fault
      // enabled at the attempt's last decision as a sibling branch there;
      // placements at earlier independent positions commute into this one.
      Node& last = stack_.back();
      last.backtrack_mask |= last.enabled_mask & pseudo_mask_;
    }
    rt_ = nullptr;
  }

  /// The schedule policy: replay the stack's chosen branches, then extend
  /// with fresh nodes until done or pruned. A prune returns
  /// SimRuntime::kStopRun, which abandons the replay; stop_ records why.
  std::size_t decide(const std::vector<Pid>& runnable) {
    finish_pending_step();
    const std::size_t d = depth_;
    if (d < stack_.size()) return decide_replay(runnable, d);
    return decide_extend(runnable);
  }

  std::size_t decide_replay(const std::vector<Pid>& runnable, std::size_t d) {
    Node& node = stack_[d];
    MM_ASSERT_MSG(node.enabled_mask == mask_of(runnable),
                  "DPOR replay diverged: enabled set changed");
    // Refresh the arriving sleep set (identical for an unchanged prefix;
    // freshly computed for the branch being re-entered), then add this
    // node's retired siblings — they sleep for the current branch.
    node.sleep_entry_mask = sleep_mask();
    for (const SleepEntry& s : node.slept_siblings) cur_sleep_.push_back({s.pid, &s.step});
    const std::size_t idx = index_of(runnable, node.chosen);
    MM_ASSERT_MSG(idx < runnable.size(), "DPOR replay diverged: chosen pid not runnable");
    pending_ = true;
    ++depth_;
    return idx;
  }

  std::size_t decide_extend(const std::vector<Pid>& runnable) {
    const std::uint64_t enabled = mask_of(runnable);
    const std::uint64_t sleep_entry = sleep_mask();

    StateHash state{};
    std::size_t slot = 0;
    if (opt_.state_cache) {
      state = rt_->state_hash();
      slot = cache_.find(state);
      for (std::uint32_t e = cache_.head(slot); e != StateCache::kNone;
           e = cache_.entry(e).next) {
        const StateCache::Entry& entry = cache_.entry(e);
        // The entry covers this node only if it explored at least as much:
        // its sleep set must be a subset of ours.
        if ((entry.sleep_mask & ~sleep_entry) != 0) continue;
        // Open entry: an ancestor on the current path has this very state —
        // the schedule cycled (e.g. a collapsed spin); its exploration is
        // this exploration. Closed entry: a finished subtree; replay its
        // aggregate footprints for race detection and stop.
        if (entry.open()) return stop(Stop::kCacheHit, {});
        return stop(Stop::kCacheHit, cache_.unpack(e, hit_agg_));
      }
    }

    Pid chosen = Pid::none();
    for (const Pid p : runnable) {
      if ((sleep_entry & pid_bit(p)) == 0) {
        chosen = p;
        break;
      }
    }
    // Every enabled process is asleep: each of their next steps was fully
    // explored from an equivalent prefix. Nothing new below, and no entry
    // opens: the node never joins the stack.
    if (chosen.is_none()) return stop(Stop::kSleepBlocked, {});

    // A node popped earlier is reused: every field is set here, and its
    // vectors are emptied with their capacity kept.
    Node& node = stack_.push();
    node.enabled_mask = enabled;
    node.backtrack_mask = pid_bit(chosen);
    node.done_mask = 0;
    node.sleep_entry_mask = sleep_entry;
    node.slept_siblings.clear();
    node.chosen = chosen;
    node.step.clear(Pid::none());
    node.agg.clear();
    node.cache_entry =
        opt_.state_cache ? cache_.open(slot, state, {sleep_entry}) : StateCache::kNone;

    pending_ = true;
    ++depth_;
    return index_of(runnable, chosen);
  }

  /// Record the footprint of the slice that just ran (the branch of the
  /// last decision, stack_[depth_ - 1]) and filter the sleep set: the
  /// executed step wakes every sleeper whose recorded step depends on it.
  void finish_pending_step() {
    if (!pending_) return;
    pending_ = false;
    Node& node = stack_[depth_ - 1];
    node.step = rt_->last_footprint();
    std::erase_if(cur_sleep_, [&](const Sleeper& e) {
      return e.pid == node.chosen || footprints_dependent(node.step, *e.step);
    });
  }

  [[nodiscard]] std::uint64_t sleep_mask() const {
    std::uint64_t m = 0;
    for (const Sleeper& e : cur_sleep_) m |= pid_bit(e.pid);
    return m;
  }

  /// End the replay: `agg` is the closed-entry aggregate to replay as
  /// pseudo-steps in the race scan (empty for sleep blocks and open-entry
  /// cycle prunes).
  std::size_t stop(Stop why, std::span<const StepFootprint> agg) {
    stop_ = why;
    pruned_agg_ = agg;
    return SimRuntime::kStopRun;
  }

  static std::uint64_t mask_of(const std::vector<Pid>& runnable) {
    std::uint64_t m = 0;
    for (const Pid p : runnable) m |= pid_bit(p);
    return m;
  }

  static std::size_t index_of(const std::vector<Pid>& runnable, Pid want) {
    for (std::size_t i = 0; i < runnable.size(); ++i)
      if (runnable[i] == want) return i;
    return runnable.size();
  }

  // -- race detection --------------------------------------------------------

  /// race_scan's working state, kept across attempts so each scan reuses
  /// the last one's buffers instead of allocating its own.
  struct Scan {
    /// Per-register access index. Entries persist across scans and count
    /// only when stamped with the current scan's epoch; a stale one reads
    /// as empty.
    struct RegIndex {
      std::uint64_t epoch = 0;
      std::ptrdiff_t last_write = -1;
      std::vector<std::ptrdiff_t> reads_since;
    };

    std::vector<std::uint32_t> clocks;  ///< vector clock per step, n_procs wide
    std::vector<std::ptrdiff_t> prog_pred;
    std::vector<std::uint32_t> own_count;
    std::unordered_map<std::uint64_t, RegIndex> regs;  ///< by RegKey bits
    std::uint64_t epoch = 0;
    std::vector<std::ptrdiff_t> last_send;
    std::vector<std::ptrdiff_t> last_drain;
    std::vector<std::vector<std::ptrdiff_t>> sends_since_drain;
    std::vector<std::ptrdiff_t> last_crash;
    std::vector<std::ptrdiff_t> toggles;
    std::vector<std::ptrdiff_t> cands;

    void reset(std::size_t n_procs, std::size_t n_steps) {
      clocks.resize(n_steps * n_procs);  // each row is written before it is read
      prog_pred.assign(n_procs, -1);
      own_count.assign(n_procs, 0);
      last_send.assign(n_procs, -1);
      last_drain.assign(n_procs, -1);
      last_crash.assign(n_procs, -1);
      sends_since_drain.resize(n_procs);
      for (std::vector<std::ptrdiff_t>& v : sends_since_drain) v.clear();
      toggles.clear();
      ++epoch;
    }

    RegIndex& reg(runtime::RegKey key) {
      RegIndex& r = regs[key.bits()];
      if (r.epoch != epoch) {
        r.epoch = epoch;
        r.last_write = -1;
        r.reads_since.clear();
      }
      return r;
    }
  };

  /// Forward scan over this attempt's executed steps (step k is
  /// stack_[k].step): find dependent pairs not already ordered transitively
  /// (vector clocks over per-object last accesses) and mark the later step's
  /// pid for backtracking at the earlier decision. `pruned_agg`, when a
  /// closed cache entry ended the attempt, stands in for the pruned subtree:
  /// its per-pid aggregates are matched against every executed step with no
  /// transitivity filter (conservative).
  void race_scan(std::span<const StepFootprint> pruned_agg) {
    const std::size_t n_procs = n_procs_;
    const std::size_t n_steps = stack_.size();
    Scan& sc = scan_;

    bool any_clock = false;
    for (const Node& nd : stack_) any_clock = any_clock || nd.step.observed_clock;

    sc.reset(n_procs, n_steps);
    std::uint32_t* const clocks = sc.clocks.data();
    std::vector<std::ptrdiff_t>& prog_pred = sc.prog_pred;
    std::vector<std::ptrdiff_t>& last_send = sc.last_send;
    std::vector<std::ptrdiff_t>& last_drain = sc.last_drain;
    std::vector<std::vector<std::ptrdiff_t>>& sends_since_drain = sc.sends_since_drain;
    // Fault pseudo-steps. Drops chain like writes (every drop depends on the
    // one before it through the shared budget), so the latest suffices; a
    // crash is covered by the target's program order plus the send chain to
    // it; toggles are at most two per run and get paired directly.
    std::vector<std::ptrdiff_t>& last_crash = sc.last_crash;
    std::ptrdiff_t last_drop = -1;
    std::vector<std::ptrdiff_t>& toggles = sc.toggles;
    std::vector<std::ptrdiff_t>& cands = sc.cands;

    for (std::size_t k = 0; k < n_steps; ++k) {
      const StepFootprint& fp = stack_[k].step;
      const std::size_t p = fp.pid.index();
      cands.clear();
      if (any_clock) {
        // Rare fallback (a body called Env::now()): a clock observation
        // depends on everything, so enumerate dependent pairs directly.
        for (std::size_t j = 0; j < k; ++j)
          if (footprints_dependent(stack_[j].step, fp)) cands.push_back(static_cast<std::ptrdiff_t>(j));
      } else {
        for (const runtime::RegKey r : fp.reads) {
          const Scan::RegIndex& reg = sc.reg(r);
          if (reg.last_write >= 0) cands.push_back(reg.last_write);
        }
        for (const runtime::RegKey w : fp.writes) {
          const Scan::RegIndex& reg = sc.reg(w);
          if (reg.last_write >= 0) cands.push_back(reg.last_write);
          cands.insert(cands.end(), reg.reads_since.begin(), reg.reads_since.end());
        }
        for (const Pid d : fp.send_to) {
          if (last_send[d.index()] >= 0) cands.push_back(last_send[d.index()]);
          if (last_drain[d.index()] >= 0) cands.push_back(last_drain[d.index()]);
          if (last_crash[d.index()] >= 0) cands.push_back(last_crash[d.index()]);
        }
        if (fp.drained)
          cands.insert(cands.end(), sends_since_drain[p].begin(), sends_since_drain[p].end());
        if (fp.crash_mask != 0) {
          // Program order covers every earlier step of the target; the
          // send-to-target chain covers every earlier delivery to it.
          for (std::uint64_t m = fp.crash_mask; m != 0; m &= m - 1) {
            const auto t = static_cast<std::size_t>(std::countr_zero(m));
            if (prog_pred[t] >= 0) cands.push_back(prog_pred[t]);
            if (last_send[t] >= 0) cands.push_back(last_send[t]);
          }
        }
        if (fp.drop_mask != 0) {
          if (last_drop >= 0) cands.push_back(last_drop);
          for (std::uint64_t m = fp.drop_mask; m != 0; m &= m - 1) {
            const auto d = static_cast<std::size_t>(std::countr_zero(m));
            if (last_send[d] >= 0) cands.push_back(last_send[d]);
            if (last_drain[d] >= 0) cands.push_back(last_drain[d]);
          }
        }
        if (fp.part_toggle) {
          // A toggle fires at most once per run: pair it against every
          // earlier step directly instead of growing the index structures.
          for (std::size_t j = 0; j < k; ++j)
            if (footprints_dependent(stack_[j].step, fp))
              cands.push_back(static_cast<std::ptrdiff_t>(j));
        } else {
          for (const std::ptrdiff_t t : toggles)
            if (footprints_dependent(stack_[static_cast<std::size_t>(t)].step, fp))
              cands.push_back(t);
        }
      }
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

      std::uint32_t* const clk = clocks + k * n_procs;
      if (prog_pred[p] >= 0) {
        std::copy_n(clocks + static_cast<std::size_t>(prog_pred[p]) * n_procs, n_procs, clk);
      } else {
        std::fill_n(clk, n_procs, 0U);
      }
      for (const std::ptrdiff_t j : cands) {
        const auto pre = static_cast<std::size_t>(j);
        if (stack_[pre].step.pid == fp.pid) continue;
        const std::uint32_t* const pre_clk = clocks + pre * n_procs;
        // Not ordered through program order + earlier conflicts alone ⇒ the
        // pair is a reversible race: demand the alternative order.
        if (!clock_leq(pre_clk, clk, n_procs)) flag_race(pre, fp.pid);
        clock_join(clk, pre_clk, n_procs);
      }
      // Enabled-and-dependent clause for fault pseudo-processes. The pair
      // scan above only sees EXECUTED steps, which suffices for real
      // processes (they run to completion in every attempt) but not for a
      // fault that never fired: it leaves no footprint to race with, and a
      // "full" verdict would silently exclude it. Its static footprint is
      // known without executing it, so probe every fault enabled at this
      // decision against the step taken here (Flanagan–Godefroid's "enabled
      // and dependent" persistent-set clause). Firing slides forward across
      // independent steps, and enablement only ever ends at a dependent
      // step or at run end (terminal placements are demanded in attempt()),
      // so anchoring at dependent steps covers every distinct placement.
      if (pseudo_mask_ != 0) {
        std::uint64_t pm = stack_[k].enabled_mask & pseudo_mask_;
        while (pm != 0) {
          const auto q = static_cast<std::uint32_t>(std::countr_zero(pm));
          pm &= pm - 1;
          if (q == fp.pid.index()) continue;
          if (footprints_dependent(fault_fps_[q - n_real_], fp)) flag_race(k, Pid{q});
        }
      }

      clk[p] = ++sc.own_count[p];
      prog_pred[p] = static_cast<std::ptrdiff_t>(k);

      for (const runtime::RegKey r : fp.reads)
        sc.reg(r).reads_since.push_back(static_cast<std::ptrdiff_t>(k));
      for (const runtime::RegKey w : fp.writes) {
        Scan::RegIndex& reg = sc.reg(w);
        reg.last_write = static_cast<std::ptrdiff_t>(k);
        reg.reads_since.clear();
      }
      for (const Pid d : fp.send_to) {
        last_send[d.index()] = static_cast<std::ptrdiff_t>(k);
        sends_since_drain[d.index()].push_back(static_cast<std::ptrdiff_t>(k));
      }
      if (fp.drained) {
        last_drain[p] = static_cast<std::ptrdiff_t>(k);
        sends_since_drain[p].clear();
      }
      if (fp.crash_mask != 0)
        for (std::uint64_t m = fp.crash_mask; m != 0; m &= m - 1)
          last_crash[static_cast<std::size_t>(std::countr_zero(m))] =
              static_cast<std::ptrdiff_t>(k);
      if (fp.drop_mask != 0) {
        last_drop = static_cast<std::ptrdiff_t>(k);
        // A drop is a send-shaped AND drain-shaped touch of d's queue: index
        // it like a send so later sends/drains to d candidate it.
        for (std::uint64_t m = fp.drop_mask; m != 0; m &= m - 1) {
          const auto d = static_cast<std::size_t>(std::countr_zero(m));
          last_send[d] = static_cast<std::ptrdiff_t>(k);
          sends_since_drain[d].push_back(static_cast<std::ptrdiff_t>(k));
        }
      }
      if (fp.part_toggle) toggles.push_back(static_cast<std::ptrdiff_t>(k));
    }

    for (const StepFootprint& ghost : pruned_agg) {
      for (std::size_t k = 0; k < n_steps; ++k) {
        const StepFootprint& s = stack_[k].step;
        if (s.pid != ghost.pid && footprints_dependent(s, ghost)) flag_race(k, ghost.pid);
      }
    }
  }

  /// Demand `later_pid` as a branch at decision `at`, or every enabled pid
  /// when `later_pid` is not enabled there.
  void flag_race(std::size_t at, Pid later_pid) {
    Node& node = stack_[at];
    if ((node.enabled_mask & pid_bit(later_pid)) != 0) {
      node.backtrack_mask |= pid_bit(later_pid);
    } else {
      node.backtrack_mask |= node.enabled_mask;
    }
  }

  // -- backtracking ----------------------------------------------------------

  /// Retire the branch just explored and move to the next backtrack
  /// candidate, popping exhausted nodes (closing their cache entries).
  /// False when the whole tree is exhausted.
  bool advance() {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      if ((node.done_mask & pid_bit(node.chosen)) == 0) {
        node.done_mask |= pid_bit(node.chosen);
        SleepEntry& slept = node.slept_siblings.push();
        slept.pid = node.chosen;
        slept.step = node.step;
        merge_agg(node.agg, node.step);
      }
      std::uint64_t cand = node.backtrack_mask & node.enabled_mask & ~node.done_mask;
      bool chose = false;
      while (cand != 0) {
        const auto idx = static_cast<std::uint32_t>(std::countr_zero(cand));
        const Pid q{idx};
        if (opt_.sleep_sets && (node.sleep_entry_mask & pid_bit(q)) != 0) {
          // Asleep on entry: this step's subtree was explored from an
          // equivalent prefix — skip without a replay.
          node.done_mask |= pid_bit(q);
          ++result_.runs_pruned_by_sleep_set;
          cand &= ~pid_bit(q);
          continue;
        }
        node.chosen = q;
        chose = true;
        break;
      }
      if (chose) return true;
      if (node.cache_entry != StateCache::kNone) cache_.close(node.cache_entry, node.agg);
      if (stack_.size() > 1) merge_agg_all(stack_[stack_.size() - 2].agg, node.agg);
      stack_.pop_back();
    }
    return false;
  }

  /// The walker's buffers, kept across walks on a thread (see the
  /// constructor). Each walk starts them empty.
  struct Storage {
    ReusedVec<Node> stack;
    StateCache cache;
    std::vector<StepFootprint> hit_agg;
    std::vector<Sleeper> cur_sleep;
    Scan scan;
    std::vector<StateHash> finals;
  };

  static std::unique_ptr<Storage> take_storage() {
    std::unique_ptr<Storage> s = FiberStackRecycler::take<Storage>();
    if (s == nullptr) return std::make_unique<Storage>();
    s->stack.clear();
    s->cache.clear();
    s->finals.clear();
    return s;
  }

  const MakeFn& make_;
  const VerifyFn& verify_;
  const DporOptions& opt_;
  const std::size_t n_procs_;
  const std::size_t n_real_;
  const std::vector<StepFootprint> fault_fps_;  ///< static, by pseudo offset
  std::uint64_t pseudo_mask_ = 0;

  ExploreResult result_;  ///< final_states is filled from finals_ at the end
  std::unique_ptr<Storage> storage_;  ///< owns what the references below name
  ReusedVec<Node>& stack_;
  StateCache& cache_;
  std::vector<StepFootprint>& hit_agg_;  ///< a closed entry's aggregate, unpacked
  std::vector<Sleeper>& cur_sleep_;      ///< per attempt
  Scan& scan_;
  std::vector<StateHash>& finals_;       ///< final state of each completed run

  // Per-attempt walk state.
  SimRuntime* rt_ = nullptr;
  std::size_t depth_ = 0;  ///< stack decisions taken
  bool pending_ = false;  ///< stack_[depth_ - 1]'s slice ran, its footprint unread
  Stop stop_ = Stop::kNone;
  std::span<const StepFootprint> pruned_agg_;  ///< see stop()
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

ExploreResult explore_dpor(const MakeFn& make, const VerifyFn& verify,
                           const DporOptions& options) {
  // Every replay builds and destroys a SimRuntime: recycle its fiber stacks
  // and containers, and the walker's buffers, for the whole walk.
  const FiberStackRecycler recycler;
  std::size_t n_procs = 0;
  std::size_t n_real = 0;
  std::vector<StepFootprint> fault_fps;
  {
    const auto probe = make();
    validate_explorable(probe->config());
    // Pseudo-processes (explore_faults) take scheduling slots of their own,
    // so every per-pid table and mask spans the full schedule width.
    n_procs = probe->sched_width();
    n_real = probe->config().n();
    fault_fps.resize(n_procs - n_real);
    for (std::size_t j = 0; j < fault_fps.size(); ++j) probe->fault_footprint(j, fault_fps[j]);
  }

  return Walker(make, verify, options, n_procs, n_real, std::move(fault_fps)).run();
}

}  // namespace mm::check
