// The TSCH schedule: one or more slotframes holding cells of the CDU matrix.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "phy/wire.hpp"
#include "util/types.hpp"

namespace gttsch {

class TschSchedule;

class Slotframe {
 public:
  Slotframe(std::uint16_t handle, std::uint16_t length);
  // Non-copyable: a copy would carry the owner_ backpointer and notify
  // (or dangle into) the original schedule on mutation.
  Slotframe(const Slotframe&) = delete;
  Slotframe& operator=(const Slotframe&) = delete;

  std::uint16_t handle() const { return handle_; }
  std::uint16_t length() const { return length_; }
  std::size_t size() const { return size_; }

  /// Adds a cell; multiple cells may share a slot offset (distinct channel
  /// offsets). Returns false if the exact cell already exists.
  bool add(const Cell& cell);

  /// Removes an exactly-matching cell. Returns true if found.
  bool remove(const Cell& cell);

  /// Removes all cells matching `pred`; returns removed count.
  std::size_t remove_if(const std::function<bool(const Cell&)>& pred);

  /// Replaces every cell with `cells`, added in order under add()'s
  /// duplicate rule (so each slot's cells come out as sequential adds
  /// would leave them), as one edit: the owner is notified once, and not
  /// at all when the slotframe was and stays empty.
  void assign(const std::vector<Cell>& cells);

  const std::vector<Cell>& cells_at(std::uint16_t slot) const;

  /// All cells in slot order (flattened copy).
  std::vector<Cell> all_cells() const;

  bool slot_in_use(std::uint16_t slot) const { return !by_slot_[slot].empty(); }

 private:
  friend class TschSchedule;
  void notify_owner();

  std::uint16_t handle_;
  std::uint16_t length_;
  std::vector<std::vector<Cell>> by_slot_;
  std::size_t size_ = 0;
  TschSchedule* owner_ = nullptr;  ///< set when owned by a TschSchedule
  /// Edited since the owner last compiled this slotframe's gaps; the
  /// owner's (const) lazy compile clears it.
  mutable bool table_stale_ = true;
};

/// A node's full schedule: slotframes keyed (and prioritised) by handle.
///
/// Beyond the cell containers, the schedule maintains a compiled timetable
/// — one flat entry per slotframe in handle order, holding the slotframe's
/// length, a pointer to its cells and, per slot offset, the cyclic gap to
/// the next occupied offset — compiled lazily and per slotframe: the next
/// query after a cell edit recompiles the gaps of only the slotframes
/// edited since the last one, and only adding a slotframe
/// rebuilds the entry list. Both slot queries walk this table, so a slot
/// start costs one indexed read per slotframe: the MAC fast path uses
/// next_active_asn to jump directly to the next ASN holding at least one
/// cell instead of waking on every slot, and registers a change listener
/// so mid-run 6P/RPL schedule edits re-aim an already-armed wakeup.
class TschSchedule {
 public:
  TschSchedule() = default;
  // Non-copyable: the change listener captures the owning MAC and the
  // slotframes' owner backpointers reference this object.
  TschSchedule(const TschSchedule&) = delete;
  TschSchedule& operator=(const TschSchedule&) = delete;

  using ActiveCell = std::pair<std::uint16_t, Cell>;

  /// Returned by next_active_asn when no slotframe holds any cell.
  static constexpr Asn kNoActiveAsn = std::numeric_limits<Asn>::max();

  Slotframe& add_slotframe(std::uint16_t handle, std::uint16_t length);
  Slotframe* get(std::uint16_t handle);
  const Slotframe* get(std::uint16_t handle) const;

  bool empty() const { return frames_.empty(); }
  std::size_t slotframe_count() const { return frames_.size(); }

  /// Active cells at `asn` across all slotframes, ordered by slotframe
  /// handle (ascending = higher priority first, per Contiki-NG convention).
  /// Each entry is (slotframe handle, cell).
  std::vector<ActiveCell> active_cells(Asn asn) const;

  /// Allocation-free variant: fills `out` (cleared first) with the same
  /// contents as active_cells. The steady-state slot loop reuses one
  /// scratch vector so no allocation happens once its capacity settles.
  void active_cells_into(Asn asn, std::vector<ActiveCell>& out) const;

  /// Smallest ASN strictly greater than `after` whose slot holds at least
  /// one cell in any slotframe, or kNoActiveAsn when every slotframe is
  /// empty. This is the Contiki-NG `tsch_schedule_get_next_active_link`
  /// discipline: idle slots are never visited.
  Asn next_active_asn(Asn after) const;

  /// Total number of cells across slotframes.
  std::size_t total_cells() const;

  /// Bumped on every mutation (cell add/remove, slotframe add).
  std::uint64_t version() const { return version_; }

  /// Invoked (synchronously) after every mutation; one listener only —
  /// the owning MAC uses it to re-aim its next-active-slot wakeup.
  void set_change_listener(std::function<void()> listener);

  /// Visit every slotframe in handle order.
  void for_each(const std::function<void(Slotframe&)>& fn);
  void for_each(const std::function<void(const Slotframe&)>& fn) const;

 private:
  friend class Slotframe;
  void on_mutated();
  void on_slotframes_changed();
  /// The slot queries' fast path: one flag test once the table is current.
  void ensure_table() const {
    if (table_dirty_) compile_table();
  }
  void compile_table() const;

  /// Compiled timetable entry for one slotframe.
  struct CompiledFrame {
    std::uint16_t handle = 0;
    std::uint16_t length = 0;
    const Slotframe* frame = nullptr;
    /// gap[s]: slots from offset s forward (cyclically) to the first
    /// occupied offset, 0 when s itself holds a cell; empty when the
    /// slotframe holds no cell at all.
    std::vector<std::uint16_t> gap;
  };

  std::map<std::uint16_t, Slotframe> frames_;
  std::uint64_t version_ = 0;
  std::function<void()> change_listener_;
  mutable std::vector<CompiledFrame> table_;
  mutable bool table_dirty_ = true;       ///< some entry is out of date
  mutable bool frame_list_dirty_ = true;  ///< a slotframe came or went
};

}  // namespace gttsch
