// Per-device datapath flight recorder.
//
// A bounded ring of per-packet verdict records — flow key, redirect and
// stage outcome, drop reason, sim time — that a device appends to on every
// Process() exit when a recorder is attached. The design mirrors the
// tracer's cheap-when-unsinked contract: a device holds a raw
// FlightRecorder pointer that defaults to nullptr, so the disabled-mode
// cost on the datapath hot path is one branch. Records are raw integers
// (no strings, no allocation per record beyond ring growth to capacity),
// which keeps the enabled-mode cost to a handful of stores.
//
// The ring follows core's EventBuffer convention: fixed capacity, oldest
// record overwritten first, a dropped counter so forensics can tell a
// quiet device from a wrapped ring.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/drop_reason.h"
#include "common/types.h"
#include "common/units.h"

namespace adtc::obs {

/// One datapath decision. All fields are plain integers so recording is
/// branch-light and the ring is trivially copyable storage.
struct VerdictRecord {
  SimTime at = 0;           ///< Sim time the verdict was rendered.
  NodeId node = kInvalidNode;  ///< Device that rendered it.
  std::uint32_t src = 0;    ///< Flow key: source address.
  std::uint32_t dst = 0;    ///< Flow key: destination address.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  DatapathDropReason drop_reason = DatapathDropReason::kNone;
  bool dropped = false;
  bool redirected = false;  ///< Crossed a redirect into stage 2.
  bool stage2 = false;      ///< Stage-2 module path executed.
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 14)
      : capacity_(capacity > 0 ? capacity : 1) {}

  void Record(const VerdictRecord& record) {
    ++total_;
    if (ring_.size() < capacity_) {
      ring_.push_back(record);
      return;
    }
    ring_[head_] = record;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  /// Total records ever offered, including overwritten ones.
  std::uint64_t total_recorded() const { return total_; }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped_records() const { return dropped_; }

  /// Records in arrival order (oldest first).
  std::vector<VerdictRecord> Snapshot() const;

  /// Writes the retained records as JSONL `{"type":"verdict",...}` lines
  /// — the same stream schema family as the telemetry sinks, so
  /// adtc_trace can ingest a mixed file.
  void WriteJsonl(std::ostream& out) const;

  void Clear() {
    ring_.clear();
    head_ = 0;
    total_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Oldest element once the ring is full.
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<VerdictRecord> ring_;
};

}  // namespace adtc::obs
