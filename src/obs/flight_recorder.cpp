#include "obs/flight_recorder.h"

#include "obs/json.h"

namespace adtc::obs {

std::vector<VerdictRecord> FlightRecorder::Snapshot() const {
  std::vector<VerdictRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::WriteJsonl(std::ostream& out) const {
  for (const VerdictRecord& r : Snapshot()) {
    JsonWriter json(out);
    json.BeginObject()
        .Field("type", "verdict")
        .Field("t_ns", static_cast<std::int64_t>(r.at))
        .Field("node", static_cast<std::uint64_t>(r.node))
        .Field("src", static_cast<std::uint64_t>(r.src))
        .Field("dst", static_cast<std::uint64_t>(r.dst))
        .Field("src_port", static_cast<std::uint64_t>(r.src_port))
        .Field("dst_port", static_cast<std::uint64_t>(r.dst_port))
        .Field("proto", static_cast<std::uint64_t>(r.protocol))
        .Field("dropped", r.dropped)
        .Field("reason", DatapathDropReasonName(r.drop_reason))
        .Field("redirected", r.redirected)
        .Field("stage2", r.stage2);
    json.EndObject();
    out << '\n';
  }
}

}  // namespace adtc::obs
