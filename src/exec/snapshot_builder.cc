#include "exec/snapshot_builder.h"

#include <algorithm>

#include "common/logging.h"

namespace edgelet::exec {

SnapshotBuilderActor::SnapshotBuilderActor(net::Transport* net,
                                           device::Device* dev, Config config)
    : ActorBase(net, dev, config.query_id), config_(std::move(config)) {
  replica_ = std::make_unique<ReplicaRole>(net, dev, config_.replica);
  replica_->set_on_promote([this]() {
    if (config_.trace != nullptr) {
      config_.trace->Record(this->now(),
                            TraceEventKind::kLeaderFailover,
                            this->dev()->id(), config_.partition,
                            config_.vgroup,
                            "snapshot builder rank " +
                                std::to_string(replica_->rank()) +
                                " takes over");
    }
    // Taking over: if the snapshot is ready, (re-)emit it under this
    // replica's epoch so downstream consumers get a consistent slice.
    if (complete_) EmitSliceWithResends();
  });
}

void SnapshotBuilderActor::Start() {
  if (!config_.resume_state.empty()) {
    if (!RestoreState(config_.resume_state).ok()) {
      // Undecodable resume state: start fresh rather than wedge. The
      // store's integrity checks make this unreachable in practice.
      buffer_ = data::ColumnTable();
      have_schema_ = complete_ = emitted_ = false;
      included_.clear();
      seen_contributors_.Clear();
    }
  }
  replica_->Start();
  if (config_.liveness.enabled) {
    beacon_ = std::make_unique<LivenessBeacon>(net(), dev(), config_.liveness);
    beacon_->Start();
  }
  if (complete_ && replica_->is_leader()) {
    // Resumed past completion: re-emit the durable slice — the computer
    // may never have received it (crash between checkpoint and send), and
    // dedups it if it did.
    net()->ScheduleAfter(dev()->id(), dev()->ComputeCost(buffer_.num_rows()),
                         [this]() {
                           if (defunct()) return;
                           EmitSliceWithResends();
                         });
  }
}

Bytes SnapshotBuilderActor::SerializeState() const {
  Writer w;
  w.PutBool(have_schema_);
  w.PutBool(complete_);
  w.PutBool(emitted_);
  buffer_.Serialize(&w);
  w.PutVarint(included_.size());
  for (uint64_t k : included_) w.PutU64(k);
  // Ascending, so checkpoint bytes do not depend on the hash table's
  // slot layout.
  std::vector<uint64_t> seen;
  seen.reserve(seen_contributors_.size());
  seen_contributors_.ForEach([&seen](uint64_t k) { seen.push_back(k); });
  std::sort(seen.begin(), seen.end());
  w.PutVarint(seen.size());
  for (uint64_t k : seen) w.PutU64(k);
  return w.Take();
}

Status SnapshotBuilderActor::RestoreState(const Bytes& state) {
  Reader r(state);
  auto have_schema = r.GetBool();
  if (!have_schema.ok()) return have_schema.status();
  auto complete = r.GetBool();
  if (!complete.ok()) return complete.status();
  auto emitted = r.GetBool();
  if (!emitted.ok()) return emitted.status();
  auto buffer = data::ColumnTable::Deserialize(&r);
  if (!buffer.ok()) return buffer.status();
  std::vector<uint64_t> included;
  auto ni = r.GetVarint();
  if (!ni.ok()) return ni.status();
  included.reserve(*ni);
  for (uint64_t i = 0; i < *ni; ++i) {
    auto k = r.GetU64();
    if (!k.ok()) return k.status();
    included.push_back(*k);
  }
  FlatSet64 seen;
  auto ns = r.GetVarint();
  if (!ns.ok()) return ns.status();
  for (uint64_t i = 0; i < *ns; ++i) {
    auto k = r.GetU64();
    if (!k.ok()) return k.status();
    seen.Insert(*k);
  }
  have_schema_ = *have_schema;
  complete_ = *complete;
  emitted_ = *emitted;
  buffer_ = std::move(*buffer);
  included_ = std::move(included);
  seen_contributors_ = std::move(seen);
  return Status::OK();
}

void SnapshotBuilderActor::MaybeCheckpoint(bool critical) {
  if (!config_.checkpoint) return;
  config_.checkpoint(emit_epoch(), [this]() { return SerializeState(); },
                     critical);
}

void SnapshotBuilderActor::HandleMessage(const net::Message& msg) {
  switch (msg.type) {
    case kContribution:
      OnContribution(msg);
      break;
    case kLeaderPing: {
      auto ping = LeaderPingMsg::Decode(msg.payload);
      if (ping.ok()) replica_->HandlePing(*ping);
      break;
    }
    default:
      break;
  }
}

void SnapshotBuilderActor::OnContribution(const net::Message& msg) {
  if (complete_) return;  // quota reached: later contributions are ignored
  if (!OpenSealed(msg).ok()) return;
  Reader r(opened_payload());
  uint64_t query_id = 0;
  uint64_t key = 0;
  if (!ContributionMsg::DecodeHeader(&r, &query_id, &key).ok() ||
      query_id != config_.query_id) {
    return;
  }
  auto schema = data::Schema::Deserialize(&r);
  if (!schema.ok() || !AcceptsSchema(*schema)) return;
  // Idempotence: a contributor that re-sends (store-and-forward replays)
  // is only counted once. Its key is consumed only once the contribution
  // is accepted, so a malformed one cannot lock an honest re-send out.
  if (seen_contributors_.Contains(key)) return;
  if (!have_schema_) buffer_ = data::ColumnTable(std::move(*schema));
  // All or nothing: the rows are checked before any is appended, and
  // those past the quota are dropped.
  const uint64_t before = buffer_.num_rows();
  auto contributed_rows = buffer_.AppendSerializedRows(
      &r, config_.quota > before ? config_.quota - before : 0);
  if (!contributed_rows.ok()) {
    if (!have_schema_) buffer_ = data::ColumnTable();
    return;
  }
  have_schema_ = true;
  seen_contributors_.Insert(key);
  included_.insert(included_.end(), buffer_.num_rows() - before, key);
  // Raw cleartext data is now inside this enclave: exposure accounting.
  dev()->enclave().RecordClearTextTuples(*contributed_rows,
                                         buffer_.schema().num_columns());
  MaybeEmit();
  // Quota completion is a phase transition the store must not lose.
  MaybeCheckpoint(/*critical=*/complete_);
}

bool SnapshotBuilderActor::AcceptsSchema(const data::Schema& schema) const {
  if (have_schema_) return schema == buffer_.schema();
  if (schema.num_columns() != config_.columns.size()) return false;
  for (size_t c = 0; c < config_.columns.size(); ++c) {
    if (schema.column(c).name != config_.columns[c]) return false;
  }
  return true;
}

void SnapshotBuilderActor::MaybeEmit() {
  if (complete_ || buffer_.num_rows() < config_.quota) return;
  complete_ = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSnapshotComplete,
                          dev()->id(), config_.partition, config_.vgroup,
                          std::to_string(buffer_.num_rows()) + " tuples");
  }
  if (replica_->is_leader()) {
    // Building the representative snapshot costs compute time on this
    // device class before the slice goes out.
    net()->ScheduleAfter(dev()->id(), dev()->ComputeCost(buffer_.num_rows()),
                         [this]() {
                           if (defunct()) return;
                           EmitSliceWithResends();
                         });
  }
}

void SnapshotBuilderActor::EmitSliceWithResends() {
  EmitSlice();
  ScheduleResends(net(), dev()->id(), config_.emission_resends,
                  config_.resend_interval, [this]() {
                    if (defunct()) return;
                    // Suppressed after a leadership yield: the replica that
                    // took over re-emits its own epoch's slice.
                    if (replica_->is_leader()) EmitSlice();
                  });
}

void SnapshotBuilderActor::EmitSlice() {
  emitted_ = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSliceEmitted,
                          dev()->id(), config_.partition, config_.vgroup);
  }
  // Serialized straight from the columns and dropped after the send:
  // resends re-encode rather than pin a second copy.
  Writer w;
  SnapshotSliceMsg::EncodeTo(config_.query_id, config_.partition,
                             config_.vgroup, emit_epoch(), buffer_, &w);
  SealAndSendAll(config_.computers, kSnapshotSlice, w.data());
  MaybeCheckpoint(/*critical=*/true);
}

}  // namespace edgelet::exec
