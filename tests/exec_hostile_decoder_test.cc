// Sealed-glass decoders: a compromised but attested enclave can seal
// well-authenticated hostile bytes, so every count a decoder sizes a
// container from must be bounded by the bytes actually left. Each hostile
// payload below used to throw (std::bad_alloc / std::length_error) from a
// resize or reserve; it must come back as a Corruption status instead.

#include <gtest/gtest.h>

#include <functional>

#include "common/serialize.h"
#include "exec/protocol.h"
#include "ml/kmeans.h"
#include "query/quantile.h"

namespace edgelet::exec {
namespace {

constexpr uint64_t kHuge = uint64_t{1} << 60;

TEST(HostileDecoderTest, KMeansKnowledgeRejectsInflatedShape) {
  // Six bytes claiming k = d = 2^20: a 2^40-double centroid matrix.
  Writer w;
  w.PutVarint(uint64_t{1} << 20);
  w.PutVarint(uint64_t{1} << 20);
  ASSERT_EQ(w.size(), 6u);
  Reader r(w.data());
  EXPECT_EQ(ml::KMeansKnowledge::Deserialize(&r).status().code(),
            StatusCode::kCorruption);

  // A plausible k with a dimension the payload cannot hold.
  Writer w2;
  w2.PutVarint(2);
  w2.PutVarint(kHuge);
  for (int i = 0; i < 4; ++i) w2.PutDouble(1.0);
  Reader r2(w2.data());
  EXPECT_EQ(ml::KMeansKnowledge::Deserialize(&r2).status().code(),
            StatusCode::kCorruption);
}

// d = 0 (centroids without coordinates) is a legal shape the k-bound
// must not divide by.
TEST(HostileDecoderTest, KMeansKnowledgeKeepsZeroDimension) {
  ml::KMeansKnowledge k{{{}, {}}, {1, 2}};
  Writer w;
  k.Serialize(&w);
  Reader r(w.data());
  auto back = ml::KMeansKnowledge::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, k);
}

TEST(HostileDecoderTest, QuantileSketchRejectsInflatedLevel) {
  Writer w;
  w.PutVarint(128);    // compactor width
  w.PutVarint(5);      // items seen
  w.PutVarint(1);      // one level ...
  w.PutVarint(kHuge);  // ... claiming 2^60 retained items
  w.PutDouble(1.0);
  Reader r(w.data());
  EXPECT_EQ(query::QuantileSketch::Deserialize(&r).status().code(),
            StatusCode::kCorruption);
}

TEST(HostileDecoderTest, ClusterStatsRejectsInflatedCounts) {
  // 2^60 clusters in a handful of bytes.
  Writer clusters;
  clusters.PutVarint(kHuge);
  clusters.PutVarint(0);
  Reader r(clusters.data());
  EXPECT_EQ(ClusterStats::Deserialize(&r).status().code(),
            StatusCode::kCorruption);

  // One cluster claiming 2^60 aggregate states.
  Writer states;
  states.PutVarint(1);
  states.PutVarint(kHuge);
  for (int i = 0; i < 8; ++i) states.PutDouble(0.0);
  Reader r2(states.data());
  EXPECT_EQ(ClusterStats::Deserialize(&r2).status().code(),
            StatusCode::kCorruption);
}

// Bare aggregate states are the smallest encoding the per-state bound
// admits; the last cluster's states end exactly at the payload's end.
TEST(HostileDecoderTest, ClusterStatsAdmitsMinimalStates) {
  ClusterStats stats;
  stats.per_cluster.assign(2, std::vector<query::AggregateState>(2));
  Writer w;
  stats.Serialize(&w);
  Reader r(w.data());
  auto back = ClusterStats::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->per_cluster, stats.per_cluster);
}

// The columnar snapshot decoder (builder buffers, slices, checkpoints).
// Each payload is a one-column table whose rows section is hostile.
Status DecodeColumns(data::ValueType type,
                     const std::function<void(Writer*)>& rows) {
  Writer w;
  data::Schema({{"c", type}}).Serialize(&w);
  rows(&w);
  Reader r(w.data());
  return data::ColumnTable::Deserialize(&r).status();
}

TEST(HostileDecoderTest, ColumnTableRejectsInflatedRowCount) {
  Status s = DecodeColumns(data::ValueType::kInt64, [](Writer* w) {
    w->PutVarint(kHuge);
    data::PutInt64Cell(w, 1);
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(HostileDecoderTest, ColumnTableRejectsMistypedCell) {
  Status s = DecodeColumns(data::ValueType::kInt64, [](Writer* w) {
    w->PutVarint(1);
    data::PutStringCell(w, "not a number");
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(HostileDecoderTest, ColumnTableRejectsUnknownTag) {
  Status s = DecodeColumns(data::ValueType::kDouble, [](Writer* w) {
    w->PutVarint(1);
    w->PutU8(9);
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(HostileDecoderTest, ColumnTableRejectsTruncatedString) {
  Status s = DecodeColumns(data::ValueType::kString, [](Writer* w) {
    w->PutVarint(1);
    w->PutU8(static_cast<uint8_t>(data::ValueType::kString));
    w->PutVarint(1000);  // a 1000-byte string ...
    w->PutRaw("abc", 3);  // ... with three bytes left
  });
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace edgelet::exec
