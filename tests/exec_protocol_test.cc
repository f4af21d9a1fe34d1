#include "exec/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "data/column_table.h"
#include "data/generator.h"
#include "exec/execution.h"
#include "view_util.h"

namespace edgelet::exec {
namespace {

using testutil::ViewOf;

data::Table SmallTable() {
  data::HealthDataParams params;
  params.num_individuals = 5;
  return data::GenerateHealthData(params, 3);
}

TEST(ProtocolTest, ContributionRoundTrip) {
  ContributionMsg msg;
  msg.query_id = 42;
  msg.contributor_key = 1337;
  msg.rows = SmallTable();
  auto back = ContributionMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_id, 42u);
  EXPECT_EQ(back->contributor_key, 1337u);
  EXPECT_EQ(back->rows, msg.rows);
}

// A store exercising every cell encoding: NULL in each column type,
// negative / extreme / multi-byte-varint ints, empty and repeated
// (dictionary-shared) strings, signed zero and non-finite doubles.
std::shared_ptr<const data::ColumnTable> EncoderStore() {
  using data::Value;
  data::ColumnTable t(data::Schema({{"i", data::ValueType::kInt64},
                                    {"d", data::ValueType::kDouble},
                                    {"s", data::ValueType::kString},
                                    {"j", data::ValueType::kInt64}}));
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<data::Tuple> rows = {
      {Value(kMin), Value(-0.0), Value(""), Value(int64_t{0})},
      {Value::Null(), Value(1.5), Value("north"), Value(int64_t{-1})},
      {Value(kMax), Value::Null(), Value("north"), Value(int64_t{1} << 40)},
      {Value(int64_t{-300}), Value(kNan), Value::Null(), Value::Null()},
      {Value(int64_t{63}), Value(1e300), Value("south"), Value(int64_t{64})},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value(int64_t{-64}), Value(-INFINITY), Value(""), Value(int64_t{-65})},
  };
  for (const auto& row : rows) EXPECT_TRUE(t.AppendTuple(row).ok());
  return std::make_shared<const data::ColumnTable>(std::move(t));
}

// The column-to-wire encoder must put exactly the bytes of the row path
// (ContributionMsg over ProjectToTable) on the wire.
Bytes ReferenceContribution(uint64_t query_id, uint64_t key,
                            const data::TableView& rows,
                            const std::vector<std::string>& columns) {
  ContributionMsg msg;
  msg.query_id = query_id;
  msg.contributor_key = key;
  auto projected = rows.ProjectToTable(columns);
  EXPECT_TRUE(projected.ok());
  msg.rows = std::move(*projected);
  return msg.Encode();
}

TEST(ContributionEncoderTest, BytesEqualProjectedTableEncoding) {
  auto store = EncoderStore();
  const data::TableView all(store);
  // Multi-group projections: reordered, single-column, full-width and a
  // repeated column.
  const std::vector<std::vector<std::string>> vgroups = {
      {"s", "i"}, {"d"}, {"j", "s", "d", "i"}, {"i", "i"}};
  ContributionEncoder enc(77);
  enc.Bind(store->schema(), vgroups);
  for (size_t vg = 0; vg < vgroups.size(); ++vg) {
    ASSERT_TRUE(enc.resolved(vg));
    for (size_t row = 0; row < store->num_rows(); ++row) {
      const uint64_t key = row * 0x9E3779B97F4A7C15ull;
      EXPECT_EQ(enc.EncodeRow(vg, key, *store, row),
                ReferenceContribution(77, key, all.Slice(row, 1),
                                      vgroups[vg]))
          << "vgroup " << vg << " row " << row;
    }
    // Multi-row views: the whole store, a selection, an empty window.
    EXPECT_EQ(enc.Encode(vg, 0, all),
              ReferenceContribution(77, 0, all, vgroups[vg]));
    const data::TableView sel = all.Select({5, 0, 3, 2});
    EXPECT_EQ(enc.Encode(vg, ~uint64_t{0}, sel),
              ReferenceContribution(77, ~uint64_t{0}, sel, vgroups[vg]));
    const data::TableView none = all.Slice(3, 0);
    EXPECT_EQ(enc.Encode(vg, 9, none),
              ReferenceContribution(77, 9, none, vgroups[vg]));
  }
}

TEST(ContributionEncoderTest, BytesEqualOnGeneratedPopulation) {
  data::HealthDataParams params;
  params.num_individuals = 200;
  auto store = std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(params, 11));
  const data::TableView all(store);
  const std::vector<std::vector<std::string>> vgroups = {
      {"region", "sex", "bmi", "systolic_bp"},
      {"age", "bmi", "systolic_bp", "chronic_count", "dependency"}};
  ContributionEncoder enc(5);
  enc.Bind(store->schema(), vgroups);
  for (size_t vg = 0; vg < vgroups.size(); ++vg) {
    ASSERT_TRUE(enc.resolved(vg));
    for (size_t row = 0; row < store->num_rows(); ++row) {
      ASSERT_EQ(enc.EncodeRow(vg, row, *store, row),
                ReferenceContribution(5, row, all.Slice(row, 1),
                                      vgroups[vg]));
    }
  }
}

TEST(ContributionEncoderTest, UnknownColumnStopsResolution) {
  auto store = EncoderStore();
  ContributionEncoder enc(1);
  enc.Bind(store->schema(), {{"i"}, {"missing"}, {"d"}});
  EXPECT_TRUE(enc.resolved(0));
  EXPECT_FALSE(enc.resolved(1));
  EXPECT_FALSE(enc.resolved(2));
  EXPECT_TRUE(enc.error().IsNotFound());
}

TEST(ProtocolTest, SnapshotSliceRoundTrip) {
  SnapshotSliceMsg msg;
  msg.query_id = 1;
  msg.partition = 3;
  msg.vgroup = 2;
  msg.epoch = 1;
  auto rows = data::ColumnTable::FromTable(SmallTable());
  ASSERT_TRUE(rows.ok());
  msg.rows = std::move(*rows);
  const Bytes encoded = msg.Encode();
  // The columnar slice keeps the row table's wire bytes.
  Writer expected;
  expected.PutU64(1);
  expected.PutU32(3);
  expected.PutU32(2);
  expected.PutU32(1);
  SmallTable().Serialize(&expected);
  EXPECT_EQ(encoded, expected.data());
  auto back = SnapshotSliceMsg::Decode(encoded);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partition, 3u);
  EXPECT_EQ(back->vgroup, 2u);
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_EQ(back->rows.ToTable(), SmallTable());
}

TEST(ProtocolTest, GsPartialRoundTrip) {
  query::GroupingSetsSpec spec{
      {{"region"}},
      {{query::AggregateFunction::kCount, "*"}}};
  auto result =
      query::GroupingSetsResult::Compute(ViewOf(SmallTable()), spec);
  ASSERT_TRUE(result.ok());
  GsPartialMsg msg;
  msg.query_id = 9;
  msg.partition = 1;
  msg.vgroup = 0;
  msg.epoch = 2;
  msg.result = *result;
  auto back = GsPartialMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partition, 1u);
  auto t1 = back->result.Finalize();
  auto t2 = result->Finalize();
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
}

TEST(ProtocolTest, KmMessagesRoundTrip) {
  KmKnowledgeMsg k;
  k.query_id = 5;
  k.partition = 2;
  k.round = 7;
  k.knowledge = {{{1.0, 2.0}, {3.0, 4.0}}, {10, 20}};
  auto kb = KmKnowledgeMsg::Decode(k.Encode());
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->round, 7u);
  EXPECT_EQ(kb->knowledge, k.knowledge);

  KmFinalMsg f;
  f.query_id = 5;
  f.partition = 2;
  f.knowledge = k.knowledge;
  query::AggregateState s;
  ASSERT_TRUE(s.Add(data::Value(3.5)).ok());
  f.stats.per_cluster = {{s}, {s}};
  auto fb = KmFinalMsg::Decode(f.Encode());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fb->knowledge, f.knowledge);
  ASSERT_EQ(fb->stats.per_cluster.size(), 2u);
  EXPECT_EQ(fb->stats.per_cluster[0][0], s);
}

TEST(ProtocolTest, FinalResultRoundTrip) {
  FinalResultMsg msg;
  msg.query_id = 11;
  msg.partitions = {0, 2, 5};
  msg.epochs = {0, 1, 0, 0, 2, 0};  // 2 vgroups per partition
  msg.result = SmallTable();
  auto back = FinalResultMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partitions, msg.partitions);
  EXPECT_EQ(back->epochs, msg.epochs);
  EXPECT_EQ(back->result, msg.result);
}

TEST(ProtocolTest, LeaderPingRoundTrip) {
  LeaderPingMsg ping{0xDEADBEEF12345678ULL, 3};
  auto back = LeaderPingMsg::Decode(ping.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->group_id, ping.group_id);
  EXPECT_EQ(back->rank, 3u);
}

TEST(ProtocolTest, TruncatedMessagesFail) {
  ContributionMsg msg;
  msg.query_id = 1;
  msg.rows = SmallTable();
  Bytes full = msg.Encode();
  for (size_t cut : {0u, 4u, 12u}) {
    Bytes truncated(full.begin(), full.begin() + cut);
    EXPECT_FALSE(ContributionMsg::Decode(truncated).ok()) << cut;
  }
}

TEST(ClusterStatsTest, PermuteReorders) {
  query::AggregateState a, b;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ASSERT_TRUE(b.Add(data::Value(2.0)).ok());
  ClusterStats stats;
  stats.per_cluster = {{a}, {b}};
  stats.Permute({1, 0});  // cluster 0 -> index 1, cluster 1 -> index 0
  EXPECT_EQ(stats.per_cluster[1][0], a);
  EXPECT_EQ(stats.per_cluster[0][0], b);
}

TEST(ClusterStatsTest, PermuteWithBadIndicesKeepsInPlace) {
  query::AggregateState a;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ClusterStats stats;
  stats.per_cluster = {{a}};
  stats.Permute({7});  // out of range: identity fallback
  EXPECT_EQ(stats.per_cluster[0][0], a);
}

TEST(ClusterStatsTest, MergeAccumulates) {
  query::AggregateState a, b;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ASSERT_TRUE(b.Add(data::Value(3.0)).ok());
  ClusterStats s1, s2;
  s1.per_cluster = {{a}};
  s2.per_cluster = {{b}};
  ASSERT_TRUE(s1.MergeFrom(s2).ok());
  EXPECT_DOUBLE_EQ(
      s1.per_cluster[0][0].Finalize(query::AggregateFunction::kAvg)
          .AsDouble(),
      2.0);
}

TEST(ClusterStatsTest, MergeIntoEmptyAdopts) {
  query::AggregateState a;
  ASSERT_TRUE(a.Add(data::Value(5.0)).ok());
  ClusterStats empty, other;
  other.per_cluster = {{a}};
  ASSERT_TRUE(empty.MergeFrom(other).ok());
  EXPECT_EQ(empty.per_cluster.size(), 1u);
}

TEST(ClusterStatsTest, MergeShapeMismatchFails) {
  ClusterStats s1, s2;
  s1.per_cluster = {{query::AggregateState{}}};
  s2.per_cluster = {{query::AggregateState{}}, {query::AggregateState{}}};
  EXPECT_FALSE(s1.MergeFrom(s2).ok());
}

TEST(ProtocolTest, StrategyNames) {
  EXPECT_EQ(StrategyName(Strategy::kOvercollection), "Overcollection");
  EXPECT_EQ(StrategyName(Strategy::kBackup), "Backup");
}

}  // namespace
}  // namespace edgelet::exec
