#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "data/table.h"

namespace edgelet {
namespace {

// --- hashing -----------------------------------------------------------------

TEST(HashTest, Fnv1aKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(HashTest, Mix64AvalanchesSequentialInputs) {
  // Sequential ids must map to well-spread values: check that flipping the
  // low bit flips roughly half the output bits.
  int total_flips = 0;
  const int kPairs = 200;
  for (uint64_t i = 0; i < kPairs; ++i) {
    uint64_t diff = Mix64(2 * i) ^ Mix64(2 * i + 1);
    total_flips += __builtin_popcountll(diff);
  }
  double mean_flips = static_cast<double>(total_flips) / kPairs;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(HashTest, HashCombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

// --- sim time ------------------------------------------------------------------

// --- flat open-addressing map ------------------------------------------------

// Random insert/overwrite/erase traffic, key 0 included, against std::map:
// every key stays reachable through growth rehashes and backward-shift
// erases, and key 0 (the arrays' empty marker) behaves like any other key.
TEST(FlatMap64Test, MatchesOrderedMapUnderChurn) {
  FlatMap64<uint64_t> flat;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    // Small key range: frequent collisions, overwrites and key-0 hits.
    const uint64_t key = rng.NextBelow(512);
    const uint64_t op = rng.NextBelow(4);
    if (op < 2) {
      flat.Insert(key, step);
      ref[key] = step;
    } else if (op == 2) {
      uint64_t got = 0;
      const bool erased = flat.Erase(key, &got);
      auto it = ref.find(key);
      ASSERT_EQ(erased, it != ref.end()) << "step " << step;
      if (erased) {
        EXPECT_EQ(got, it->second);
        ref.erase(it);
      }
    } else {
      const uint64_t* v = flat.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  std::map<uint64_t, uint64_t> seen;
  flat.ForEach([&seen](uint64_t k, uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen, ref);
  flat.Clear();
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_EQ(flat.Find(0), nullptr);
}

TEST(FlatSet64Test, InsertReportsNewKeysOnly) {
  FlatSet64 set;
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Insert(~uint64_t{0}));
  EXPECT_FALSE(set.Insert(~uint64_t{0}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(500), "500us");
  EXPECT_EQ(FormatSimTime(1500), "1.500ms");
  EXPECT_EQ(FormatSimTime(2 * kSecond + 250 * kMillisecond), "2.250s");
  EXPECT_EQ(FormatSimTime(kSimTimeNever), "never");
}

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(FromSeconds(2.5), 2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(FromSeconds(-1.0), 0u);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

// --- logging -------------------------------------------------------------------

TEST(LoggingTest, LevelGateDropsBelowThreshold) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluated = 0;
  auto count = [&evaluated]() {
    ++evaluated;
    return "x";
  };
  EDGELET_LOG(kDebug) << count();  // gated: operand never evaluated
  EXPECT_EQ(evaluated, 0);
  SetLogLevel(LogLevel::kTrace);
  EDGELET_LOG(kDebug) << count();
  EXPECT_EQ(evaluated, 1);
  SetLogLevel(old_level);
}

TEST(LoggingTest, SetGetRoundTrip) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  SetLogLevel(old_level);
}

// --- randomized serialization property sweep --------------------------------------

data::Value RandomValue(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return data::Value::Null();
    case 1:
      return data::Value(rng->NextInt(-1000000, 1000000));
    case 2:
      return data::Value(rng->NextGaussian(0, 1e6));
    default: {
      std::string s;
      size_t len = rng->NextBelow(20);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->NextInt(32, 126)));
      }
      return data::Value(std::move(s));
    }
  }
}

class TableSerializationProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TableSerializationProperty, RandomTablesRoundTrip) {
  Rng rng(GetParam());
  // Random schema.
  size_t num_cols = 1 + rng.NextBelow(6);
  std::vector<data::Column> cols;
  for (size_t c = 0; c < num_cols; ++c) {
    data::ValueType t = static_cast<data::ValueType>(1 + rng.NextBelow(3));
    cols.push_back({"c" + std::to_string(c), t});
  }
  data::Table table{data::Schema(cols)};
  size_t rows = rng.NextBelow(50);
  for (size_t i = 0; i < rows; ++i) {
    data::Tuple t;
    for (size_t c = 0; c < num_cols; ++c) {
      // Respect the declared type (or NULL).
      if (rng.NextBernoulli(0.1)) {
        t.push_back(data::Value::Null());
        continue;
      }
      switch (cols[c].type) {
        case data::ValueType::kInt64:
          t.push_back(data::Value(rng.NextInt(-1e9, 1e9)));
          break;
        case data::ValueType::kDouble:
          t.push_back(data::Value(rng.NextGaussian()));
          break;
        default:
          t.push_back(RandomValue(&rng));
          // Coerce to string if the random value has the wrong type.
          if (t.back().type() != data::ValueType::kString &&
              !t.back().is_null()) {
            t.back() = data::Value(t.back().ToString());
          }
          break;
      }
    }
    table.AppendUnchecked(std::move(t));
  }

  Writer w;
  table.Serialize(&w);
  Reader r(w.data());
  auto back = data::Table::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, table);
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSerializationProperty,
                         ::testing::Range<uint64_t>(1, 21));

class ValueOrderingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderingProperty, StrictWeakOrdering) {
  Rng rng(GetParam() * 31);
  std::vector<data::Value> values;
  for (int i = 0; i < 40; ++i) values.push_back(RandomValue(&rng));
  // Irreflexivity + asymmetry + hash/equality consistency.
  for (const auto& a : values) {
    EXPECT_FALSE(a < a);
    for (const auto& b : values) {
      if (a < b) {
        EXPECT_FALSE(b < a);
      }
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
        EXPECT_FALSE(a < b);
        EXPECT_FALSE(b < a);
      }
    }
  }
  // Sortable without UB and stable result.
  std::sort(values.begin(), values.end(),
            [](const data::Value& a, const data::Value& b) { return a < b; });
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_FALSE(values[i] < values[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderingProperty,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace edgelet
