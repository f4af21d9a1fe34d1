#ifndef EDGELET_DATA_TABLE_H_
#define EDGELET_DATA_TABLE_H_

#include <vector>

#include "data/schema.h"
#include "data/value.h"

namespace edgelet::data {

using Tuple = std::vector<Value>;

// Row-oriented in-memory relation: the engine's *result* format.
// Finalized aggregates (GroupedAggregation / GroupingSetsResult::Finalize),
// the final-result message, the combiner's output and the validity oracle
// are small tables of Values, and a row store is the right shape there.
// Snapshot data — the population, builder buffers, computer slices — is
// columnar (ColumnTable, data/column_table.h) from contributor to computer,
// and Table::Serialize's bytes are its wire form too.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  // Appends a row after checking arity and per-column type (NULL fits any
  // column).
  Status Append(Tuple row);
  // Appends without validation (trusted internal paths).
  void AppendUnchecked(Tuple row) { rows_.push_back(std::move(row)); }

  void Reserve(size_t n) { rows_.reserve(n); }
  void Clear() { rows_.clear(); }

  // Value of the named column in row i.
  Result<Value> At(size_t row_index, std::string_view column) const;

  // New table with only the named columns, in order.
  Result<Table> Project(const std::vector<std::string>& columns) const;

  // Deterministic order: sorts rows lexicographically by value. Used to
  // compare distributed and centralized results independent of arrival
  // order.
  void SortRows();

  void Serialize(Writer* w) const;
  // Total on hostile input: row and column counts that cannot fit in the
  // remaining bytes fail with a Status before anything is reserved.
  static Result<Table> Deserialize(Reader* r);
  // Most rows a zero-arity table may claim on decode (its rows cost no
  // input bytes, so the byte bound cannot cap them).
  static constexpr uint64_t kMaxColumnlessRows = uint64_t{1} << 20;

  bool operator==(const Table& other) const {
    return schema_ == other.schema_ && rows_ == other.rows_;
  }

  // Pretty grid rendering (up to max_rows rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace edgelet::data

#endif  // EDGELET_DATA_TABLE_H_
