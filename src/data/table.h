#ifndef EDGELET_DATA_TABLE_H_
#define EDGELET_DATA_TABLE_H_

#include <functional>
#include <vector>

#include "data/schema.h"
#include "data/value.h"

namespace edgelet::data {

using Tuple = std::vector<Value>;

// Row-oriented in-memory relation: the engine's *boundary* format. Wire
// messages, per-operator partitions, and aggregation outputs are small
// (C/n tuples, typically hundreds), so a simple row store is the right
// representation there. Bulk population data lives in the columnar
// ColumnTable (data/column_table.h) and is read through TableViews; rows
// are materialized from it lazily, at the device/wire boundary only —
// the engine never holds the full crowd dataset as tuples.
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

  // New table with rows satisfying `pred`.
  Table Filter(const std::function<bool(const Tuple&)>& pred) const;

  // Appends all rows of `other`; schemas must match exactly.
  Status Concat(const Table& other);
  // Move-append: steals `other`'s rows (leaving it empty) instead of
  // copying every tuple. The fast path when the receiver is still empty is
  // a plain vector move.
  Status Concat(Table&& other);

  // Relinquishes the row storage (the table is left empty). Lets trusted
  // consumers move tuples out of a decoded message instead of copying.
  std::vector<Tuple> TakeRows() {
    std::vector<Tuple> out = std::move(rows_);
    rows_.clear();
    return out;
  }

  // Deterministic order: sorts rows lexicographically by value. Used to
  // compare distributed and centralized results independent of arrival
  // order.
  void SortRows();

  // Column as doubles (int64 widened); fails on strings/NULL.
  Result<std::vector<double>> NumericColumn(std::string_view column) const;

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
