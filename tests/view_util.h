#ifndef EDGELET_TESTS_VIEW_UTIL_H_
#define EDGELET_TESTS_VIEW_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "data/column_table.h"
#include "data/table.h"

namespace edgelet::testutil {

// A hand-built row table as the operator kernels take it: columnarized
// into its own store and viewed whole. A table whose cells contradict its
// schema fails the test.
inline data::TableView ViewOf(const data::Table& table) {
  auto store = data::ColumnTable::FromTable(table);
  if (!store.ok()) {
    ADD_FAILURE() << store.status().ToString();
    return data::TableView();
  }
  return data::TableView(
      std::make_shared<const data::ColumnTable>(std::move(*store)));
}

}  // namespace edgelet::testutil

#endif  // EDGELET_TESTS_VIEW_UTIL_H_
