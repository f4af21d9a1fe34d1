#include "data/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace edgelet::data {

std::string_view ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument(
          std::string("cannot convert ") +
          std::string(ValueTypeToString(type())) + " to double");
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "";
}

void Value::Serialize(Writer* w) const {
  switch (type()) {
    case ValueType::kNull:
      PutNullCell(w);
      break;
    case ValueType::kInt64:
      PutInt64Cell(w, AsInt64());
      break;
    case ValueType::kDouble:
      PutDoubleCell(w, AsDouble());
      break;
    case ValueType::kString:
      PutStringCell(w, AsString());
      break;
  }
}

Result<WireCell> GetCell(Reader* r) {
  auto tag = r->GetU8();
  if (!tag.ok()) return tag.status();
  WireCell cell;
  switch (static_cast<ValueType>(*tag)) {
    case ValueType::kNull:
      return cell;
    case ValueType::kInt64: {
      auto v = r->GetVarintSigned();
      if (!v.ok()) return v.status();
      cell.type = ValueType::kInt64;
      cell.i64 = *v;
      return cell;
    }
    case ValueType::kDouble: {
      auto v = r->GetDouble();
      if (!v.ok()) return v.status();
      cell.type = ValueType::kDouble;
      cell.f64 = *v;
      return cell;
    }
    case ValueType::kString: {
      auto v = r->GetStringView();
      if (!v.ok()) return v.status();
      cell.type = ValueType::kString;
      cell.str = *v;
      return cell;
    }
  }
  return Status::Corruption("unknown value tag " + std::to_string(*tag));
}

Result<Value> Value::Deserialize(Reader* r) {
  auto cell = GetCell(r);
  if (!cell.ok()) return cell.status();
  Value v;
  switch (cell->type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      v.v_ = cell->i64;
      break;
    case ValueType::kDouble:
      v.v_ = cell->f64;
      break;
    case ValueType::kString:
      v.v_.emplace<std::string>(cell->str);
      break;
  }
  return v;
}

bool Value::operator<(const Value& other) const {
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt64:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(type()), rb = rank(other.type());
  if (ra != rb) return ra < rb;
  switch (type()) {
    case ValueType::kNull:
      return false;  // NULL == NULL
    case ValueType::kInt64:
      if (other.type() == ValueType::kInt64) {
        return AsInt64() < other.AsInt64();
      }
      return static_cast<double>(AsInt64()) < other.AsDouble();
    case ValueType::kDouble:
      if (other.type() == ValueType::kInt64) {
        return AsDouble() < static_cast<double>(other.AsInt64());
      }
      return AsDouble() < other.AsDouble();
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x6E756C6CULL;
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(AsInt64()) ^ 0x01);
    case ValueType::kDouble: {
      double d = AsDouble();
      // Normalize so 1.0 and integer 1 that were stored as double hash
      // consistently with themselves across platforms; -0.0 folds to +0.0.
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 0x02);
    }
    case ValueType::kString:
      return Fnv1a64(AsString());
  }
  return 0;
}

}  // namespace edgelet::data
