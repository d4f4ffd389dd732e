#include "common/json.h"

#include <cmath>
#include <cstdio>

namespace dynastar {

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(value_);
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  // Integral values print without a fraction so ids/counts stay readable.
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    append_escaped(out, as_string());
  } else if (is_array()) {
    const Array& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& v : arr) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const Object& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, v] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      append_escaped(out, key);
      out += indent > 0 ? ": " : ":";
      v.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace dynastar
