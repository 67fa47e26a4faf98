#include "core/io.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace hhc::core {

namespace {

std::string binary(std::uint64_t v, unsigned width) {
  std::string s;
  s.reserve(width);
  for (unsigned i = width; i-- > 0;) {
    s += ((v >> i) & 1) != 0 ? '1' : '0';
  }
  return s;
}

// Graphviz node identifier (plain integer keeps dot happy).
std::string dot_id(Node v) {
  std::string id{"n"};
  id += std::to_string(v);
  return id;
}

}  // namespace

std::string format_node(const HhcTopology& net, Node v) {
  if (!net.contains(v)) throw std::invalid_argument("format_node: bad node");
  // Appended piecewise: gcc 12 -O3 misreads `"(" + std::string` as an
  // overlapping memcpy (-Wrestrict).
  std::string out{"("};
  out += binary(net.cluster_of(v), net.cluster_dimensions());
  out += ',';
  out += binary(net.position_of(v), net.m());
  out += ')';
  return out;
}

std::string format_path(const HhcTopology& net, const Path& path) {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) os << " -> ";
    os << format_node(net, path[i]);
  }
  return os.str();
}

std::string to_dot(const HhcTopology& net) {
  if (net.m() > 2) {
    throw std::invalid_argument("to_dot: full-network rendering needs m <= 2");
  }
  std::ostringstream os;
  os << "graph hhc {\n  layout=neato;\n  node [shape=circle, fontsize=9];\n";
  for (std::uint64_t x = 0; x < net.cluster_count(); ++x) {
    os << "  subgraph cluster_" << x << " {\n    label=\""
       << binary(x, net.cluster_dimensions()) << "\";\n";
    for (std::uint64_t y = 0; y < net.cluster_size(); ++y) {
      const Node v = net.encode(x, y);
      os << "    " << dot_id(v) << " [label=\"" << binary(y, net.m())
         << "\"];\n";
    }
    os << "  }\n";
  }
  for (Node v = 0; v < net.node_count(); ++v) {
    for (unsigned i = 0; i < net.m(); ++i) {
      const Node u = net.internal_neighbor(v, i);
      if (u > v) os << "  " << dot_id(v) << " -- " << dot_id(u) << ";\n";
    }
    const Node w = net.external_neighbor(v);
    if (w > v) {
      os << "  " << dot_id(v) << " -- " << dot_id(w) << " [style=dashed];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string container_to_dot(const HhcTopology& net, const DisjointPathSet& set,
                             Node s, Node t) {
  std::ostringstream os;
  os << "graph container {\n  node [shape=circle, fontsize=9];\n  "
     << dot_id(s) << " [label=\"" << format_node(net, s)
     << "\", shape=doublecircle];\n  " << dot_id(t) << " [label=\""
     << format_node(net, t) << "\", shape=doublecircle];\n";
  for (std::size_t i = 0; i < set.paths.size(); ++i) {
    const Path& p = set.paths[i];
    for (const Node v : p) {
      if (v == s || v == t) continue;
      os << "  " << dot_id(v) << " [label=\"" << format_node(net, v)
         << "\"];\n";
    }
    for (std::size_t j = 0; j + 1 < p.size(); ++j) {
      os << "  " << dot_id(p[j]) << " -- " << dot_id(p[j + 1])
         << " [colorscheme=set19, color=" << (i % 9) + 1 << "];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string csv_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) line += ',';
    const std::string& cell = cells[i];
    if (cell.find_first_of(",\"\n\r") == std::string::npos) {
      line += cell;
      continue;
    }
    line += '"';
    for (const char c : cell) {
      if (c == '"') line += '"';
      line += c;
    }
    line += '"';
  }
  return line;
}

void JsonWriter::comma_for_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already emitted its comma and colon
  }
  if (!stack_.empty() && stack_.back() == Scope::kObject) {
    throw std::logic_error("JsonWriter: value inside object without a key");
  }
  if (stack_.empty() && !out_.empty()) {
    throw std::logic_error("JsonWriter: multiple top-level values");
  }
  if (!first_in_scope_.empty() && !first_in_scope_.back()) out_ += ',';
  if (!first_in_scope_.empty()) first_in_scope_.back() = false;
}

void JsonWriter::open(Scope scope, char bracket) {
  comma_for_value();
  out_ += bracket;
  stack_.push_back(scope);
  first_in_scope_.push_back(true);
}

void JsonWriter::close(Scope scope, char bracket) {
  if (stack_.empty() || stack_.back() != scope || key_pending_) {
    throw std::logic_error("JsonWriter: mismatched container close");
  }
  stack_.pop_back();
  first_in_scope_.pop_back();
  out_ += bracket;
}

JsonWriter& JsonWriter::begin_object() {
  open(Scope::kObject, '{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close(Scope::kObject, '}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open(Scope::kArray, '[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(Scope::kArray, ']');
  return *this;
}

namespace {

std::string json_quote(const std::string& s) {
  std::string quoted = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\r': quoted += "\\r"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          quoted += buf;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return quoted;
}

}  // namespace

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (!first_in_scope_.back()) out_ += ',';
  first_in_scope_.back() = false;
  out_ += json_quote(name);
  out_ += ':';
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma_for_value();
  out_ += json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string{v}); }

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  return value(static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(double v) {
  comma_for_value();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

std::string JsonWriter::str() const {
  if (!stack_.empty() || key_pending_) {
    throw std::logic_error("JsonWriter: unterminated document");
  }
  return out_;
}

namespace {

std::string format_scalar(const StatRow& row) {
  if (row.integral) {
    return std::to_string(static_cast<std::int64_t>(row.value));
  }
  return std::to_string(row.value);
}

}  // namespace

StatRow stat_scalar(std::string section, std::string name,
                    std::uint64_t value) {
  StatRow row;
  row.section = std::move(section);
  row.name = std::move(name);
  row.value = static_cast<double>(value);
  return row;
}

StatRow stat_scalar(std::string section, std::string name, double value) {
  StatRow row;
  row.section = std::move(section);
  row.name = std::move(name);
  row.value = value;
  row.integral = false;
  return row;
}

StatRow stat_dist(std::string section, std::string name, std::uint64_t count,
                  double p50, double p90, double p99, double max) {
  StatRow row;
  row.section = std::move(section);
  row.name = std::move(name);
  row.kind = StatRow::Kind::kDist;
  row.count = count;
  row.p50 = p50;
  row.p90 = p90;
  row.p99 = p99;
  row.max = max;
  return row;
}

std::string stat_rows_csv(const std::vector<StatRow>& rows) {
  std::string out = csv_row({"section", "name", "value", "count", "p50", "p90",
                             "p99", "max"}) +
                    "\n";
  for (const StatRow& row : rows) {
    if (row.kind == StatRow::Kind::kScalar) {
      out += csv_row({row.section, row.name, format_scalar(row), "", "", "",
                      "", ""}) +
             "\n";
      continue;
    }
    const bool empty = row.count == 0;
    out += csv_row({row.section, row.name, "", std::to_string(row.count),
                    empty ? "" : std::to_string(row.p50),
                    empty ? "" : std::to_string(row.p90),
                    empty ? "" : std::to_string(row.p99),
                    std::to_string(row.max)}) +
           "\n";
  }
  return out;
}

void append_stat_rows(JsonWriter& json, const std::vector<StatRow>& rows) {
  json.begin_array();
  for (const StatRow& row : rows) {
    json.begin_object()
        .key("section").value(row.section)
        .key("name").value(row.name);
    if (row.kind == StatRow::Kind::kScalar) {
      if (row.integral) {
        json.key("value").value(static_cast<std::int64_t>(row.value));
      } else {
        json.key("value").value(row.value);
      }
    } else {
      json.key("count").value(row.count);
      if (row.count > 0) {
        json.key("p50").value(row.p50)
            .key("p90").value(row.p90)
            .key("p99").value(row.p99);
      }
      json.key("max").value(row.max);
    }
    json.end_object();
  }
  json.end_array();
}

std::string stat_rows_json(const std::vector<StatRow>& rows) {
  JsonWriter json;
  append_stat_rows(json, rows);
  return json.str();
}

}  // namespace hhc::core
